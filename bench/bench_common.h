// Shared output helpers for the figure-reproduction benches.
//
// Every bench prints: a banner, the paper's reference numbers next to
// the measured ones, ASCII renderings of the figure panels, and (when
// EIO_BENCH_CSV is set in the environment) CSV files with the raw
// series for external plotting.
#pragma once

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/units.h"
#include "core/ascii_chart.h"
#include "core/csv.h"
#include "core/distribution.h"
#include "core/modes.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/trace_diagram.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "workloads/ensemble.h"
#include "workloads/experiment.h"

namespace eio::bench {

/// Parse `--jobs N` / `--jobs=N` from argv. Returns 0 (meaning "use
/// EIO_JOBS or hardware concurrency") when absent; every figure bench
/// forwards the value to workloads::run_jobs / run_ensemble.
inline std::size_t jobs_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--jobs" && i + 1 < argc) {
      value = argv[i + 1];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      value = arg.substr(7);
    } else {
      continue;
    }
    char* end = nullptr;
    unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
    std::fprintf(stderr, "warning: ignoring malformed --jobs value '%s'\n",
                 value.c_str());
  }
  return 0;
}

/// Write the BENCH_*.json artifact `path` as one json::Writer
/// document: the provenance every bench file opens with (report schema
/// version, generation timestamp, and the same build block the
/// eiotrace metrics report carries — so a bench number is always
/// traceable to the commit and flags that produced it), then
/// "benchmark", then the keys `body(w)` writes, then the host's
/// "machine" string.
template <typename Body>
inline void write_bench_json(const std::string& path,
                             std::string_view benchmark, Body&& body) {
  std::ofstream file(path);
  json::Writer w(file);
  w.begin_object()
      .kv("schema_version", obs::kMetricsSchemaVersion)
      .kv("generated_at", obs::iso8601_utc_now())
      .key("build");
  obs::write_build_info_json(w);
  w.kv("benchmark", benchmark);
  body(w);
  utsname uts{};
  uname(&uts);
  std::string machine = uts.sysname;
  machine += ' ';
  machine += uts.release;
  machine += ' ';
  machine += uts.machine;
  w.kv("machine", machine).end_object();
  file << '\n';
  std::printf("[json] %s written\n", path.c_str());
}

/// True when the host cannot actually run `jobs` workers at once, so a
/// parallel timing at that job count measures oversubscription, not
/// scaling. The bench process itself occupies one of the cores, so the
/// boundary is hardware_concurrency <= jobs (equality is scarce too).
[[nodiscard]] inline bool cores_scarce(std::size_t jobs) {
  return static_cast<std::size_t>(std::thread::hardware_concurrency()) <= jobs;
}

/// The structured honest-scaling annotation every BENCH_*.json with
/// parallel rows embeds: how many cores the host granted, the largest
/// job count benchmarked, and whether speedup claims are valid at all.
/// Writes the "scaling_note" key and its object.
inline void write_scaling_note(json::Writer& w, std::size_t max_jobs) {
  const auto cores =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  const bool scarce = cores <= max_jobs;
  w.key("scaling_note")
      .begin_object()
      .kv("hardware_concurrency", cores)
      .kv("max_jobs", max_jobs)
      .kv("cores_scarce", scarce)
      .kv("note",
          scarce ? "cores scarce (hardware_concurrency <= max benchmarked "
                   "jobs): parallel rows measure oversubscription, not "
                   "scaling; speedup claims are suppressed"
                 : "hardware_concurrency exceeds every benchmarked job "
                   "count: parallel rows are valid scaling data")
      .end_object();
}

/// Self-observability flags shared with the eiotrace CLI
/// (--chrome-trace PATH, --metrics PATH, --obs-summary, --obs), in
/// both --flag=value and --flag value forms. Call obs_flags() before
/// the measured work and finish_obs() after it.
struct ObsFlags {
  std::string chrome_trace;
  std::string metrics;
  bool summary = false;
  bool enable = false;

  [[nodiscard]] bool any() const {
    return enable || summary || !chrome_trace.empty() || !metrics.empty();
  }
};

inline ObsFlags obs_flags(int argc, char** argv) {
  ObsFlags f;
  auto value_of = [&](int& i, const char* flag) -> const char* {
    std::string arg = argv[i];
    std::string name = flag;
    if (arg == name && i + 1 < argc) return argv[++i];
    if (arg.rfind(name + "=", 0) == 0) {
      return argv[i] + name.size() + 1;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(i, "--chrome-trace")) {
      f.chrome_trace = v;
    } else if (const char* v = value_of(i, "--metrics")) {
      f.metrics = v;
    } else if (std::string(argv[i]) == "--obs-summary") {
      f.summary = true;
    } else if (std::string(argv[i]) == "--obs") {
      f.enable = true;
    }
  }
  if (f.any()) {
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  return f;
}

inline void finish_obs(const ObsFlags& f) {
  if (!f.any()) return;
  obs::set_enabled(false);
  obs::Snapshot snap = obs::Registry::instance().snapshot();
  if (!f.metrics.empty()) {
    obs::write_metrics_file(f.metrics, snap);
    std::printf("  [obs] %s written\n", f.metrics.c_str());
  }
  if (!f.chrome_trace.empty()) {
    obs::write_chrome_trace_file(f.chrome_trace);
    std::printf("  [obs] %s written\n", f.chrome_trace.c_str());
  }
  if (f.summary) {
    std::ostringstream os;
    obs::print_summary(os, snap);
    std::printf("%s", os.str().c_str());
  }
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

/// paper-vs-measured row.
inline void compare_row(const std::string& what, double paper, double measured,
                        const std::string& unit) {
  double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("  %-38s paper %10.1f %-6s measured %10.1f %-6s (x%.2f)\n",
              what.c_str(), paper, unit.c_str(), measured, unit.c_str(), ratio);
}

/// True when CSV dumps are requested (EIO_BENCH_CSV=dir).
inline const char* csv_dir() { return std::getenv("EIO_BENCH_CSV"); }

inline void maybe_save_csv(const std::string& name, analysis::CsvWriter& csv) {
  const char* dir = csv_dir();
  if (dir == nullptr) return;
  std::string path = std::string(dir) + "/" + name + ".csv";
  csv.save(path);
  std::printf("  [csv] %s\n", path.c_str());
}

/// Print the standard three panels of a paper figure row: trace
/// diagram, aggregate rate, duration histogram.
inline void print_trace_diagram(const workloads::RunResult& result,
                                std::size_t rows = 24, std::size_t cols = 96) {
  analysis::TraceDiagram diagram(result.trace, {.max_rows = rows, .columns = cols});
  std::printf("%s", diagram.render_text().c_str());
  std::printf("  idle fraction: %.2f\n", diagram.idle_fraction());
}

inline void print_rate_series(const workloads::RunResult& result,
                              const analysis::EventFilter& filter,
                              const std::string& label) {
  analysis::TimeSeries series = analysis::aggregate_rate(result.trace, filter, 120);
  analysis::Series line{label, {}, {}};
  for (std::size_t i = 0; i < series.values.size(); ++i) {
    line.x.push_back(series.time_at(i));
    line.y.push_back(series.values[i] / static_cast<double>(MiB));
  }
  std::printf("%s", analysis::render_lines(
                        std::vector<analysis::Series>{line},
                        {.width = 84, .height = 12, .x_label = "seconds",
                         .y_label = "aggregate MiB/s", .title = ""})
                        .c_str());
}

inline void print_modes(const std::vector<stats::Mode>& modes,
                        const std::string& unit) {
  std::printf("  detected modes:\n");
  for (const auto& m : modes) {
    std::printf("    at %8.2f %-8s mass %4.1f%%  density %.4f\n", m.location,
                unit.c_str(), m.mass * 100.0, m.density);
  }
}

inline void print_summary(const workloads::RunResult& result) {
  std::printf("  run: %-28s  job time %8.1f s   data %8.1f GiB   rate %s\n",
              result.name.c_str(), result.job_time,
              to_gib(result.fs_stats.bytes_written + result.fs_stats.bytes_read),
              analysis::format_rate(result.reported_rate()).c_str());
  std::printf("       events traced %zu, engine events %llu, monitor overhead %s\n",
              result.trace.size(),
              static_cast<unsigned long long>(result.engine_events),
              analysis::format_seconds(result.monitor_overhead).c_str());
}

}  // namespace eio::bench
