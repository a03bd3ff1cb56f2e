// Figure 6 reproduction: GCRM I/O kernel, 10,240 tasks writing one
// shared HDF5 file, through the paper's three optimizations:
//
//   baseline                 310 s  (Fig 6 a-c)
//   + collective buffering   190 s  (Fig 6 d-f, 1.6x)
//   + 1 MiB alignment        150 s  (Fig 6 g-i)
//   + metadata aggregation    75 s  (Fig 6 j-l, > 4x total)
//
// Panels per row: trace diagram, aggregate write rate, and the
// normalized sec/MiB histogram split into data vs metadata transfers.
#include <cstdio>

#include "bench_common.h"
#include "core/histogram.h"
#include "monitor/diagnose.h"
#include "workloads/gcrm.h"

using namespace eio;

namespace {

void report_config(const workloads::RunResult& result, const char* label) {
  bench::section(std::string(label) + ": trace diagram");
  bench::print_trace_diagram(result);

  bench::section(std::string(label) + ": aggregate write rate");
  bench::print_rate_series(result, {.op = posix::OpType::kWrite}, "write");

  bench::section(std::string(label) + ": normalized sec/MiB histograms");
  auto data = analysis::seconds_per_mib(
      result.trace, {.op = posix::OpType::kWrite, .min_bytes = MiB});
  auto meta = analysis::seconds_per_mib(
      result.trace, {.op = posix::OpType::kWrite, .min_bytes = 1,
                     .max_bytes = 64 * KiB});
  stats::Histogram hd(stats::BinScale::kLog10, 1e-3, 1e4, 56);
  hd.add_all(data);
  if (!meta.empty()) {
    stats::Histogram hm(stats::BinScale::kLog10, 1e-3, 1e4, 56);
    hm.add_all(meta);
    std::vector<const stats::Histogram*> hs{&hd, &hm};
    std::vector<std::string> names{"data (1.6 MB records)", "metadata (<3 KiB)"};
    std::printf("%s", analysis::render_histograms(
                          hs, names, {.width = 84, .height = 12, .log_y = true,
                                      .x_label = "sec/MiB (log)",
                                      .y_label = "count (log)"})
                          .c_str());
  } else {
    std::printf("%s", analysis::render_histogram(
                          hd, {.width = 84, .height = 12, .log_y = true,
                               .x_label = "sec/MiB (log)",
                               .y_label = "count (log)"})
                          .c_str());
    std::printf("  (no small metadata transfers in this configuration)\n");
  }
  stats::EmpiricalDistribution dd(std::move(data));
  std::printf("  data: median %.2f MiB/s per task, worst %.3f MiB/s\n",
              1.0 / dd.median(), 1.0 / dd.max());
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("fig6_gcrm_optimizations — GCRM 10,240 tasks, shared file",
                "Figure 6(a-l), Section V");

  lustre::MachineConfig franklin = lustre::MachineConfig::franklin();
  struct Step {
    const char* label;
    workloads::GcrmConfig cfg;
    double paper_seconds;
  };
  const Step steps[] = {
      {"baseline (Fig 6a-c)", workloads::GcrmConfig::baseline(), 310.0},
      {"collective buffering, 80 I/O tasks (Fig 6d-f)",
       workloads::GcrmConfig::with_collective_buffering(), 190.0},
      {"+ 1 MiB alignment (Fig 6g-i)", workloads::GcrmConfig::with_alignment(),
       150.0},
      {"+ aggregated metadata (Fig 6j-l)",
       workloads::GcrmConfig::fully_optimized(), 75.0},
  };

  std::vector<workloads::JobSpec> specs;
  for (const Step& step : steps) {
    specs.push_back(workloads::make_gcrm_job(franklin, step.cfg));
  }
  std::vector<workloads::RunResult> results =
      workloads::run_jobs(specs, bench::jobs_flag(argc, argv));
  for (std::size_t i = 0; i < results.size(); ++i) {
    report_config(results[i], steps[i].label);
  }

  bench::section("diagnosis of the baseline (what the method tells you to fix)");
  analysis::DiagnoserOptions opt;
  opt.fair_share_rate = workloads::fair_share_rate(franklin, 10240);
  for (const auto& f :
       analysis::diagnose(ipm::MemoryTraceSource(results[0].trace), opt)) {
    std::printf("  [%-22s sev %.2f] %s\n", analysis::finding_name(f.code),
                f.severity, f.message.c_str());
  }

  bench::section("paper vs measured (run times)");
  for (std::size_t i = 0; i < results.size(); ++i) {
    bench::compare_row(steps[i].label, steps[i].paper_seconds,
                       results[i].job_time, "s");
  }
  bench::compare_row("total speedup", 310.0 / 75.0,
                     results[0].job_time / results[3].job_time, "x");
  bench::compare_row("collective-buffering step", 310.0 / 190.0,
                     results[0].job_time / results[1].job_time, "x");

  for (const auto& r : results) bench::print_summary(r);

  analysis::CsvWriter csv;
  std::vector<double> idx, paper, measured;
  for (std::size_t i = 0; i < results.size(); ++i) {
    idx.push_back(static_cast<double>(i));
    paper.push_back(steps[i].paper_seconds);
    measured.push_back(results[i].job_time);
  }
  csv.column("step", idx).column("paper_s", paper).column("measured_s", measured);
  bench::maybe_save_csv("fig6_runtimes", csv);
  return 0;
}
