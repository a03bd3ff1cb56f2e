// e2e_traced: the end-to-end benchmark's in-process runner.
//
// The benchmark times the real `eiotrace` binary with tracing off; this
// program supplies the per-layer view. It links the library and wraps
// each call into a module's public API in a span (name, start, end,
// parent) recorded here, in the benchmark, never inside src/. A span's
// layer is the module prefix of its name ("sim.execute" -> sim); the
// root span "traced" covers the whole pass, so whatever no layer span
// claims is the unattributed remainder (computed by e2ebench/stats.py).
//
// Modes (each prints one JSON document on stdout):
//   spawn      time one child process and report its peak RSS
//   gen-trace  write the seeded synthetic v3 trace (benchmark input)
//   expect     traced calls per run implied by a scenario's programs
//   simulate   traced replay of `eiotrace simulate --jobs=1`
//   analyze    ipm/core/monitor/cli layers over a v3 trace
//   campaign   workloads/campaign layers over a sweep manifest
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include "campaign/dispatch.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "cli/eiotrace.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "core/kernel.h"
#include "core/ks.h"
#include "core/parallel_analysis.h"
#include "core/samples.h"
#include "ipm/mapped_file.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace_source.h"
#include "ipm/trace_v3.h"
#include "monitor/health.h"
#include "workloads/experiment.h"
#include "workloads/scenario.h"
#include "workloads/sweep.h"

namespace {

using namespace eio;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Spans and counts, kept in memory and written once at the end.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int open(std::string name) {
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("span closed out of order: " + spans_[id].name);
    }
    spans_[id].end = now();
    stack_.pop_back();
  }

  void count(const std::string& name, double value) { counts_[name] = value; }

  void write(std::ostream& out) const {
    json::Writer w(out);
    w.begin_object();
    w.key("spans").begin_array();
    for (const Span& s : spans_) {
      w.begin_object()
          .kv("name", s.name)
          .kv("start", s.start)
          .kv("end", s.end)
          .kv("parent", s.parent)
          .end_object();
    }
    w.end_array();
    w.key("counts").begin_object();
    for (const auto& [k, v] : counts_) w.kv(k, v);
    w.end_object();
    w.end_object();
    out << "\n";
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Peak resident set of this process so far (VmHWM), in MB.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Flags: --name value pairs after the mode.

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + a);
      std::string v = (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
                          ? argv[++i]
                          : "1";
      values_[a.substr(2)] = v;
    }
  }

  [[nodiscard]] std::string str(const std::string& k) const {
    auto it = values_.find(k);
    if (it == values_.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  [[nodiscard]] std::uint64_t num(const std::string& k) const {
    return std::stoull(str(k));
  }
  [[nodiscard]] bool has(const std::string& k) const { return values_.count(k) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

std::uint64_t io_ops(const workloads::JobSpec& job) {
  std::uint64_t n = 0;
  for (const mpi::Program& p : job.programs) {
    for (const mpi::Op& op : p.ops()) {
      // Open, Close, Seek, Read, Write, Fsync: the calls IPM traces.
      if (op.index() <= 5) ++n;
    }
  }
  return n;
}

std::uint64_t total_ops(const workloads::JobSpec& job) {
  std::uint64_t n = 0;
  for (const mpi::Program& p : job.programs) n += p.size();
  return n;
}

// ---------------------------------------------------------------------------
// spawn OUT ERR PROG [ARGS...]: run PROG with stdout and stderr to files,
// timed from spawn to reap. Linux carries a parent's resident set across
// fork + exec into the child's ru_maxrss, so children are started from
// this small process rather than from the (larger) Python process; the
// reported peak is then the child's own, including its reaped children.

extern "C" char** environ;

int cmd_spawn(int argc, char** argv) {
  if (argc < 5) throw std::invalid_argument("spawn OUT ERR PROG [ARGS...]");
  posix_spawn_file_actions_t files;
  posix_spawn_file_actions_init(&files);
  posix_spawn_file_actions_addopen(&files, 1, argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&files, 2, argv[3], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const auto start = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawnp(&pid, argv[4], &files, nullptr, argv + 4, environ);
  posix_spawn_file_actions_destroy(&files);
  if (rc != 0) throw std::runtime_error(std::string("cannot start ") + argv[4]);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) throw std::runtime_error("wait4 failed");
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  json::Writer w(std::cout);
  w.begin_object()
      .kv("wall_s", wall)
      .kv("maxrss_kb", static_cast<std::int64_t>(usage.ru_maxrss))
      .kv("returncode", code)
      .end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// gen-trace: the synthetic analysis input. `phases` alternating
// write/read phases; in each, every rank opens, issues `calls` 1 MiB
// transfers and closes. Durations are bimodal lognormal; transfers to
// the planted slow OST run 5x longer. File ids rotate over the OSTs so
// that (file - 1) % ost_count names the OST a transfer lands on — the
// attribution rule the health monitor uses. Within a phase events are
// stored in completion order, as a capture would record them.

int cmd_gen_trace(const Flags& f) {
  const std::uint64_t seed = f.num("seed");
  const auto ranks = static_cast<std::uint32_t>(f.num("ranks"));
  const auto phases = static_cast<std::uint32_t>(f.num("phases"));
  const std::uint64_t calls = f.num("calls");
  const std::uint64_t osts = f.num("ost-count");
  const std::uint64_t slow = f.num("slow-ost");
  const std::string out_path = f.str("out");
  if (ranks == 0 || phases == 0 || calls == 0 || osts == 0 || slow >= osts) {
    throw std::invalid_argument("gen-trace: bad shape");
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  ipm::TraceWriterV3 writer(out, "e2e-synthetic", ranks);

  std::vector<ipm::TraceEvent> phase_events;
  phase_events.reserve(static_cast<std::size_t>(ranks) * (calls + 2));
  double t = 0.0;
  for (std::uint32_t p = 0; p < phases; ++p) {
    const bool write = p % 2 == 0;
    const posix::OpType op = write ? posix::OpType::kWrite : posix::OpType::kRead;
    const auto phase = static_cast<std::int32_t>(p + 1);
    phase_events.clear();
    double phase_end = t;
    for (RankId r = 0; r < ranks; ++r) {
      rng::Stream s(rng::substream_seed(seed, p, r));
      double now = t + s.uniform(0.0, 0.002);
      auto emit = [&](posix::OpType o, FileId file, Bytes offset, Bytes bytes,
                      double dur) {
        phase_events.push_back({.start = now, .duration = dur, .op = o,
                                .rank = r, .file = file, .offset = offset,
                                .bytes = bytes, .phase = phase});
        now += dur;
      };
      emit(posix::OpType::kOpen, 1, 0, 0, s.lognormal(std::log(2e-4), 0.3));
      for (std::uint64_t c = 0; c < calls; ++c) {
        const std::uint64_t ost = (r * calls + c) % osts;
        const bool slow_mode = s.chance(0.3);
        double dur = s.lognormal(std::log(slow_mode ? 0.12 : 0.02), 0.25);
        if (!write) dur *= 0.6;
        if (ost == slow) dur *= 5.0;
        emit(op, static_cast<FileId>(1 + ost), (r * calls + c) * MiB, MiB, dur);
      }
      emit(posix::OpType::kClose, 1, 0, 0, s.lognormal(std::log(1e-4), 0.3));
      phase_end = std::max(phase_end, now);
    }
    std::stable_sort(phase_events.begin(), phase_events.end(),
                     [](const ipm::TraceEvent& a, const ipm::TraceEvent& b) {
                       return a.end() < b.end();
                     });
    for (const ipm::TraceEvent& e : phase_events) writer.add(e);
    t = phase_end + 0.01;  // barrier between phases
  }
  writer.finish();
  out.close();
  if (!out) throw std::runtime_error("write failed: " + out_path);

  json::Writer w(std::cout);
  w.begin_object()
      .kv("events", writer.events_written())
      .kv("bytes", static_cast<std::uint64_t>(std::filesystem::file_size(out_path)))
      .end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// expect: what a scenario's inputs imply, from its rank programs.

int cmd_expect(const Flags& f) {
  workloads::ScenarioBuilder scenario = workloads::load_scenario(f.str("scenario"));
  workloads::JobSpec job = scenario.job();
  json::Writer w(std::cout);
  w.begin_object()
      .kv("runs", static_cast<std::uint64_t>(scenario.run_count()))
      .kv("calls_per_run", io_ops(job))
      .end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// simulate: `eiotrace simulate --jobs=1` decomposed. The ensemble
// runner's serial path is RunInstance(spec with seed base + r, r)
// followed by execute(); the CLI's per-run SummarySink and the
// pairwise KS table ride along so the replay does the command's work.

int cmd_simulate(const Flags& f) {
  Tracer tr;
  const int root = tr.open("traced");
  std::optional<workloads::ScenarioBuilder> scenario;
  workloads::JobSpec job;
  {
    Scope s(tr, "workloads.build");
    scenario = workloads::load_scenario(f.str("scenario"));
    job = scenario->job();
  }
  const std::size_t runs = scenario->run_count();
  tr.count("workloads.program_ops", static_cast<double>(total_ops(job)));
  job.capture = ipm::Mode::kProfile;
  const analysis::EventFilter write_filter{.op = posix::OpType::kWrite,
                                           .min_bytes = MiB};
  std::vector<std::shared_ptr<analysis::SummarySink>> sinks(runs);
  job.sink_factory = [&sinks, write_filter](std::size_t run_index)
      -> std::shared_ptr<ipm::EventSink> {
    sinks[run_index] = std::make_shared<analysis::SummarySink>(write_filter);
    return sinks[run_index];
  };

  const std::uint64_t base_seed = job.machine.seed;
  std::uint64_t engine_events = 0, calls = 0;
  lustre::FilesystemStats fs;
  double instance_rss = 0.0, execute_rss = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    const double hwm0 = vm_hwm_mb();
    std::optional<workloads::RunInstance> run;
    {
      Scope s(tr, "workloads.instance");
      workloads::JobSpec spec = job;  // the per-run copy the ensemble runner makes
      spec.machine.seed = base_seed + r;
      run.emplace(std::move(spec), r);
    }
    const double hwm1 = vm_hwm_mb();
    std::optional<workloads::RunResult> result;
    {
      Scope s(tr, "sim.execute");
      result = run->execute();
    }
    const double hwm2 = vm_hwm_mb();
    if (r == 0) {  // VmHWM only grows: later runs reuse freed pages
      instance_rss = hwm1 - hwm0;
      execute_rss = hwm2 - hwm1;
    }
    engine_events += result->engine_events;
    calls += result->profile.total();
    const lustre::FilesystemStats& st = result->fs_stats;
    fs.writes += st.writes;
    fs.reads += st.reads;
    fs.small_ops += st.small_ops;
    fs.bytes_written += st.bytes_written;
    fs.bytes_read += st.bytes_read;
    fs.bytes_absorbed += st.bytes_absorbed;
    Scope s(tr, "workloads.teardown");
    result.reset();
    run.reset();
  }
  {
    Scope s(tr, "core.ks");
    for (std::size_t i = 0; i < runs; ++i) {
      for (std::size_t j = i + 1; j < runs; ++j) {
        (void)stats::ks_two_sample(sinks[i]->summary().reservoir().samples(),
                                   sinks[j]->summary().reservoir().samples());
      }
    }
  }
  tr.close(root);

  tr.count("workloads.instance_rss_mb", instance_rss);
  tr.count("sim.execute_rss_mb", execute_rss);
  tr.count("sim.engine_events", static_cast<double>(engine_events));
  tr.count("ipm.calls_recorded", static_cast<double>(calls));
  tr.count("lustre.writes", static_cast<double>(fs.writes));
  tr.count("lustre.reads", static_cast<double>(fs.reads));
  tr.count("lustre.small_ops", static_cast<double>(fs.small_ops));
  tr.count("lustre.absorbed_frac",
           fs.bytes_written > 0 ? static_cast<double>(fs.bytes_absorbed) /
                                      static_cast<double>(fs.bytes_written)
                                : 0.0);
  tr.write(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// analyze: the layers under `eiotrace analyze`.

monitor::HealthOptions analyze_monitor_options(bool enabled) {
  monitor::HealthOptions o;  // the analyze flag-table defaults
  o.enabled = enabled;
  o.ost_count = 48;
  return o;
}

/// The `eiotrace analyze` KernelSet, built exactly as cmd_analyze builds
/// it with default flags (40 linear bins, 100 rate bins).
auto analyze_factory(double span, bool monitored) {
  analysis::EventFilter base;
  analysis::EventFilter wf = base, rf = base;
  wf.op = posix::OpType::kWrite;
  rf.op = posix::OpType::kRead;
  const monitor::HealthOptions mopt = analyze_monitor_options(monitored);
  return [=](std::size_t chunk) {
    stats::SummaryOptions opts = analysis::chunk_summary_options({}, chunk);
    return analysis::KernelSet(
        analysis::SummarySink(wf, opts), analysis::SummarySink(rf, opts),
        analysis::PhaseSummarySink(base, opts),
        analysis::HistogramKernel(base, {.scale = stats::BinScale::kLinear,
                                         .bins = 40}),
        analysis::RateKernel(base, span, 100), monitor::HealthKernel(mopt, chunk));
  };
}

ipm::ChunkHint analyze_hint(bool monitored) {
  if (monitored) return ipm::ChunkHint{};
  analysis::EventFilter base;
  analysis::EventFilter wf = base, rf = base;
  wf.op = posix::OpType::kWrite;
  rf.op = posix::OpType::kRead;
  return ipm::ChunkHint::union_of(
      ipm::ChunkHint::union_of(analysis::hint_for(wf), analysis::hint_for(rf)),
      analysis::hint_for(base));
}

/// One chunk-parallel scan at `jobs` threads, timed as span `name`.
template <typename Factory>
auto timed_scan(Tracer& tr, const std::string& name,
                const ipm::FileTraceSource& source, std::size_t jobs,
                const ipm::ChunkHint& hint, const Factory& make) {
  Scope s(tr, name);
  std::optional<ipm::ParallelTraceScanner> scanner;
  scanner.emplace(source.path(), source.format(), *source.index(),
                  ipm::ScanOptions{.jobs = jobs});
  return analysis::run_kernels(source, scanner, hint, make);
}

template <typename Set>
std::uint64_t data_events(const Set& set) {
  return set.template get<0>().summary().count() +
         set.template get<1>().summary().count();
}

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::vector<char> ba(1 << 20), bb(1 << 20);
  while (fa && fb) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    if (fa.gcount() != fb.gcount() ||
        !std::equal(ba.begin(), ba.begin() + fa.gcount(), bb.begin())) {
      return false;
    }
  }
  return fa.eof() && fb.eof();
}

int cmd_analyze(const Flags& f) {
  const std::string path = f.str("trace");
  const std::string work = f.str("work");
  const std::size_t jobs = f.num("jobs");
  const bool cli_monitor = f.has("monitor");
  Tracer tr;
  const int root = tr.open("traced");

  std::optional<ipm::FileTraceSource> source;
  {
    Scope s(tr, "ipm.open");
    source.emplace(path);
  }
  if (!source->index() || source->format() != ipm::TraceFormat::kBinaryV3 ||
      source->index()->chunks.empty()) {
    throw std::runtime_error("analyze needs a non-empty v3 trace: " + path);
  }
  const ipm::TraceIndex& index = *source->index();
  const double span = source->time_span();
  const std::uint64_t events = source->event_count();

  // Serial per-chunk pass: decode every chunk (ipm.decode), re-encode
  // it through the v3 writer (ipm.write), and fold/merge it through the
  // analyze KernelSet and a lone HealthKernel exactly as the scanner's
  // in-order merge would (core.fold/core.merge, monitor.fold/
  // monitor.merge).
  std::unique_ptr<ipm::MappedFile> map;
  if (ipm::MappedFile::mmap_supported()) map = std::make_unique<ipm::MappedFile>(path);
  ipm::ChunkReader reader(path, source->format(), map.get());
  const std::string rewrite_path = work + "/rewrite.v3";
  std::ofstream rewrite(rewrite_path, std::ios::binary | std::ios::trunc);
  if (!rewrite) throw std::runtime_error("cannot write " + rewrite_path);
  ipm::TraceWriterV3 writer(rewrite, source->meta().experiment,
                            source->meta().ranks);
  const auto make = analyze_factory(span, false);
  const monitor::HealthOptions mopt = analyze_monitor_options(true);
  std::optional<decltype(make(std::size_t{0}))> acc;
  std::optional<monitor::HealthKernel> health;
  for (std::size_t c = 0; c < index.chunks.size(); ++c) {
    ipm::ColumnBatch batch;
    {
      Scope s(tr, "ipm.decode");
      batch = reader.read_columns(index, c, ipm::kColAll);
    }
    {
      Scope s(tr, "ipm.write");
      for (std::size_t i = 0; i < batch.size(); ++i) writer.add(batch.event_at(i));
    }
    auto part = make(c);
    {
      Scope s(tr, "core.fold");
      part.add_batch(batch);
    }
    if (!acc) {
      acc.emplace(std::move(part));
    } else {
      Scope s(tr, "core.merge");
      acc->merge(std::move(part));
    }
    monitor::HealthKernel hpart(mopt, c);
    {
      Scope s(tr, "monitor.fold");
      hpart.add_batch(batch);
    }
    if (!health) {
      health.emplace(std::move(hpart));
    } else {
      Scope s(tr, "monitor.merge");
      health->merge(std::move(hpart));
    }
  }
  {
    Scope s(tr, "ipm.write");
    writer.finish();
    rewrite.close();
  }
  {
    Scope s(tr, "monitor.finish");
    health->finish();
  }

  // The command's own scan: the fused KernelSet it builds, monitored
  // or not, at one and at N threads.
  const auto command_set = analyze_factory(span, cli_monitor);
  const ipm::ChunkHint hint = analyze_hint(cli_monitor);
  const std::uint64_t data_j1 =
      data_events(timed_scan(tr, "core.scan_j1", *source, 1, hint, command_set));
  const std::uint64_t data_jn =
      data_events(timed_scan(tr, "core.scan_jN", *source, jobs, hint, command_set));
  const auto monitor_only = [&mopt](std::size_t chunk) {
    return analysis::KernelSet(monitor::HealthKernel(mopt, chunk));
  };
  auto scanned_health =
      timed_scan(tr, "monitor.scan_j1", *source, 1, ipm::ChunkHint{}, monitor_only);

  std::ostringstream cli_out, cli_err;
  int cli_rc = 0;
  {
    Scope s(tr, "cli.command");
    std::vector<std::string> args = {"analyze", path, "--json", "--jobs=1"};
    if (cli_monitor) args.emplace_back("--monitor");
    cli_rc = cli::run_eiotrace(args, cli_out, cli_err);
  }
  tr.close(root);

  {
    std::ofstream o(work + "/cli.json", std::ios::binary | std::ios::trunc);
    o << cli_out.str();
  }
  const std::uint64_t slow_ost = f.num("slow-ost");
  std::uint64_t slow_incidents = 0;
  for (const monitor::Incident& inc : health->incidents()) {
    if (inc.kind == monitor::IncidentKind::kDegradedOst && inc.subject == slow_ost) {
      ++slow_incidents;
    }
  }
  const std::uint64_t bytes = std::filesystem::file_size(path);
  tr.count("events", static_cast<double>(events));
  tr.count("data_events_j1", static_cast<double>(data_j1));
  tr.count("data_events_jN", static_cast<double>(data_jn));
  tr.count("data_events_fold", static_cast<double>(data_events(*acc)));
  tr.count("ipm.bytes_per_event",
           events > 0 ? static_cast<double>(bytes) / static_cast<double>(events) : 0.0);
  tr.count("rewrite_identical", files_equal(rewrite_path, path) ? 1.0 : 0.0);
  scanned_health.get<0>().finish();
  tr.count("monitor.incidents", static_cast<double>(health->incidents().size()));
  tr.count("monitor.scan_incidents",
           static_cast<double>(scanned_health.get<0>().incidents().size()));
  tr.count("monitor.slow_ost_incidents", static_cast<double>(slow_incidents));
  tr.count("cli.rc", cli_rc);
  tr.write(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// campaign: `eiotrace campaign` decomposed — manifest expansion, the
// dispatcher at 1 and N workers (real `eiotrace campaign-worker`
// processes), store merge, fleet report — plus every plan executed
// serially in-process as the work baseline.

int cmd_campaign(const Flags& f) {
  const std::string manifest = f.str("manifest");
  const std::string out = f.str("out");
  const std::string exe = f.str("eiotrace");
  const std::size_t workers = f.num("workers");
  Tracer tr;
  const int root = tr.open("traced");

  std::vector<workloads::RunPlan> plans;
  {
    Scope s(tr, "workloads.expand");
    plans = workloads::expand_manifest(manifest);
  }
  std::filesystem::create_directories(out);
  const std::string plans_path = out + "/runs.jsonl";
  {
    Scope s(tr, "workloads.plan_write");
    std::ofstream p(plans_path, std::ios::binary | std::ios::trunc);
    for (const workloads::RunPlan& plan : plans) {
      p << workloads::plan_to_jsonl(plan) << '\n';
    }
    if (!p) throw std::runtime_error("cannot write " + plans_path);
  }

  double spawns = 0, respawns = 0, crashes = 0, timeouts = 0, failed = 0;
  std::map<std::string, std::string> merged_bytes;
  for (const std::size_t n : {std::size_t{1}, workers}) {
    const std::string tag = n == 1 ? "w1" : "wN";
    const std::string dir = out + "/" + tag;
    std::filesystem::create_directories(dir);
    campaign::DispatchOptions opts;
    opts.workers = n;
    opts.worker_exe = exe;
    opts.store_dir = dir;
    opts.worker_args = {"campaign-worker", "--plans", plans_path, "--run-jobs", "1"};
    std::ostringstream log;
    campaign::DispatchResult d;
    {
      Scope s(tr, "campaign.dispatch_" + tag);
      d = campaign::dispatch_runs(plans.size(), opts, log);
    }
    spawns += static_cast<double>(d.spawns);
    respawns += static_cast<double>(d.respawns);
    crashes += static_cast<double>(d.crashes);
    timeouts += static_cast<double>(d.timeouts);
    failed += static_cast<double>(d.failed_runs.size() + d.error_runs.size());
    std::map<std::uint64_t, std::string> records;
    std::ostringstream store;
    {
      Scope s(tr, "campaign.merge");
      records = campaign::merge_store_files(d.store_files);
      campaign::write_merged(store, records);
    }
    std::ostringstream report;
    {
      Scope s(tr, "campaign.report");
      campaign::write_report_json(report, campaign::build_report(records));
    }
    merged_bytes[tag + ".store"] = store.str();
    merged_bytes[tag + ".report"] = report.str();
    if (n == 1) {
      std::ofstream o(out + "/campaign.jsonl", std::ios::binary | std::ios::trunc);
      o << store.str();
      std::ofstream r(out + "/report.json", std::ios::binary | std::ios::trunc);
      r << report.str();
    }
  }

  std::ostringstream serial;
  {
    Scope s(tr, "campaign.run_work");
    for (const workloads::RunPlan& plan : plans) {
      serial << campaign::run_record(plan) << '\n';
    }
  }
  tr.close(root);

  tr.count("runs", static_cast<double>(plans.size()));
  tr.count("campaign.spawns", spawns);
  tr.count("campaign.respawns", respawns);
  tr.count("campaign.crashes", crashes);
  tr.count("campaign.timeouts", timeouts);
  tr.count("campaign.failed_runs", failed);
  tr.count("stores_identical",
           merged_bytes["w1.store"] == merged_bytes["wN.store"] &&
                   merged_bytes["w1.report"] == merged_bytes["wN.report"]
               ? 1.0
               : 0.0);
  tr.count("serial_matches_store", serial.str() == merged_bytes["w1.store"] ? 1.0 : 0.0);
  tr.write(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: e2e_traced spawn|gen-trace|expect|simulate|analyze|"
                 "campaign [--flag value ...]\n";
    return 1;
  }
  const std::string mode = argv[1];
  try {
    if (mode == "spawn") return cmd_spawn(argc, argv);
    const Flags flags(argc, argv);
    if (mode == "gen-trace") return cmd_gen_trace(flags);
    if (mode == "expect") return cmd_expect(flags);
    if (mode == "simulate") return cmd_simulate(flags);
    if (mode == "analyze") return cmd_analyze(flags);
    if (mode == "campaign") return cmd_campaign(flags);
    std::cerr << "e2e_traced: unknown mode '" << mode << "'\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "e2e_traced: " << e.what() << "\n";
    return 2;
  }
}
