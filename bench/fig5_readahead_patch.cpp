// Figure 5 reproduction: MADbench on Franklin before and after the
// Lustre patch that removed strided read-ahead detection.
//
//   (a) per-phase completion curves F_4..F_8 deteriorating;
//   (b) read histogram before vs after the patch;
//   (c) the trace after the patch (2200 s -> 520 s, > 4.2x).
#include <cstdio>

#include "bench_common.h"
#include "core/histogram.h"
#include "core/patterns.h"
#include "monitor/diagnose.h"
#include "workloads/madbench.h"

using namespace eio;

int main(int argc, char** argv) {
  bench::banner("fig5_readahead_patch — MADbench before/after Lustre patch",
                "Figure 5(a-c), Section IV-C");

  std::size_t jobs = bench::jobs_flag(argc, argv);
  workloads::MadbenchConfig cfg;
  workloads::MadbenchConfig coll = cfg;
  coll.collective_io = true;
  std::vector<workloads::RunResult> results = workloads::run_jobs(
      {workloads::make_madbench_job(lustre::MachineConfig::franklin(), cfg),
       workloads::make_madbench_job(lustre::MachineConfig::franklin_patched(),
                                    cfg),
       workloads::make_madbench_job(lustre::MachineConfig::franklin(), coll)},
      jobs);
  workloads::RunResult& before = results[0];
  workloads::RunResult& after = results[1];
  workloads::RunResult& collective = results[2];

  bench::section("(a) middle-phase read completion curves F_p, p = 4..8");
  std::vector<analysis::Series> curves;
  for (std::uint32_t i = 4; i <= 8; ++i) {
    analysis::ProgressCurve c = analysis::completion_curve(
        before.trace, {.op = posix::OpType::kRead,
                       .phase = workloads::MadbenchConfig::middle_phase(i),
                       .min_bytes = MiB});
    analysis::Series s;
    s.name = "read" + std::to_string(i);
    s.x = c.t;
    s.y = c.fraction;
    curves.push_back(std::move(s));
  }
  std::printf("%s", analysis::render_lines(
                        curves, {.width = 84, .height = 14,
                                 .x_label = "seconds into phase",
                                 .y_label = "fraction of reads complete"})
                        .c_str());

  bench::section("(b) read histogram before vs after the patch");
  auto reads_before = analysis::durations(
      before.trace, {.op = posix::OpType::kRead, .min_bytes = MiB});
  auto reads_after = analysis::durations(
      after.trace, {.op = posix::OpType::kRead, .min_bytes = MiB});
  stats::Histogram hb(stats::BinScale::kLog10, 0.5, 1000.0, 44);
  stats::Histogram ha(stats::BinScale::kLog10, 0.5, 1000.0, 44);
  hb.add_all(reads_before);
  ha.add_all(reads_after);
  std::vector<const stats::Histogram*> hs{&hb, &ha};
  std::vector<std::string> names{"before", "after"};
  std::printf("%s", analysis::render_histograms(
                        hs, names, {.width = 84, .height = 12, .log_y = true,
                                    .x_label = "seconds (log)",
                                    .y_label = "count (log)"})
                        .c_str());

  bench::section("(c) trace after the patch");
  bench::print_trace_diagram(after);

  bench::section("automatic diagnosis (the ensemble method at work)");
  for (const auto& f :
       analysis::diagnose(ipm::MemoryTraceSource(before.trace))) {
    std::printf("  [%-22s sev %.2f] %s\n", analysis::finding_name(f.code),
                f.severity, f.message.c_str());
  }
  std::printf("  findings after the patch: %zu\n",
              analysis::diagnose(ipm::MemoryTraceSource(after.trace)).size());

  bench::section("detected access patterns (the future-work direction)");
  auto patterns = analysis::detect_patterns(before.trace);
  std::size_t strided_reads = 0;
  for (const auto& p : patterns) {
    if (p.op == posix::OpType::kRead &&
        p.pattern == analysis::AccessPattern::kStrided) {
      ++strided_reads;
    }
  }
  std::printf("  %zu streams detected; %zu are strided read streams\n",
              patterns.size(), strided_reads);
  for (const auto& h : analysis::derive_hints(patterns)) {
    std::printf("  hint for file %llu (%s): prefetch %llu KiB — %s\n",
                static_cast<unsigned long long>(h.file), posix::op_name(h.op),
                static_cast<unsigned long long>(h.prefetch_bytes / 1024),
                h.rationale.c_str());
  }
  std::printf("  (a bounded, pattern-derived window is exactly what the "
              "buggy heuristic lacked)\n");

  bench::section("the MPI-IO alternative: collective I/O dodges the bug");
  std::printf("  unpatched Franklin, two-phase collectives: job %.0f s, "
              "%llu degraded reads\n  (aggregators stream sequentially; the "
              "strided detector never reaches its trigger)\n",
              collective.job_time,
              static_cast<unsigned long long>(collective.fs_stats.degraded_reads));

  bench::section("paper vs measured");
  bench::compare_row("job time before patch", 2200.0, before.job_time, "s");
  bench::compare_row("job time after patch", 520.0, after.job_time, "s");
  bench::compare_row("speedup from patch", 4.2,
                     before.job_time / after.job_time, "x");

  bench::print_summary(before);
  bench::print_summary(after);

  analysis::CsvWriter csv;
  std::vector<double> phase, median;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    auto r = analysis::durations(
        before.trace, {.op = posix::OpType::kRead,
                       .phase = workloads::MadbenchConfig::middle_phase(i),
                       .min_bytes = MiB});
    phase.push_back(i);
    median.push_back(stats::EmpiricalDistribution(std::move(r)).median());
  }
  csv.column("read_phase", phase).column("median_s", median);
  bench::maybe_save_csv("fig5a_read_medians", csv);
  return 0;
}
