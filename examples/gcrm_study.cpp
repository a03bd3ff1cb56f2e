// gcrm_study — walking the Section V optimization ladder, guided by
// the ensemble diagnostics at each step (at 1/8 of the paper's task
// count so it runs in seconds).
//
// Build & run:  ./build/examples/gcrm_study
#include <cstdio>

#include "core/distribution.h"
#include "core/samples.h"
#include "monitor/diagnose.h"
#include "workloads/gcrm.h"

using namespace eio;

namespace {

lustre::MachineConfig machine() {
  lustre::MachineConfig m = lustre::MachineConfig::franklin();
  // Contention rescaled to bite at 1,280 writers as it does at 10,240.
  m.contention = {.alpha = 0.4, .knee = 16};
  return m;
}

workloads::GcrmConfig scale_down(workloads::GcrmConfig cfg) {
  cfg.tasks = 1280;
  cfg.io_tasks = 20;
  cfg.btree_fanout = 24;
  cfg.h5_overhead_per_write = ms(4.0);
  return cfg;
}

workloads::RunResult run(const workloads::GcrmConfig& cfg) {
  return workloads::run_job(workloads::make_gcrm_job(machine(), scale_down(cfg)));
}

void report(const workloads::RunResult& r, const char* label) {
  auto rates = analysis::rates_mib(r.trace, {.op = posix::OpType::kWrite,
                                             .min_bytes = MiB});
  stats::EmpiricalDistribution d(std::move(rates));
  std::printf("  %-34s %7.1f s   per-task data rate: median %7.2f MiB/s, "
              "worst %6.2f\n",
              label, r.job_time, d.median(), d.min());
}

}  // namespace

int main() {
  std::printf("GCRM I/O kernel: 1,280 tasks, 21 records x 1.6 MB each, one "
              "shared HDF5 file\n\n");

  workloads::RunResult baseline = run(workloads::GcrmConfig::baseline());
  report(baseline, "baseline");

  analysis::DiagnoserOptions opt;
  opt.fair_share_rate = workloads::fair_share_rate(machine(), 1280);
  std::printf("\n  what the ensemble view says about the baseline:\n");
  for (const auto& f :
       analysis::diagnose(ipm::MemoryTraceSource(baseline.trace), opt)) {
    std::printf("    [%s] %s\n", analysis::finding_name(f.code),
                f.message.c_str());
  }

  std::printf("\n  fix 1: collective buffering — gather to 20 I/O tasks "
              "(LLN + fewer clients)\n");
  workloads::RunResult cb = run(workloads::GcrmConfig::with_collective_buffering());
  report(cb, "collective buffering");

  std::printf("\n  fix 2: pad and align records to the 1 MiB stripe\n");
  workloads::RunResult aligned = run(workloads::GcrmConfig::with_alignment());
  report(aligned, "+ alignment");

  std::printf("\n  fix 3: buffer metadata, write once at close\n");
  workloads::RunResult agg = run(workloads::GcrmConfig::fully_optimized());
  report(agg, "+ aggregated metadata");

  std::printf("\n  ladder: %.0f -> %.0f -> %.0f -> %.0f seconds "
              "(%.1fx total; paper: 310 -> 190 -> 150 -> 75, >4x)\n",
              baseline.job_time, cb.job_time, aligned.job_time, agg.job_time,
              baseline.job_time / agg.job_time);

  std::printf("\n  residual findings on the optimized configuration:\n");
  auto findings = analysis::diagnose(ipm::MemoryTraceSource(agg.trace), opt);
  if (findings.empty()) {
    std::printf("    none — the ladder closed every diagnosed issue\n");
  }
  for (const auto& f : findings) {
    std::printf("    [%s] %s\n", analysis::finding_name(f.code),
                f.message.c_str());
  }
  return 0;
}
