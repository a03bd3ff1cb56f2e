// madbench_study — the paper's Section IV detective story, replayed.
//
// Runs the MADbench I/O kernel on the buggy Franklin model, walks the
// same analysis chain the authors used (aggregate rates look weird ->
// per-phase ensembles -> progressive deterioration -> middleware
// suspect), applies the "Lustre patch" (a one-field machine change),
// and verifies the fix. Also demonstrates saving the trace for offline
// analysis and re-loading it.
//
// Build & run:  ./build/examples/madbench_study
#include <cstdio>

#include "core/distribution.h"
#include "core/samples.h"
#include "ipm/trace.h"
#include "monitor/diagnose.h"
#include "workloads/madbench.h"

using namespace eio;

namespace {

workloads::MadbenchConfig small_config() {
  workloads::MadbenchConfig cfg;
  cfg.tasks = 64;
  cfg.matrix_bytes = 64 * MiB + 64 * KiB;
  return cfg;
}

lustre::MachineConfig scaled(lustre::MachineConfig m) {
  // Memory-pressure time constants scale with the smaller matrices.
  m.interleave_pressure_window = 3.0;
  m.dirty_residue_ttl = 3.0;
  return m;
}

}  // namespace

int main() {
  workloads::MadbenchConfig cfg = small_config();

  std::printf("step 1 — run MADbench on Franklin and trace it with IPM-I/O\n");
  workloads::RunResult before = workloads::run_job(
      workloads::make_madbench_job(scaled(lustre::MachineConfig::franklin()), cfg));
  std::printf("  job time %.0f s — users are complaining\n\n", before.job_time);

  std::printf("step 2 — events are noisy; look at per-phase read ensembles\n");
  std::printf("  %8s %12s %12s %12s\n", "read #", "median (s)", "p95 (s)",
              "max (s)");
  for (std::uint32_t i = 1; i <= cfg.matrices; ++i) {
    auto reads = analysis::durations(
        before.trace, {.op = posix::OpType::kRead,
                       .phase = workloads::MadbenchConfig::middle_phase(i),
                       .min_bytes = MiB});
    stats::EmpiricalDistribution d(std::move(reads));
    std::printf("  %8u %12.1f %12.1f %12.1f\n", i, d.median(), d.quantile(0.95),
                d.max());
  }
  std::printf("  -> slow reads confined to reads 4-8 and getting worse:\n"
              "     something *stateful* in the stack compounds per phase.\n\n");

  std::printf("step 3 — the diagnoser agrees\n");
  for (const auto& f :
       analysis::diagnose(ipm::MemoryTraceSource(before.trace))) {
    std::printf("  [%s] %s\n", analysis::finding_name(f.code), f.message.c_str());
  }

  std::printf("\nstep 4 — archive the trace for the file-system team\n");
  std::string path = "/tmp/madbench_franklin.ipm.tsv";
  before.trace.save(path);
  ipm::Trace reloaded = ipm::Trace::load(path);
  std::printf("  saved %zu events to %s and reloaded %zu — bit-identical "
              "analysis offline\n\n",
              before.trace.size(), path.c_str(), reloaded.size());

  std::printf("step 5 — apply the Lustre patch (strided read-ahead detection "
              "removed)\n");
  workloads::RunResult after = workloads::run_job(workloads::make_madbench_job(
      scaled(lustre::MachineConfig::franklin_patched()), cfg));
  std::printf("  job time %.0f s -> %.0f s: %.1fx improvement "
              "(paper: 4.2x at full scale)\n",
              before.job_time, after.job_time, before.job_time / after.job_time);
  std::printf("  degraded reads: %llu -> %llu\n",
              static_cast<unsigned long long>(before.fs_stats.degraded_reads),
              static_cast<unsigned long long>(after.fs_stats.degraded_reads));
  return 0;
}
