// Ensemble-stability study (Section III's reproducibility claim).
//
// Runs the IOR experiment several times with different seeds and
// quantifies how stable the per-event distribution is: pairwise KS
// distances, bootstrap intervals on the moments, and the stability of
// the detected mode locations. This is the quantitative footing for
// "although the I/O rate an individual task observes may vary
// significantly from run to run, the statistical moments and modes of
// the performance distribution are reproducible."
//
// The bench also times a 16-run ensemble serially (--jobs 1) and with
// the parallel runner, and writes BENCH_ensemble.json with both
// throughputs so the speedup is recorded alongside the machine shape.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "core/bootstrap.h"
#include "core/ks.h"
#include "workloads/scenario.h"

using namespace eio;

namespace {

double time_ensemble(const workloads::JobSpec& job, std::size_t runs,
                     std::size_t jobs) {
  auto start = std::chrono::steady_clock::now();
  workloads::ParallelEnsembleRunner runner({.jobs = jobs});
  auto results = runner.run_ensemble(job, runs);
  EIO_CHECK(results.size() == runs);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsFlags obs = bench::obs_flags(argc, argv);
  bench::banner("ensemble_stability — IOR across 5 independent runs",
                "Section III reproducibility claim / Figure 1(c) overlay");

  std::size_t jobs = workloads::resolve_jobs(bench::jobs_flag(argc, argv));

  // The job examples/scenarios/ensemble_stability.json describes,
  // assembled through the same ScenarioBuilder the CLI uses.
  workloads::IorConfig cfg;
  cfg.tasks = 512;  // 5 runs: keep each moderate
  cfg.block_size = 256 * MiB;
  cfg.segments = 3;
  workloads::ScenarioBuilder scenario;
  scenario.machine("franklin").ior(cfg);
  workloads::JobSpec job = scenario.job();
  auto runs = workloads::run_ensemble(job, 5, jobs);

  std::vector<std::vector<double>> samples;
  for (const auto& r : runs) {
    samples.push_back(analysis::durations(
        r.trace, {.op = posix::OpType::kWrite, .min_bytes = MiB}));
  }

  bench::section("per-run summaries (events differ, ensembles agree)");
  std::printf("  %6s %10s %10s %10s %10s %10s\n", "run", "job(s)", "mean(s)",
              "stddev", "median", "max");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    stats::EmpiricalDistribution d(samples[i]);
    std::printf("  %6zu %10.1f %10.2f %10.2f %10.2f %10.2f\n", i,
                runs[i].job_time, d.mean(), d.stddev(), d.median(), d.max());
  }

  bench::section("pairwise two-sample KS distances");
  double worst = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      stats::KsResult ks = stats::ks_two_sample(samples[i], samples[j]);
      worst = std::max(worst, ks.statistic);
      std::printf("  run %zu vs run %zu: D = %.4f (p = %.3f)\n", i, j,
                  ks.statistic, ks.p_value);
    }
  }
  std::printf(
      "  worst pairwise D = %.4f (residual D reflects the scheduler-policy\n"
      "  mixture's finite-sample noise at this node count; at the paper's\n"
      "  1024-task scale fig1_ior_modes measures D = 0.02, p = 0.25)\n",
      worst);

  bench::section("bootstrap intervals on run-0 moments (95%)");
  auto mean_stat = [](std::span<const double> s) {
    return stats::compute_moments(s).mean;
  };
  auto sd_stat = [](std::span<const double> s) {
    return stats::compute_moments(s).stddev;
  };
  stats::Interval mean_iv = stats::bootstrap_interval(samples[0], mean_stat);
  stats::Interval sd_iv = stats::bootstrap_interval(samples[0], sd_stat);
  std::printf("  mean   %.2f s  [%.2f, %.2f]\n", mean_iv.point, mean_iv.lo,
              mean_iv.hi);
  std::printf("  stddev %.2f s  [%.2f, %.2f]\n", sd_iv.point, sd_iv.lo, sd_iv.hi);
  int mean_inside = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (mean_iv.contains(stats::compute_moments(samples[i]).mean)) ++mean_inside;
  }
  std::printf("  other runs' means inside run-0 interval: %d / %zu\n",
              mean_inside, samples.size() - 1);

  bench::section("mode-location stability");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto modes = stats::find_modes(samples[i], {.bandwidth_scale = 0.45});
    std::printf("  run %zu modes:", i);
    for (const auto& m : modes) std::printf("  %.1fs (%.0f%%)", m.location,
                                            m.mass * 100.0);
    std::printf("\n");
  }

  bench::section("serial vs parallel ensemble throughput (16 runs)");
  const std::size_t bench_runs = 16;
  workloads::IorConfig small = cfg;
  small.tasks = 128;  // 16 runs: keep the wall-clock budget sane
  small.segments = 2;
  workloads::JobSpec bench_job =
      workloads::ScenarioBuilder().machine("franklin").ior(small).job();
  double serial_s = time_ensemble(bench_job, bench_runs, 1);
  double parallel_s = time_ensemble(bench_job, bench_runs, jobs);
  double serial_rps = static_cast<double>(bench_runs) / serial_s;
  double parallel_rps = static_cast<double>(bench_runs) / parallel_s;
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("  serial   (--jobs 1):  %6.2f s  (%.2f runs/s)\n", serial_s,
              serial_rps);
  std::printf("  parallel (--jobs %zu): %6.2f s  (%.2f runs/s)\n", jobs,
              parallel_s, parallel_rps);
  // The speedup figure is only honest when the host can actually run
  // that many workers at once; with scarce cores the claim is skipped
  // from the printed table entirely, not printed-then-disclaimed.
  const bool meaningful = !bench::cores_scarce(jobs);
  if (meaningful) {
    std::printf("  speedup x%.2f on %u hardware threads\n",
                serial_s / parallel_s, hw);
  } else {
    std::printf("  [cores scarce: %zu jobs on %u hardware threads — the "
                "parallel timing measures oversubscription, no speedup "
                "claimed]\n",
                jobs, hw);
  }

  bench::write_bench_json(
      "BENCH_ensemble.json", "ensemble_stability", [&](json::Writer& w) {
        w.kv("runs", bench_runs)
            .kv("tasks_per_run", small.tasks)
            .kv("serial_seconds", serial_s)
            .kv("parallel_seconds", parallel_s)
            .kv("serial_runs_per_sec", serial_rps)
            .kv("parallel_runs_per_sec", parallel_rps)
            .kv("speedup", serial_s / parallel_s)
            .kv("jobs", jobs)
            .kv("hardware_concurrency", hw)
            .kv("speedup_meaningful", meaningful);
        bench::write_scaling_note(w, jobs);
        w.kv("worst_pairwise_ks", worst);
      });
  bench::finish_obs(obs);
  return 0;
}
