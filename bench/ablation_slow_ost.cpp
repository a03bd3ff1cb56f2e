// Ablation: fault injection — one degraded OST.
//
// A classic production pathology the ensemble method pinpoints: a
// single OST running at a fraction of its rated bandwidth (failing
// disk, RAID rebuild). Event-level averages barely move, but the
// write-time distribution grows a separated slow mode whose position
// measures the degradation — and whose mass measures the blast radius
// (the fraction of files striped onto the bad OST). The degraded case
// is examples/scenarios/slow_ost.json scaled up: the same fault plan
// driven through workloads::ScenarioBuilder, then handed to the
// diagnose detectors, which must name the injected OST from the
// ensemble alone.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/histogram.h"
#include "fault/plan.h"
#include "monitor/diagnose.h"
#include "workloads/scenario.h"

using namespace eio;

namespace {

constexpr std::uint32_t kBadOst = 5;
constexpr double kFactor = 0.25;

/// 256 single-stripe private files, three 64 MiB writes each; OST 5
/// runs at `kFactor` of its rated bandwidth when `degraded` is set.
workloads::RunResult run_case(bool degraded) {
  workloads::IorConfig cfg;
  cfg.tasks = 256;
  cfg.block_size = 64 * MiB;
  cfg.segments = 3;
  cfg.file_per_process = true;
  cfg.fpp_stripe_count = 1;

  workloads::ScenarioBuilder scenario;
  scenario.name(degraded ? "slow-ost" : "healthy").machine("franklin").ior(cfg);
  if (degraded) {
    fault::Plan plan;
    plan.slow_osts.push_back({.ost = kBadOst, .factor = kFactor});
    scenario.faults(plan);
  }
  return workloads::run_job(scenario.job());
}

}  // namespace

int main() {
  bench::banner("ablation_slow_ost — one OST at 25% capacity",
                "fault-injection study (DESIGN.md §5f)");

  workloads::RunResult healthy = run_case(false);
  workloads::RunResult degraded = run_case(true);
  auto hw = analysis::durations(healthy.trace, {.op = posix::OpType::kWrite,
                                                .min_bytes = MiB});
  auto dw = analysis::durations(degraded.trace, {.op = posix::OpType::kWrite,
                                                 .min_bytes = MiB});

  bench::section("job times");
  std::printf("  healthy %.1f s, degraded %.1f s — every barrier waits for "
              "the bad OST's files\n",
              healthy.job_time, degraded.job_time);
  std::printf("  injected: %llu OST degradation window(s) on OST %u\n",
              static_cast<unsigned long long>(
                  degraded.fault_counts.ost_degradations),
              kBadOst);

  bench::section("write-duration distributions");
  stats::Histogram hd =
      stats::Histogram::from_samples(dw, stats::BinScale::kLog10, 40);
  stats::Histogram hh(stats::BinScale::kLog10, hd.lo(), hd.hi(), 40);
  hh.add_all(hw);
  std::vector<const stats::Histogram*> hs{&hh, &hd};
  std::vector<std::string> names{"healthy", "slow OST"};
  std::printf("%s", analysis::render_histograms(
                        hs, names, {.width = 84, .height = 12, .log_y = true,
                                    .x_label = "seconds (log)"})
                        .c_str());

  auto modes = stats::find_modes(dw, {.log_axis = true});
  bench::print_modes(modes, "s");

  stats::Moments mh = stats::compute_moments(hw);
  stats::Moments md = stats::compute_moments(dw);
  double slow_mass = 0.0, slow_loc = 0.0;
  for (const auto& m : modes) {
    if (m.location > slow_loc) {
      slow_loc = m.location;
      slow_mass = m.mass;
    }
  }
  std::printf(
      "\n  the mean moves only %.2fx — easy to shrug off. The ensemble view\n"
      "  shows a separated mode at %.1f s (%.1fx the healthy mean) holding\n"
      "  %.0f%% of events: one OST in %u (%.0f%% of files) is sick.\n",
      md.mean / mh.mean, slow_loc, slow_loc / mh.mean, slow_mass * 100.0,
      lustre::MachineConfig::franklin().ost_count,
      100.0 / lustre::MachineConfig::franklin().ost_count);

  bench::section("automatic diagnosis (eiotrace diagnose --ost-count)");
  analysis::DiagnoserOptions opt;
  opt.ost_count = lustre::MachineConfig::franklin().ost_count;
  for (bool bad : {false, true}) {
    const auto& trace = bad ? degraded.trace : healthy.trace;
    auto findings = analysis::diagnose(ipm::MemoryTraceSource(trace), opt);
    std::printf("  %-8s:", bad ? "degraded" : "healthy");
    bool any = false;
    for (const auto& f : findings) {
      if (f.code != analysis::FindingCode::kDegradedOst) continue;
      std::printf(" [%s sev %.2f]\n            %s\n",
                  analysis::finding_name(f.code), f.severity,
                  f.message.c_str());
      any = true;
    }
    if (!any) std::printf(" no degraded-ost finding (as it should be)\n");
  }
  std::printf("  the detector recovers OST %u from the trace alone — no\n"
              "  knowledge of the injected plan.\n",
              kBadOst);
  return 0;
}
