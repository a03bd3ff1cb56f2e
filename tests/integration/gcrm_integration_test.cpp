// Integration tests: the GCRM optimization ladder of Figure 6 at
// reduced scale (1,280 tasks, 20 aggregators).
//
// Contention parameters are rescaled so the baseline's
// many-writers penalty appears at 1,280 writers the way it does at
// 10,240 on the real machine — the mechanism under test is identical.
#include <gtest/gtest.h>

#include <map>

#include "common/units.h"
#include "core/distribution.h"
#include "core/samples.h"
#include "monitor/diagnose.h"
#include "workloads/gcrm.h"

namespace eio::workloads {
namespace {

lustre::MachineConfig reduced_machine() {
  lustre::MachineConfig m = lustre::MachineConfig::franklin();
  // Rescale the contention model from 10,240-writer scale to
  // 1,280-writer scale: the baseline must feel the many-writers
  // penalty at ~66 clients/OST the way the real machine does at ~500.
  m.contention = {.alpha = 0.4, .knee = 16};
  return m;
}

GcrmConfig reduce(GcrmConfig cfg) {
  cfg.tasks = 1280;
  cfg.io_tasks = 20;
  cfg.btree_fanout = 24;
  // Scale the per-record HDF5 cost down with the aggregator group size
  // (64 records per aggregator call batch instead of 128).
  cfg.h5_overhead_per_write = ms(4.0);
  return cfg;
}

RunResult run_config(const GcrmConfig& cfg) {
  return run_job(make_gcrm_job(reduced_machine(), reduce(cfg)));
}

struct Ladder {
  RunResult baseline = run_config(GcrmConfig::baseline());
  RunResult cb = run_config(GcrmConfig::with_collective_buffering());
  RunResult aligned = run_config(GcrmConfig::with_alignment());
  RunResult aggmeta = run_config(GcrmConfig::fully_optimized());
};

const Ladder& ladder() {
  static Ladder instance;
  return instance;
}

TEST(GcrmIntegrationTest, OptimizationLadderOrdersCorrectly) {
  const Ladder& l = ladder();
  // 310 > 190 > 150 > 75 in the paper; we require strict ordering.
  EXPECT_GT(l.baseline.job_time, l.cb.job_time);
  EXPECT_GT(l.cb.job_time, l.aligned.job_time);
  EXPECT_GT(l.aligned.job_time, l.aggmeta.job_time);
}

TEST(GcrmIntegrationTest, TotalSpeedupAtLeastPaperMagnitude) {
  const Ladder& l = ladder();
  // Paper: 310/75 > 4x. Require > 3x at reduced scale.
  EXPECT_GT(l.baseline.job_time / l.aggmeta.job_time, 3.0);
}

TEST(GcrmIntegrationTest, CollectiveBufferingStepMatchesPaperFactor) {
  const Ladder& l = ladder();
  double speedup = l.baseline.job_time / l.cb.job_time;
  // Paper: 1.6x. Accept 1.2-2.5x.
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 2.5);
}

TEST(GcrmIntegrationTest, BaselinePerTaskRatesBelowFairShare) {
  // Figure 6c: per-task data rates peak well below the 1.6 MB/s fair
  // share in the baseline.
  const Ladder& l = ladder();
  auto rates = analysis::rates_mib(l.baseline.trace,
                                   {.op = posix::OpType::kWrite,
                                    .min_bytes = MiB});
  double fair_mib = fair_share_rate(reduced_machine(), 1280) /
                    static_cast<double>(MiB);
  stats::EmpiricalDistribution d(std::move(rates));
  EXPECT_LT(d.median(), 0.8 * fair_mib);
}

TEST(GcrmIntegrationTest, AggregatorRatesFarAboveBaseline) {
  // Figure 6f: the 80-task configuration's per-task peak is ~100 MB/s
  // versus sub-MB/s in the baseline.
  const Ladder& l = ladder();
  auto base = analysis::rates_mib(l.baseline.trace,
                                  {.op = posix::OpType::kWrite, .min_bytes = MiB});
  auto cb = analysis::rates_mib(l.cb.trace,
                                {.op = posix::OpType::kWrite, .min_bytes = MiB});
  double base_med = stats::EmpiricalDistribution(std::move(base)).median();
  double cb_med = stats::EmpiricalDistribution(std::move(cb)).median();
  EXPECT_GT(cb_med, 10.0 * base_med);
}

TEST(GcrmIntegrationTest, AlignmentRemovesSubFairShareBulge) {
  // Figure 6h/i: after alignment the distribution tightens around its
  // peak — the slow bulge disappears.
  const Ladder& l = ladder();
  auto cb = analysis::rates_mib(l.cb.trace,
                                {.op = posix::OpType::kWrite, .min_bytes = MiB});
  auto aligned = analysis::rates_mib(l.aligned.trace,
                                     {.op = posix::OpType::kWrite,
                                      .min_bytes = MiB});
  stats::EmpiricalDistribution dcb(std::move(cb));
  stats::EmpiricalDistribution dal(std::move(aligned));
  // Aligned writes are much faster at the median...
  EXPECT_GT(dal.median(), 1.5 * dcb.median());
  // ...and the slow bulge loses mass: no more events run below half
  // the unaligned configuration's median rate than before.
  double slow_threshold = 0.5 * dcb.median();
  EXPECT_LE(dal.cdf(slow_threshold), dcb.cdf(slow_threshold) + 0.01);
}

TEST(GcrmIntegrationTest, MetadataDominatesAlignedConfig) {
  // Figure 6g: "the total run time was dominated by the serialized
  // metadata operations on task 0."
  const Ladder& l = ladder();
  double meta_time = 0.0;
  for (const auto& e : l.aligned.trace.events()) {
    if (e.rank == 0 && e.bytes > 0 && e.bytes < 64 * KiB &&
        (e.op == posix::OpType::kWrite || e.op == posix::OpType::kRead)) {
      meta_time += e.duration;
    }
  }
  EXPECT_GT(meta_time, 0.4 * l.aligned.job_time);
}

TEST(GcrmIntegrationTest, AggregatedMetadataRemovesSmallOps) {
  const Ladder& l = ladder();
  std::size_t small_before = 0, small_after = 0;
  for (const auto& e : l.aligned.trace.events()) {
    if (e.bytes > 0 && e.bytes < 64 * KiB && e.op == posix::OpType::kWrite) {
      ++small_before;
    }
  }
  for (const auto& e : l.aggmeta.trace.events()) {
    if (e.bytes > 0 && e.bytes < 64 * KiB && e.op == posix::OpType::kWrite) {
      ++small_after;
    }
  }
  EXPECT_GT(small_before, 1000u);
  EXPECT_EQ(small_after, 0u);  // one 1 MiB write replaces them all
}

TEST(GcrmIntegrationTest, DiagnoserGuidesTheOptimizations) {
  const Ladder& l = ladder();
  analysis::DiagnoserOptions opt;
  opt.fair_share_rate = fair_share_rate(reduced_machine(), 1280);
  auto findings =
      analysis::diagnose(ipm::MemoryTraceSource(l.baseline.trace), opt);
  bool meta = false, align = false;
  for (const auto& f : findings) {
    if (f.code == analysis::FindingCode::kMetadataSerialization) meta = true;
    if (f.code == analysis::FindingCode::kSubFairShare) align = true;
  }
  EXPECT_TRUE(meta) << "diagnoser missed rank-0 metadata serialization";
  EXPECT_TRUE(align) << "diagnoser missed the unaligned sub-fair-share bulge";
  // The fully optimized run is clean of both.
  for (const auto& f :
       analysis::diagnose(ipm::MemoryTraceSource(l.aggmeta.trace), opt)) {
    EXPECT_NE(f.code, analysis::FindingCode::kMetadataSerialization);
    EXPECT_NE(f.code, analysis::FindingCode::kSubFairShare);
  }
}

/// Total bytes of sub-64KiB writes (the metadata stream).
Bytes meta_bytes_of(const RunResult& r) {
  Bytes total = 0;
  for (const auto& e : r.trace.events()) {
    if (e.op == posix::OpType::kWrite && e.bytes < 64 * KiB) total += e.bytes;
  }
  return total;
}

TEST(GcrmIntegrationTest, DataVolumeConservedAcrossConfigs) {
  const Ladder& l = ladder();
  // Baseline and CB write identical payloads (aligned pads by 2/1.5625).
  EXPECT_EQ(l.baseline.fs_stats.bytes_written - meta_bytes_of(l.baseline),
            l.cb.fs_stats.bytes_written - meta_bytes_of(l.cb));
}

}  // namespace
}  // namespace eio::workloads
