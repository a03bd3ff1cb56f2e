// Integration tests: the MADbench read-ahead pathology of Figures 4-5
// at reduced scale (64 tasks, 64 MiB matrices).
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "core/distribution.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "monitor/diagnose.h"
#include "workloads/madbench.h"

namespace eio::workloads {
namespace {

MadbenchConfig reduced_madbench() {
  MadbenchConfig cfg;
  cfg.tasks = 64;
  cfg.matrix_bytes = 64 * MiB + 64 * KiB;  // keeps the alignment gap
  return cfg;
}

/// Rescale the machine's memory-pressure time constants to the smaller
/// matrices (64 MiB reads take ~1 s instead of ~20 s, so the dirty
/// writeback persistence window shrinks proportionally).
lustre::MachineConfig reduced(lustre::MachineConfig machine) {
  machine.interleave_pressure_window = 3.0;
  machine.dirty_residue_ttl = 3.0;
  return machine;
}

RunResult run_madbench(const lustre::MachineConfig& machine) {
  return run_job(make_madbench_job(reduced(machine), reduced_madbench()));
}

double middle_read_median(const RunResult& result, std::uint32_t i) {
  auto reads = analysis::durations(
      result.trace, {.op = posix::OpType::kRead,
                     .phase = MadbenchConfig::middle_phase(i),
                     .min_bytes = MiB});
  return stats::EmpiricalDistribution(std::move(reads)).median();
}

TEST(MadbenchIntegrationTest, ReadsFourThroughEightDegradeProgressively) {
  RunResult result = run_madbench(lustre::MachineConfig::franklin());
  std::vector<double> medians;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    medians.push_back(middle_read_median(result, i));
  }
  // Reads 1-3 are normal and similar.
  EXPECT_NEAR(medians[1], medians[0], 0.5 * medians[0]);
  EXPECT_NEAR(medians[2], medians[0], 0.5 * medians[0]);
  // Read 4 trips the defect: much slower than read 3.
  EXPECT_GT(medians[3], 2.5 * medians[2]);
  // And reads 4..8 get progressively worse (Figure 5a) — allow small
  // sampling noise between adjacent phases, but the trend must hold.
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_GT(medians[i], 0.85 * medians[i - 1]) << "read " << i + 1;
  }
  EXPECT_GT(medians[7], 1.8 * medians[3]);
  EXPECT_GT(result.fs_stats.degraded_reads, 64u);
}

TEST(MadbenchIntegrationTest, FinalPhaseReadsAreClean) {
  // "The later reads did not suffer this effect because system memory
  // was not being filled with interleaved writes."
  RunResult result = run_madbench(lustre::MachineConfig::franklin());
  double normal = middle_read_median(result, 1);
  for (std::uint32_t i = 4; i <= 8; ++i) {
    auto reads = analysis::durations(
        result.trace, {.op = posix::OpType::kRead,
                       .phase = MadbenchConfig::final_phase(i),
                       .min_bytes = MiB});
    double median = stats::EmpiricalDistribution(std::move(reads)).median();
    EXPECT_LT(median, 2.0 * normal) << "final read " << i;
  }
}

TEST(MadbenchIntegrationTest, PatchRemovesTheDefect) {
  RunResult buggy = run_madbench(lustre::MachineConfig::franklin());
  RunResult patched = run_madbench(lustre::MachineConfig::franklin_patched());
  EXPECT_EQ(patched.fs_stats.degraded_reads, 0u);
  // Flat middle-phase medians after the patch.
  double r1 = middle_read_median(patched, 1);
  for (std::uint32_t i = 2; i <= 8; ++i) {
    EXPECT_NEAR(middle_read_median(patched, i), r1, 0.5 * r1);
  }
  // The paper's 4.2x end-to-end improvement; we require > 2.5x at this
  // reduced scale.
  EXPECT_GT(buggy.job_time, 2.5 * patched.job_time);
}

TEST(MadbenchIntegrationTest, WritesSimilarAcrossPlatforms) {
  // Figure 4c/f: "the two write distributions display similar
  // performance characteristics, while the read distributions show a
  // markedly different pattern."
  RunResult franklin = run_madbench(lustre::MachineConfig::franklin());
  RunResult jaguar = run_madbench(lustre::MachineConfig::jaguar());
  // Compare generate-phase writes: middle-phase writes on Franklin
  // queue behind their node's degraded reads, which is the read
  // pathology leaking into write wait time, not a write-path change.
  std::vector<double> fw, jw;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    auto f = analysis::durations(
        franklin.trace, {.op = posix::OpType::kWrite,
                         .phase = MadbenchConfig::generate_phase(i),
                         .min_bytes = MiB});
    auto j = analysis::durations(
        jaguar.trace, {.op = posix::OpType::kWrite,
                       .phase = MadbenchConfig::generate_phase(i),
                       .min_bytes = MiB});
    fw.insert(fw.end(), f.begin(), f.end());
    jw.insert(jw.end(), j.begin(), j.end());
  }
  auto fr = analysis::durations(franklin.trace, {.op = posix::OpType::kRead,
                                                 .min_bytes = MiB});
  auto jr = analysis::durations(jaguar.trace, {.op = posix::OpType::kRead,
                                               .min_bytes = MiB});
  stats::Moments mfw = stats::compute_moments(fw);
  stats::Moments mjw = stats::compute_moments(jw);
  stats::Moments mfr = stats::compute_moments(fr);
  stats::Moments mjr = stats::compute_moments(jr);
  // Write means within ~2x of each other; read means wildly apart.
  EXPECT_LT(mfw.mean / mjw.mean, 2.5);
  EXPECT_GT(mfr.mean / mjr.mean, 4.0);
}

TEST(MadbenchIntegrationTest, JaguarShowsNoAnomaly) {
  RunResult jaguar = run_madbench(lustre::MachineConfig::jaguar());
  EXPECT_EQ(jaguar.fs_stats.degraded_reads, 0u);
  double r1 = middle_read_median(jaguar, 1);
  for (std::uint32_t i = 2; i <= 8; ++i) {
    EXPECT_NEAR(middle_read_median(jaguar, i), r1, 0.6 * r1);
  }
}

TEST(MadbenchIntegrationTest, FranklinReadTailSpansDecades) {
  // Figure 4c: the slowest reads run 30-500 s against a ~15 s mode —
  // a decade-plus of spread, visible only on a log axis.
  RunResult result = run_madbench(lustre::MachineConfig::franklin());
  auto reads = analysis::durations(result.trace, {.op = posix::OpType::kRead,
                                                  .min_bytes = MiB});
  stats::EmpiricalDistribution d(std::move(reads));
  EXPECT_GT(d.max() / d.median(), 8.0);
}

TEST(MadbenchIntegrationTest, DiagnoserFindsTheProblem) {
  RunResult result = run_madbench(lustre::MachineConfig::franklin());
  auto findings = analysis::diagnose(ipm::MemoryTraceSource(result.trace));
  bool deterioration = false, tail = false;
  for (const auto& f : findings) {
    if (f.code == analysis::FindingCode::kReadDeterioration) deterioration = true;
    if (f.code == analysis::FindingCode::kHeavyReadTail) tail = true;
  }
  EXPECT_TRUE(deterioration) << "diagnoser missed the progressive reads";
  EXPECT_TRUE(tail) << "diagnoser missed the read tail";
  // And the patched system is clean of both.
  RunResult patched = run_madbench(lustre::MachineConfig::franklin_patched());
  for (const auto& f : analysis::diagnose(ipm::MemoryTraceSource(patched.trace))) {
    EXPECT_NE(f.code, analysis::FindingCode::kReadDeterioration);
    EXPECT_NE(f.code, analysis::FindingCode::kHeavyReadTail);
  }
}

TEST(MadbenchIntegrationTest, CollectiveIoDodgesTheBug) {
  // MADbench through MPI-IO two-phase collectives: aggregators access
  // the file sequentially, the strided detector never reaches its
  // trigger, and the *unpatched* Franklin runs clean.
  MadbenchConfig cfg = reduced_madbench();
  cfg.collective_io = true;
  cfg.cb_nodes = 16;
  RunResult collective = run_job(
      make_madbench_job(reduced(lustre::MachineConfig::franklin()), cfg));
  EXPECT_EQ(collective.fs_stats.degraded_reads, 0u);

  RunResult independent = run_madbench(lustre::MachineConfig::franklin());
  EXPECT_LT(collective.job_time, 0.6 * independent.job_time)
      << "collective I/O should sidestep the read-ahead defect";
}

TEST(MadbenchIntegrationTest, ProgressCurvesDeteriorate) {
  // Figure 5a: F_p for p = 4..8 shifts right phase over phase. Compare
  // the time each phase needs to reach 50% completion.
  RunResult result = run_madbench(lustre::MachineConfig::franklin());
  std::vector<double> t50;
  for (std::uint32_t i = 4; i <= 8; ++i) {
    analysis::ProgressCurve curve = analysis::completion_curve(
        result.trace, {.op = posix::OpType::kRead,
                       .phase = MadbenchConfig::middle_phase(i),
                       .min_bytes = MiB});
    ASSERT_FALSE(curve.t.empty());
    double t = 0.0;
    for (std::size_t j = 0; j < curve.t.size(); ++j) {
      if (curve.fraction[j] >= 0.5) {
        t = curve.t[j];
        break;
      }
    }
    t50.push_back(t);
  }
  for (std::size_t i = 1; i < t50.size(); ++i) {
    EXPECT_GT(t50[i], t50[i - 1]) << "phase " << 4 + i;
  }
}

}  // namespace
}  // namespace eio::workloads
