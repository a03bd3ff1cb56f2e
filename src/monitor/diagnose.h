// Automatic bottleneck diagnosis from ensemble statistics.
//
// The paper closes by proposing that IPM-I/O "will be expanded to
// detect an application's I/O patterns". This module implements that
// extension: each detector encodes one of the paper's diagnostic
// arguments as a rule over the trace's ensemble statistics, and
// returns a structured finding when it fires.
//
//  * kHarmonicModes      — Figure 1c: completion-time modes at T, T/2,
//                          T/4 ⇒ intra-node stream serialization;
//  * kReadDeterioration  — Figure 5a: per-phase read times strictly
//                          worsening across phases ⇒ middleware
//                          (read-ahead) pathology;
//  * kHeavyReadTail      — Figure 4c: a read tail orders of magnitude
//                          past the median mode;
//  * kMetadataSerialization — Figure 6g: small ops concentrated on one
//                          rank occupying a large share of run time
//                          ⇒ aggregate/defer metadata;
//  * kSubFairShare       — Figure 6c/f: per-task rate mass far below
//                          fair share with unaligned offsets present
//                          ⇒ align transfers to the stripe size;
//  * kSplittingOpportunity — Figure 2: one large transfer per barrier
//                          phase ⇒ split calls / collective buffering
//                          (LLN narrowing);
//  * kDegradedOst        — §IV degraded-component signature: a slow
//                          duration mode concentrated on the files of
//                          one OST ⇒ failing disk / RAID rebuild on
//                          that OST (needs DiagnoserOptions::ost_count);
//  * kStragglerRank      — order-statistics signature: the same rank
//                          finishes phases far behind the second-
//                          slowest ⇒ a slow host, not random noise.
//
// Every rule is a finalizer over kernels folded in ONE scan of the
// trace (analysis::run_kernels: chunk-parallel on v3, 4,096-row
// batches on TSV) — nothing is materialized. The degraded-OST and
// straggler rules are the health monitor's (monitor/health.h): the
// scan runs a monitor::HealthKernel with an unbounded window and
// reports its final verdicts, so the online and post-hoc paths share
// one copy of each rule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace_source.h"

namespace eio::analysis {

/// Detector identities.
enum class FindingCode : std::uint8_t {
  kHarmonicModes,
  kReadDeterioration,
  kHeavyReadTail,
  kMetadataSerialization,
  kSubFairShare,
  kSplittingOpportunity,
  kDegradedOst,
  kStragglerRank,
};

[[nodiscard]] const char* finding_name(FindingCode code) noexcept;

/// One diagnostic result.
struct Finding {
  FindingCode code{};
  double severity = 0.0;  ///< 0..1, how strongly the rule fired
  std::string message;    ///< human-readable diagnosis + suggested fix
  double metric = 0.0;    ///< detector-specific headline number
};

/// Tunables for the detectors. The degraded-OST and straggler
/// thresholds, and the event floor below which every detector stays
/// silent, are monitor::HealthOptions' defaults.
struct DiagnoserOptions {
  Rate fair_share_rate = 0.0;  ///< per-task fair-share bytes/s (0 = skip
                               ///< the sub-fair-share detector)
  Bytes stripe_size = 1 * MiB;
  /// OSTs on the machine the trace came from (0 = skip the degraded-OST
  /// detector); see monitor::HealthOptions::ost_count.
  std::uint32_t ost_count = 0;
};

/// Run every detector over the trace in one scan — through `scanner`
/// when given (an indexed v3 file), one serial columnar pass
/// otherwise; findings sorted by severity. Identical for every scanner
/// jobs value.
[[nodiscard]] std::vector<Finding> diagnose(
    const ipm::TraceSource& source, const DiagnoserOptions& options = {},
    const std::optional<ipm::ParallelTraceScanner>& scanner = std::nullopt);

}  // namespace eio::analysis
