#include "monitor/diagnose.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/rank_table.h"
#include "core/distribution.h"
#include "core/kernel.h"
#include "core/modes.h"
#include "core/parallel_analysis.h"
#include "monitor/health.h"

namespace eio::analysis {

namespace {

using posix::OpType;

constexpr double kHarmonicTolerance = 0.25;  ///< relative error of T/k
constexpr double kTailRatio = 8.0;  ///< p99/median at/above this: heavy tail
constexpr double kMetadataShare = 0.25;  ///< hottest rank's small-op share

/// into[r] += from[r] for every rank of `from`.
template <typename T>
void add_by_rank(RankTable<T>& into, const RankTable<T>& from) {
  from.for_each([&into](RankId r, const T& v) { into[r] += v; });
}

/// The sums and counts the rules read that no shared kernel keeps:
/// per-rank seconds of small transfers, the rate and alignment counts
/// of bulk writes, and the per-rank calls and moments of very large
/// writes. Seconds and moments are summed per batch and added in once,
/// so folding a batch equals merging a fresh kernel that folded it (the
/// fold–merge identity, DESIGN.md §5h).
struct DiagnoseCounters {
  explicit DiagnoseCounters(const DiagnoserOptions& opt)
      : small{.min_bytes = 1, .max_bytes = opt.stripe_size / 16},
        bulk_write{.op = OpType::kWrite, .min_bytes = opt.stripe_size / 4},
        huge_write{.op = OpType::kWrite, .min_bytes = 64 * opt.stripe_size},
        stripe(opt.stripe_size),
        slow_rate(0.6 * opt.fair_share_rate) {}

  void add_batch(const ipm::ColumnBatch& b) {
    small.for_each_match(b, [&](std::size_t i) {
      batch_seconds_[b.rank[i]] += b.duration[i];
      ++small_count;
    });
    add_by_rank(small_seconds, batch_seconds_);
    batch_seconds_.reset();

    bulk_write.for_each_match(b, [&](std::size_t i) {
      const double d = b.duration[i];
      if ((d > 0.0 ? static_cast<double>(b.bytes[i]) / d : 0.0) < slow_rate) {
        ++bulk_below;
      }
      const Bytes end = b.offset[i] + b.bytes[i];
      if (b.offset[i] % stripe != 0 || end % stripe != 0) ++bulk_unaligned;
      ++bulk_count;
    });

    batch_huge_.clear();
    huge_write.for_each_match(b, [&](std::size_t i) {
      ++huge_calls[b.rank[i]];
      batch_huge_.push_back(b.duration[i]);
    });
    huge_moments.add_batch(batch_huge_);
  }

  void merge(DiagnoseCounters&& rhs) {
    add_by_rank(small_seconds, rhs.small_seconds);
    small_count += rhs.small_count;
    bulk_count += rhs.bulk_count;
    bulk_below += rhs.bulk_below;
    bulk_unaligned += rhs.bulk_unaligned;
    add_by_rank(huge_calls, rhs.huge_calls);
    huge_moments.merge(rhs.huge_moments);
  }

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return small.required_columns() | bulk_write.required_columns() |
           huge_write.required_columns() | ipm::kColRank |
           ipm::kColDuration | ipm::kColOffset | ipm::kColBytes;
  }

  EventFilter small;       ///< 1 B .. stripe/16: metadata-sized transfers
  EventFilter bulk_write;  ///< writes >= stripe/4
  EventFilter huge_write;  ///< writes >= 64 x stripe
  Bytes stripe;
  Rate slow_rate;          ///< below this a bulk write misses fair share

  RankTable<double> small_seconds;
  std::uint64_t small_count = 0;
  std::uint64_t bulk_count = 0;
  std::uint64_t bulk_below = 0;
  std::uint64_t bulk_unaligned = 0;
  RankTable<std::uint64_t> huge_calls;
  stats::StreamingMoments huge_moments;

 private:
  RankTable<double> batch_seconds_;  ///< one batch's sums; zero between
  std::vector<double> batch_huge_;   ///< one batch's huge-write durations
};

static_assert(Kernel<DiagnoseCounters>);

void detect_harmonics(const stats::StreamingSummary& writes,
                      std::size_t min_events, std::vector<Finding>& findings) {
  // Harmonic modes show up in the durations of equal-size writes.
  if (writes.count() < min_events) return;
  auto modes =
      stats::find_modes(writes.reservoir().samples(), {.log_axis = false});
  if (modes.size() < 2) return;
  auto matched = stats::harmonic_signature(modes, kHarmonicTolerance);
  bool has_half = std::find(matched.begin(), matched.end(), 2) != matched.end();
  bool has_quarter = std::find(matched.begin(), matched.end(), 4) != matched.end();
  if (!has_half && !has_quarter) return;
  std::ostringstream os;
  os << "write-time modes at harmonic positions (";
  for (std::size_t i = 0; i < matched.size(); ++i) {
    os << (i ? ", " : "") << "T/" << matched[i];
  }
  os << " of the slow mode): tasks on a node are taking turns at the "
        "client's I/O streams — intra-node serialization, not random noise";
  findings.push_back({FindingCode::kHarmonicModes,
                      has_half && has_quarter ? 0.9 : 0.6, os.str(),
                      static_cast<double>(modes.size())});
}

void detect_read_deterioration(
    const std::map<std::int32_t, stats::StreamingSummary>& by_phase,
    std::vector<Finding>& findings) {
  // Keep phases with enough reads to trust a median.
  std::vector<std::pair<std::int32_t, double>> medians;
  for (const auto& [phase, s] : by_phase) {
    if (s.count() < 8) continue;
    medians.emplace_back(phase, s.median());
  }
  if (medians.size() < 3) return;
  // Find the longest run of consecutively-worsening phases and the
  // median growth across it. (The run matters, not the global first
  // vs last phase: a pathology confined to phases 4-8 must not be
  // masked by clean later phases.)
  std::size_t run = 1, best_run = 1;
  std::size_t run_start = 0;
  double worst_ratio = 1.0;
  for (std::size_t i = 1; i < medians.size(); ++i) {
    if (medians[i].second > medians[i - 1].second * 1.1) {
      if (run == 1) run_start = i - 1;
      ++run;
      if (run >= best_run && medians[run_start].second > 0.0) {
        best_run = run;
        worst_ratio = std::max(worst_ratio,
                               medians[i].second / medians[run_start].second);
      }
    } else {
      run = 1;
    }
  }
  if (best_run < 3 || worst_ratio < 2.0) return;
  std::ostringstream os;
  os << "read performance deteriorates monotonically across " << best_run
     << " consecutive phases (last/first median = " << worst_ratio
     << "x): a stateful middleware mechanism (e.g. strided read-ahead "
        "detection) is compounding — inspect file-system client behaviour";
  findings.push_back({FindingCode::kReadDeterioration,
                      std::min(1.0, 0.4 + 0.1 * static_cast<double>(best_run) +
                                        0.05 * std::log2(worst_ratio)),
                      os.str(), worst_ratio});
}

void detect_heavy_read_tail(
    const std::map<std::int32_t, stats::StreamingSummary>& by_phase,
    std::size_t min_events, std::vector<Finding>& findings) {
  // The per-phase samples together are every read: selection does not
  // depend on sample order, so their quantiles are the whole run's.
  std::size_t count = 0;
  for (const auto& [phase, s] : by_phase) count += s.count();
  if (count == 0 || count < min_events) return;
  std::vector<double> reads;
  reads.reserve(count);
  for (const auto& [phase, s] : by_phase) {
    const auto& samples = s.reservoir().samples();
    reads.insert(reads.end(), samples.begin(), samples.end());
  }
  double median = stats::select_quantile(reads, 0.5);
  double p99 = stats::select_quantile(reads, 0.99);
  if (median <= 0.0 || p99 / median < kTailRatio) return;
  std::ostringstream os;
  os << "read-time distribution has a heavy right tail (p99/median = "
     << p99 / median << "x, p99 = " << p99
     << " s): a few catastrophic reads dominate synchronous phases";
  findings.push_back({FindingCode::kHeavyReadTail,
                      std::min(1.0, 0.3 + 0.1 * std::log2(p99 / median)),
                      os.str(), p99 / median});
}

void detect_metadata_serialization(const DiagnoseCounters& c, double span,
                                   const DiagnoserOptions& opt,
                                   std::size_t min_events,
                                   std::vector<Finding>& findings) {
  if (c.small_count < min_events || span <= 0.0) return;
  // The first rank with the most small-transfer seconds.
  RankId hottest = 0;
  double most = -1.0;
  c.small_seconds.for_each([&](RankId r, double seconds) {
    if (seconds > most) {
      most = seconds;
      hottest = r;
    }
  });
  double share = most / span;
  if (share < kMetadataShare) return;
  std::ostringstream os;
  os << "rank " << hottest << " spends "
     << static_cast<int>(share * 100) << "% of the run in serialized small (<"
     << opt.stripe_size / 16 / 1024
     << " KiB) transfers: aggregate metadata into large deferred writes";
  findings.push_back({FindingCode::kMetadataSerialization,
                      std::min(1.0, share), os.str(), share});
}

void detect_sub_fair_share(const DiagnoseCounters& c,
                           const DiagnoserOptions& opt, std::size_t min_events,
                           std::vector<Finding>& findings) {
  if (opt.fair_share_rate <= 0.0) return;
  if (c.bulk_count < min_events) return;
  double below_frac =
      static_cast<double>(c.bulk_below) / static_cast<double>(c.bulk_count);
  double unaligned_frac =
      static_cast<double>(c.bulk_unaligned) / static_cast<double>(c.bulk_count);
  if (below_frac < 0.4 || unaligned_frac < 0.5) return;
  std::ostringstream os;
  os << static_cast<int>(below_frac * 100)
     << "% of bulk writes run below 60% of the per-task fair share while "
     << static_cast<int>(unaligned_frac * 100)
     << "% of them are not stripe-aligned: pad and align transfers to "
     << opt.stripe_size / (1024 * 1024) << " MiB boundaries";
  findings.push_back({FindingCode::kSubFairShare,
                      std::min(1.0, below_frac * unaligned_frac + 0.2),
                      os.str(), below_frac});
}

void detect_splitting_opportunity(const DiagnoseCounters& c,
                                  std::size_t min_events,
                                  std::vector<Finding>& findings) {
  // One (or very few) large write per rank per phase leaves the phase
  // time pinned to the Nth order statistic of a wide distribution.
  std::size_t ranks = 0;
  c.huge_calls.for_each([&ranks](RankId, std::uint64_t n) {
    if (n > 0) ++ranks;
  });
  if (ranks < min_events) return;
  double avg_calls = static_cast<double>(c.huge_moments.count()) /
                     static_cast<double>(ranks);
  if (avg_calls > 4.0) return;  // already splitting
  stats::Moments m = c.huge_moments.moments();
  if (m.cv() < 0.25) return;  // narrow already; nothing to gain
  std::ostringstream os;
  os << "tasks issue ~" << avg_calls
     << " very large write(s) each with a wide duration spread (cv = "
     << m.cv()
     << "): splitting each transfer into k calls (or collective "
        "buffering) narrows per-task totals by the law of large numbers";
  findings.push_back({FindingCode::kSplittingOpportunity,
                      std::min(1.0, 0.3 + m.cv() / 2.0), os.str(), m.cv()});
}

/// A final health-monitor verdict as a finding, with the remedy
/// appended to its evidence.
void report_verdict(const monitor::HealthKernel::Verdict& v,
                    FindingCode code, const std::string& remedy,
                    std::vector<Finding>& findings) {
  if (!v.subject) return;
  findings.push_back({code, v.severity, v.evidence + ": " + remedy,
                      static_cast<double>(*v.subject)});
}

}  // namespace

const char* finding_name(FindingCode code) noexcept {
  switch (code) {
    case FindingCode::kHarmonicModes: return "harmonic-modes";
    case FindingCode::kReadDeterioration: return "read-deterioration";
    case FindingCode::kHeavyReadTail: return "heavy-read-tail";
    case FindingCode::kMetadataSerialization: return "metadata-serialization";
    case FindingCode::kSubFairShare: return "sub-fair-share";
    case FindingCode::kSplittingOpportunity: return "splitting-opportunity";
    case FindingCode::kDegradedOst: return "degraded-ost";
    case FindingCode::kStragglerRank: return "straggler-rank";
  }
  return "?";
}

std::vector<Finding> diagnose(
    const ipm::TraceSource& source, const DiagnoserOptions& options,
    const std::optional<ipm::ParallelTraceScanner>& scanner) {
  monitor::HealthOptions hopt;
  hopt.ost_count = options.ost_count;
  hopt.stripe_size = options.stripe_size;
  // An unbounded window the kernel never slides: the degraded-OST rule
  // runs once, over every admitted transfer, at finish().
  hopt.window = hopt.stride = std::numeric_limits<std::size_t>::max();
  const std::size_t min_events = hopt.min_events;
  const Bytes stripe = options.stripe_size;
  const EventFilter writes{.op = OpType::kWrite, .min_bytes = stripe};
  const EventFilter reads{.op = OpType::kRead, .min_bytes = stripe};
  // Reservoirs that never sample: the mode, per-phase and tail rules
  // read every matched duration (8 bytes each; the health kernel's ring
  // keeps 16 per bulk transfer anyway). On a 2M-write trace the KDE
  // modes of a 65,536 sample wander enough to flip the harmonic verdict.
  const stats::SummaryOptions every{
      .reservoir_capacity = std::numeric_limits<std::size_t>::max()};
  auto merged =
      run_kernels(source, scanner, ipm::ChunkHint{}, [&](std::size_t chunk) {
        return KernelSet(SummarySink(writes, every),
                         PhaseSummarySink(reads, every),
                         monitor::HealthKernel(hopt, chunk),
                         DiagnoseCounters(options));
      });
  monitor::HealthKernel& health = merged.get<2>();
  health.finish();

  std::vector<Finding> findings;
  detect_harmonics(merged.get<0>().summary(), min_events, findings);
  detect_read_deterioration(merged.get<1>().by_phase(), findings);
  detect_heavy_read_tail(merged.get<1>().by_phase(), min_events, findings);
  detect_metadata_serialization(merged.get<3>(), source.time_span(), options,
                                min_events, findings);
  detect_sub_fair_share(merged.get<3>(), options, min_events, findings);
  detect_splitting_opportunity(merged.get<3>(), min_events, findings);
  report_verdict(health.degraded_verdict(), FindingCode::kDegradedOst,
                 "one storage target is degraded — check that OST for a "
                 "failing disk or RAID rebuild",
                 findings);
  report_verdict(health.straggler_verdict(), FindingCode::kStragglerRank,
                 "a consistently slow host, not random variation — check "
                 "that node's health or reschedule the rank",
                 findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.severity > b.severity; });
  return findings;
}

}  // namespace eio::analysis
