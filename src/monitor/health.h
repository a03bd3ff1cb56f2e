// Online I/O health monitoring: streaming anomaly detection with
// deterministic incident records.
//
// The paper's core claim is that ensemble distributions of I/O event
// times are stable and reproducible — so *deviation from the
// distribution is a signal*. This module watches the event stream as
// it flows (as a Kernel fed the IPM monitor's capture batches during
// simulation, or inside the chunk-parallel analysis scan) and emits
// typed Incident records while the pathology is happening. It is also
// the one home of the degraded-OST and straggler rules: the post-hoc
// `analysis::diagnose` (monitor/diagnose.h) runs this kernel with an
// unbounded window and reports its final verdicts.
//
//  * degraded-ost       — per-OST-class medians vs the median of class
//                         medians over a sliding window of admitted
//                         bulk transfers (the whole stream when the
//                         window is unbounded);
//  * straggler-rank     — order-statistics gap on phase completions,
//                         folded cumulatively as barriers close
//                         phases (judged once more at finish(), over
//                         every phase, for diagnose's verdict);
//  * dist-drift         — two-sample KS statistic of the most recent
//                         per-op duration window against a frozen
//                         warm-up baseline (the IO500 statistical-
//                         characterization recipe);
//  * injected-*         — fault markers (OpType::kFault events carry
//                         the fault layer's Marker records through
//                         every trace format) are recovered into
//                         incidents directly, closing the loop: every
//                         injected plan is re-detected online.
//
// Determinism contract: incidents are a function of event content and
// window boundaries alone — never of wall clock, thread count, or
// backing format. HealthKernel models analysis::Kernel: the chunk-0
// kernel is "rooted" and evaluates detectors as events stream through
// it; later-chunk partials buffer the (rare) admissible events and
// replay them, in stream order, when merged — so merging per-chunk
// partials in chunk order is value-identical to one serial pass (and
// to folding every chunk into the rooted kernel in place, which is
// what a one-thread scan does: nothing is buffered there), and the
// incident log is byte-identical for any --jobs value and across
// tsv/v3 encodings of the same values.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rank_table.h"
#include "common/units.h"
#include "core/kernel.h"
#include "ipm/columns.h"
#include "ipm/trace.h"

namespace eio::json {
class Writer;
}  // namespace eio::json

namespace eio::monitor {

/// Detector identities (the statistical three + the injected-marker
/// family that recovers fault::Plan executions online).
enum class IncidentKind : std::uint8_t {
  kDegradedOst,
  kStragglerRank,
  kDistributionDrift,
  kInjectedOstDegraded,
  kInjectedStall,
  kInjectedRetry,
  kInjectedStraggler,
};

[[nodiscard]] const char* incident_name(IncidentKind kind) noexcept;

/// One health incident: a detector firing over a span of the event
/// stream. Onset/clear are global event indices (position in the
/// stored stream), so records are exact join keys into the trace.
struct Incident {
  IncidentKind kind{};
  /// What the incident is about: OST id (degraded/injected-ost), rank
  /// (straggler/stall/retry), or posix::OpType code (drift).
  std::uint64_t subject = 0;
  std::uint64_t onset_event = 0;  ///< stream index at which it opened
  std::int64_t clear_event = -1;  ///< -1: still open at end of stream
  double onset_time = 0.0;        ///< start time of the opening event
  double clear_time = -1.0;       ///< -1: still open
  double severity = 0.0;          ///< 0..1, the diagnose severity
  double statistic = 0.0;         ///< the offending statistic
  double threshold = 0.0;         ///< what it was compared against
  std::string evidence;           ///< human-readable one-liner
};

/// Aggregate monitoring counters for one stream (fault::Counts-style:
/// deterministic, mergeable by the kernel contract).
struct Counts {
  std::uint64_t windows_evaluated = 0;  ///< sliding-window evaluations
  std::uint64_t phases_evaluated = 0;   ///< straggler phase closures
  std::uint64_t incidents_opened = 0;
  std::uint64_t incidents_cleared = 0;
  std::uint64_t degraded_ost = 0;    ///< opened, by detector
  std::uint64_t straggler_rank = 0;
  std::uint64_t drift = 0;
  std::uint64_t injected = 0;

  [[nodiscard]] std::uint64_t open_at_finish() const noexcept {
    return incidents_opened - incidents_cleared;
  }
};

/// Detector tunables. `analysis::diagnose` builds one of these for its
/// degraded-OST and straggler verdicts, so both paths read the same
/// thresholds.
struct HealthOptions {
  /// Master switch: a disabled kernel admits nothing, reads no
  /// columns, and costs one early-out per batch — what `analyze`
  /// without --monitor pays.
  bool enabled = true;
  /// OSTs on the machine the stream came from (0 disables the
  /// degraded-OST detector). Files map to OSTs by the creation-order
  /// round-robin `(file - 1) % ost_count`, exact for single-stripe
  /// file-per-process layouts.
  std::uint32_t ost_count = 0;
  Bytes stripe_size = 1 * MiB;
  /// Bulk-transfer admission threshold; 0 means stripe_size / 4.
  Bytes min_bytes = 0;
  /// Sliding-window capacity (admitted events) for the per-OST class
  /// statistics.
  std::size_t window = 2048;
  /// Admitted events between detector evaluations. Half the window:
  /// evaluations are 50%-overlapping slides, and the evaluation's
  /// O(window) median selection amortizes to ~2 doubles per admitted
  /// event — what keeps the monitored fused scan within a sliver of
  /// the unmonitored one.
  std::size_t stride = 1024;
  /// Per-op sample size of the frozen warm-up baseline and of the
  /// current window the KS drift test compares against it.
  std::size_t drift_window = 256;
  /// KS D at/above which drift fires; <= 0 disables the detector (the
  /// default: phase-structured workloads — write-back absorption, per-
  /// segment ramps — legitimately shift their duration distribution
  /// after warm-up, so drift-vs-baseline is an opt-in assertion that
  /// the workload is supposed to be stationary).
  double drift_d = 0.0;
  double degraded_ratio = 2.5;   ///< slow class vs median of class medians
  double straggler_gap = 1.5;    ///< slowest/2nd-slowest phase-time ratio
  std::size_t min_events = 32;   ///< fewer admitted events: stay quiet
  /// Hysteresis: consecutive firing evaluations before an incident
  /// opens, and consecutive quiet ones before it clears.
  int open_after = 1;
  int clear_after = 2;

  [[nodiscard]] Bytes admission_bytes() const noexcept {
    return min_bytes != 0 ? min_bytes : stripe_size / 4;
  }
};

/// The streaming health monitor as an analysis kernel (models
/// analysis::Kernel; see the determinism contract above). Construct
/// with chunk 0 for the rooted, immediately-evaluating instance — the
/// one-thread scan and the capture-time kernel — or chunk > 0 for a
/// buffering partial that replays on merge.
class HealthKernel {
 public:
  HealthKernel() : HealthKernel(HealthOptions{}, 0) {}
  explicit HealthKernel(HealthOptions options, std::size_t chunk = 0);

  /// Admits fault markers and bulk data calls (bytes at or above
  /// admission_bytes()); every row, admitted or not, takes the next
  /// stream index.
  void add_batch(const ipm::ColumnBatch& b);

  /// Fold a later-stream partial into this one (kernel contract:
  /// merging chunk partials in chunk order == one serial pass).
  void merge(HealthKernel&& rhs);

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    // Markers ride in offset/file, detectors read everything else.
    return options_.enabled ? ipm::kColAll : ipm::ColumnMask{0};
  }

  /// End of stream: close open phases, run a final trailing-window
  /// evaluation, and leave unresolved incidents open (clear_event
  /// stays -1). Idempotent; only meaningful on the rooted kernel.
  void finish();

  [[nodiscard]] const HealthOptions& options() const noexcept {
    return options_;
  }
  /// Incidents in deterministic open order (evaluation order).
  [[nodiscard]] const std::vector<Incident>& incidents() const noexcept {
    return incidents_;
  }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

  /// A degraded-OST or straggler-rank outcome: the subject the rule
  /// named (nullopt = quiet), its severity and its evidence.
  struct Verdict {
    std::optional<std::uint64_t> subject;
    double severity = 0.0;
    std::string evidence;
  };
  /// Both are empty before finish() and the whole-stream findings
  /// `analysis::diagnose` reports after it. The degraded-OST verdict
  /// is that of finish()'s trailing-window evaluation (quiet when none
  /// was due) — over every admitted transfer when window = stride =
  /// SIZE_MAX.
  [[nodiscard]] const Verdict& degraded_verdict() const noexcept {
    return degraded_verdict_;
  }
  /// The straggler rule over every phase the stream closed, gated on
  /// every admitted event.
  [[nodiscard]] const Verdict& straggler_verdict() const noexcept {
    return straggler_verdict_;
  }
  /// Total events consumed (all rows, admitted or not).
  [[nodiscard]] std::uint64_t events_consumed() const noexcept {
    return consumed_;
  }

 private:
  struct PhaseAgg {
    double start = 0.0;
    bool any = false;
    /// Latest completion per rank; -1 = rank unseen. The closing scan
    /// walks ranks ascending, so ties resolve to the lowest rank.
    RankTable<double> end_by_rank{-1.0};
    std::size_t ranks = 0;  ///< slots >= 0 in end_by_rank
  };
  struct DriftState {
    std::vector<double> baseline;  ///< frozen once it reaches drift_window
    bool frozen = false;
    std::deque<double> recent;     ///< sliding current window
    std::uint64_t since_freeze = 0;
  };
  /// Hysteresis + open-incident bookkeeping per (kind, subject).
  struct Track {
    int hot = 0;
    int cold = 0;
    std::ptrdiff_t open = -1;    ///< index into incidents_, -1 = none
    std::uint64_t count = 0;     ///< injected-marker accumulator
    double seconds = 0.0;        ///< injected-marker accumulator
  };

  void process(const ipm::TraceEvent& e, std::uint64_t idx);
  void on_marker(const ipm::TraceEvent& e, std::uint64_t idx);
  void close_phases_below(std::int32_t phase, std::uint64_t idx, double time);
  /// The straggler rule over the phases closed so far.
  [[nodiscard]] Verdict judge_straggler() const;
  void evaluate_windows(std::uint64_t idx, double time);
  void evaluate_degraded(std::uint64_t idx, double time);
  void evaluate_drift(std::uint64_t idx, double time);

  /// One evaluation outcome for `kind`: `firing` names the offending
  /// subject (nullopt = quiet). Applies hysteresis, opens/clears.
  void score(IncidentKind kind, std::optional<std::uint64_t> firing,
             double statistic, double threshold, double severity,
             const std::string& evidence, std::uint64_t idx, double time);
  Incident& open_incident(IncidentKind kind, std::uint64_t subject,
                          Track& track, std::uint64_t idx, double time);
  void clear_incident(Track& track, std::uint64_t idx, double time);

  HealthOptions options_;
  bool rooted_ = true;
  bool finished_ = false;
  std::uint64_t consumed_ = 0;  ///< all rows seen (global index base)
  std::uint64_t admitted_ = 0;
  std::uint64_t since_eval_ = 0;
  double last_time_ = 0.0;

  /// Buffered admissible events of an unrooted partial: (local index,
  /// event) pairs replayed on merge.
  std::vector<std::pair<std::uint64_t, ipm::TraceEvent>> buffered_;

  // --- degraded-OST sliding window (class id, duration); class
  // UINT32_MAX = admitted bulk event without a file id (counted for
  // min_events, never classed). Fixed-capacity ring: order never
  // matters to the per-class medians, so eviction is an overwrite at
  // the wrap cursor.
  std::vector<std::pair<std::uint32_t, double>> class_ring_;
  std::size_t ring_next_ = 0;
  // Evaluation scratch, reused so the stride-periodic evaluation
  // allocates only while a buffer is still growing.
  std::vector<std::vector<double>> by_class_scratch_;
  std::vector<std::pair<std::uint32_t, double>> medians_scratch_;
  std::vector<double> meds_scratch_;

  // --- straggler cumulative phase statistics. The current phase is
  // cached as a raw pointer: map nodes are stable, and the lookup
  // only reruns when the stream's phase actually changes.
  std::map<std::int32_t, PhaseAgg> phases_;
  std::int32_t cur_phase_ = 0;
  PhaseAgg* cur_agg_ = nullptr;
  std::uint64_t phase_events_ = 0;
  std::size_t phases_considered_ = 0;
  std::size_t phases_firing_ = 0;
  std::map<RankId, std::size_t> votes_;
  double worst_gap_ = 1.0;

  // --- per-op drift state (key: posix::OpType code).
  std::map<std::uint8_t, DriftState> drift_;

  std::map<std::pair<std::uint8_t, std::uint64_t>, Track> tracks_;
  std::vector<Incident> incidents_;
  Counts counts_;
  Verdict degraded_verdict_;
  Verdict straggler_verdict_;
};

static_assert(analysis::Kernel<HealthKernel>);

/// One incident as a JSON object, keys in the fixed order run, kind,
/// subject, onset_event, clear_event, onset_time, clear_time,
/// severity, statistic, threshold, evidence. The incident log and the
/// --json / campaign-record incident arrays all write this object.
void write_incident(json::Writer& w, const Incident& inc, std::uint64_t run);

/// Serialize incidents as JSONL, one write_incident() object per line:
/// deterministic given deterministic incidents. `runs` is parallel to
/// `incidents` and tags each line for multi-run ensembles (empty = all
/// run 0).
void write_incidents_jsonl(std::ostream& out,
                           const std::vector<Incident>& incidents,
                           const std::vector<std::uint64_t>& runs = {});

/// Human-readable incident table (the `eiotrace monitor` output).
void print_incident_table(std::ostream& out,
                          const std::vector<Incident>& incidents);

/// One-line counters summary.
void print_counts(std::ostream& out, const Counts& counts);

}  // namespace eio::monitor
