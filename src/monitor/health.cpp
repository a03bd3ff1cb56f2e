#include "monitor/health.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/json_writer.h"
#include "core/distribution.h"
#include "core/ks.h"
#include "fault/plan.h"
#include "obs/registry.h"
#include "posix/hooks.h"

namespace eio::monitor {
namespace {

[[nodiscard]] std::string fmt(double v, const char* spec = "%.6g") {
  char buf[40];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

[[nodiscard]] bool is_data_op(posix::OpType op) noexcept {
  return op == posix::OpType::kRead || op == posix::OpType::kWrite;
}

}  // namespace

const char* incident_name(IncidentKind kind) noexcept {
  switch (kind) {
    case IncidentKind::kDegradedOst: return "degraded-ost";
    case IncidentKind::kStragglerRank: return "straggler-rank";
    case IncidentKind::kDistributionDrift: return "dist-drift";
    case IncidentKind::kInjectedOstDegraded: return "injected-ost-degraded";
    case IncidentKind::kInjectedStall: return "injected-stall";
    case IncidentKind::kInjectedRetry: return "injected-retry";
    case IncidentKind::kInjectedStraggler: return "injected-straggler-stall";
  }
  return "?";
}

HealthKernel::HealthKernel(HealthOptions options, std::size_t chunk)
    : options_(std::move(options)), rooted_(chunk == 0) {}

void HealthKernel::add_batch(const ipm::ColumnBatch& b) {
  if (!options_.enabled) return;
  // The admission filter reads only op and bytes, so rejected rows
  // (the common case on mixed traces) never materialize a row view.
  const Bytes admit = options_.admission_bytes();
  // One allocation per batch instead of a doubling chain: the chain's
  // freed blocks pile up at the heap top, and whether malloc then trims
  // and page-faults the heap back in every chunk hinges on unrelated
  // object sizes.
  if (!rooted_) buffered_.reserve(buffered_.size() + b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto op = static_cast<posix::OpType>(b.op[i]);
    const bool interesting =
        op == posix::OpType::kFault || (is_data_op(op) && b.bytes[i] >= admit);
    const std::uint64_t idx = consumed_++;
    if (!interesting) continue;
    if (rooted_) {
      process(b.event_at(i), idx);
    } else {
      buffered_.emplace_back(idx, b.event_at(i));
    }
  }
}

void HealthKernel::merge(HealthKernel&& rhs) {
  if (!options_.enabled) return;
  const std::uint64_t base = consumed_;
  if (rooted_) {
    for (const auto& [idx, e] : rhs.buffered_) process(e, base + idx);
  } else {
    buffered_.reserve(buffered_.size() + rhs.buffered_.size());
    for (auto& [idx, e] : rhs.buffered_) buffered_.emplace_back(base + idx, e);
  }
  consumed_ = base + rhs.consumed_;
}

void HealthKernel::process(const ipm::TraceEvent& e, std::uint64_t idx) {
  last_time_ = e.start;
  if (e.op == posix::OpType::kFault) {
    on_marker(e, idx);
    return;
  }

  // Phase bookkeeping first: an admitted event with a later phase
  // proves every earlier phase is barrier-complete, so close them.
  // The close + map lookup only run on a phase transition; within a
  // phase the cached pointer is current (transitions are the only
  // place aggs are created, so no lower phase can appear in between).
  if (cur_agg_ == nullptr || e.phase != cur_phase_) {
    close_phases_below(e.phase, idx, e.start);
    cur_agg_ = &phases_[e.phase];
    cur_phase_ = e.phase;
  }
  PhaseAgg& agg = *cur_agg_;
  if (!agg.any || e.start < agg.start) agg.start = e.start;
  agg.any = true;
  double& end = agg.end_by_rank[e.rank];
  if (end < 0.0) {
    ++agg.ranks;
    end = e.end();
  } else {
    end = std::max(end, e.end());
  }
  ++phase_events_;

  // Degraded-OST sliding window.
  if (options_.ost_count != 0) {
    const std::uint32_t cls =
        e.file != kInvalidFile
            ? static_cast<std::uint32_t>((e.file - 1) % options_.ost_count)
            : ~std::uint32_t{0};
    if (class_ring_.size() < options_.window) {
      class_ring_.emplace_back(cls, e.duration);
    } else {
      class_ring_[ring_next_] = {cls, e.duration};
      if (++ring_next_ == options_.window) ring_next_ = 0;
    }
  }

  // Drift: per-op warm-up baseline, then a sliding current window.
  if (options_.drift_d > 0.0) {
    DriftState& d = drift_[static_cast<std::uint8_t>(e.op)];
    if (!d.frozen) {
      d.baseline.push_back(e.duration);
      if (d.baseline.size() >= options_.drift_window) d.frozen = true;
    } else {
      d.recent.push_back(e.duration);
      if (d.recent.size() > options_.drift_window) d.recent.pop_front();
      ++d.since_freeze;
    }
  }

  ++admitted_;
  if (++since_eval_ >= options_.stride) {
    since_eval_ = 0;
    evaluate_windows(idx, e.start);
  }
}

void HealthKernel::on_marker(const ipm::TraceEvent& e, std::uint64_t idx) {
  // Marker encoding (fault/plan.h): file = component, offset = kind,
  // duration = detail seconds.
  const auto kind = static_cast<fault::Kind>(e.offset);
  switch (kind) {
    case fault::Kind::kOstDegraded: {
      Track& t = tracks_[{static_cast<std::uint8_t>(
                              IncidentKind::kInjectedOstDegraded),
                          e.file}];
      if (t.open >= 0) return;  // window already open for this OST
      Incident& inc = open_incident(IncidentKind::kInjectedOstDegraded, e.file,
                                    t, idx, e.start);
      const double factor = e.duration;
      inc.severity = std::clamp(1.0 - factor, 0.0, 1.0);
      inc.statistic = factor;
      inc.threshold = 1.0;
      inc.evidence = "OST " + std::to_string(e.file) +
                     " bandwidth degraded to " + fmt(factor) + "x (injected)";
      ++counts_.injected;
      break;
    }
    case fault::Kind::kOstRestored: {
      auto it = tracks_.find({static_cast<std::uint8_t>(
                                  IncidentKind::kInjectedOstDegraded),
                              e.file});
      if (it != tracks_.end() && it->second.open >= 0) {
        clear_incident(it->second, idx, e.start);
      }
      break;
    }
    case fault::Kind::kStall:
    case fault::Kind::kRetry:
    case fault::Kind::kStragglerStall: {
      const IncidentKind ik = kind == fault::Kind::kStall
                                  ? IncidentKind::kInjectedStall
                              : kind == fault::Kind::kRetry
                                  ? IncidentKind::kInjectedRetry
                                  : IncidentKind::kInjectedStraggler;
      const std::uint64_t subject = e.rank;
      Track& t = tracks_[{static_cast<std::uint8_t>(ik), subject}];
      ++t.count;
      t.seconds += e.duration;
      if (t.open < 0) {
        open_incident(ik, subject, t, idx, e.start);
        ++counts_.injected;
      }
      Incident& inc = incidents_[static_cast<std::size_t>(t.open)];
      inc.statistic = static_cast<double>(t.count);
      inc.threshold = 1.0;
      inc.severity = std::min(1.0, 0.05 * static_cast<double>(t.count));
      const char* what = ik == IncidentKind::kInjectedStall ? "stall(s)"
                         : ik == IncidentKind::kInjectedRetry
                             ? "retried op(s)"
                             : "straggler stall(s)";
      inc.evidence = "rank " + std::to_string(subject) + ": " +
                     std::to_string(t.count) + " injected " + what + ", " +
                     fmt(t.seconds) + "s total delay";
      break;
    }
  }
}

void HealthKernel::close_phases_below(std::int32_t phase, std::uint64_t idx,
                                      double time) {
  while (!phases_.empty() && phases_.begin()->first < phase) {
    const PhaseAgg& agg = phases_.begin()->second;
    // Per-phase step: top-two completion offsets, a vote for the
    // slowest when the gap fires.
    if (agg.ranks >= 4) {
      ++phases_considered_;
      ++counts_.phases_evaluated;
      RankId slowest = kInvalidRank;
      double t1 = 0.0, t2 = 0.0;
      agg.end_by_rank.for_each([&](RankId rank, double end) {
        if (end < 0.0) return;  // rank unseen this phase
        double t = end - agg.start;
        if (t > t1) {
          t2 = t1;
          t1 = t;
          slowest = rank;
        } else if (t > t2) {
          t2 = t;
        }
      });
      if (t2 > 0.0 && t1 / t2 >= options_.straggler_gap) {
        ++phases_firing_;
        ++votes_[slowest];
        worst_gap_ = std::max(worst_gap_, t1 / t2);
      }
      const Verdict v = judge_straggler();
      score(IncidentKind::kStragglerRank, v.subject, worst_gap_,
            options_.straggler_gap, v.severity, v.evidence, idx, time);
    }
    phases_.erase(phases_.begin());
  }
}

HealthKernel::Verdict HealthKernel::judge_straggler() const {
  Verdict v;
  if (phase_events_ < options_.min_events || phases_considered_ < 3 ||
      phases_firing_ < 2 || phases_firing_ * 2 < phases_considered_) {
    return v;
  }
  auto leader = std::max_element(
      votes_.begin(), votes_.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  double consistency = static_cast<double>(leader->second) /
                       static_cast<double>(phases_firing_);
  if (consistency < 2.0 / 3.0) return v;
  v.subject = leader->first;
  v.severity = std::min(1.0, consistency * (0.4 + 0.1 * worst_gap_));
  v.evidence = "rank " + std::to_string(leader->first) + ": slowest in " +
               std::to_string(leader->second) + " of " +
               std::to_string(phases_firing_) + " stretched phases (worst gap " +
               fmt(worst_gap_) + "x the second-slowest)";
  return v;
}

void HealthKernel::evaluate_windows(std::uint64_t idx, double time) {
  ++counts_.windows_evaluated;
  OBS_COUNTER_ADD("monitor.windows_evaluated", 1);
  evaluate_degraded(idx, time);
  evaluate_drift(idx, time);
}

void HealthKernel::evaluate_degraded(std::uint64_t idx, double time) {
  if (options_.ost_count == 0) return;
  std::optional<std::uint64_t> firing;
  double statistic = 0.0;
  double severity = 0.0;
  std::string evidence;
  if (class_ring_.size() >= options_.min_events) {
    // Per-class medians for classes with >= 6 events, baseline =
    // median of class medians, fire on a lone dominant outlier class.
    // All buffers are reused scratch; the medians come from selection.
    if (by_class_scratch_.size() != options_.ost_count) {
      by_class_scratch_.assign(options_.ost_count, {});
    }
    for (auto& ds : by_class_scratch_) ds.clear();
    for (const auto& [cls, dur] : class_ring_) {
      if (cls == ~std::uint32_t{0}) continue;
      by_class_scratch_[cls].push_back(dur);
    }
    medians_scratch_.clear();
    for (std::uint32_t ost = 0; ost < options_.ost_count; ++ost) {
      std::vector<double>& ds = by_class_scratch_[ost];
      if (ds.size() < 6) continue;
      medians_scratch_.emplace_back(ost, stats::select_quantile(ds, 0.5));
    }
    const auto& class_medians = medians_scratch_;
    if (class_medians.size() >= 3) {
      meds_scratch_.clear();
      for (const auto& [ost, m] : class_medians) meds_scratch_.push_back(m);
      double baseline = stats::select_quantile(meds_scratch_, 0.5);
      if (baseline > 0.0) {
        // The first class with the largest ratio, and the largest
        // ratio among the others.
        const auto ratio = [baseline](const auto& cm) {
          return cm.second / baseline;
        };
        const auto top = std::max_element(
            class_medians.begin(), class_medians.end(),
            [&](const auto& a, const auto& b) { return ratio(a) < ratio(b); });
        double second_ratio = 0.0;
        for (auto it = class_medians.begin(); it != class_medians.end(); ++it) {
          if (it != top) second_ratio = std::max(second_ratio, ratio(*it));
        }
        double top_ratio = ratio(*top);
        if (top_ratio >= options_.degraded_ratio &&
            top_ratio >= 1.5 * std::max(1.0, second_ratio)) {
          firing = top->first;
          statistic = top_ratio;
          severity = std::min(1.0, 0.25 * top_ratio);
          evidence = "OST " + std::to_string(top->first) +
                     ": class median runs " + fmt(top_ratio) +
                     "x the fleet median over the last " +
                     std::to_string(class_ring_.size()) +
                     " bulk transfers (" +
                     std::to_string(by_class_scratch_[top->first].size()) +
                     " events; runner-up at " + fmt(second_ratio) + "x)";
        }
      }
    }
  }
  score(IncidentKind::kDegradedOst, firing, statistic, options_.degraded_ratio,
        severity, evidence, idx, time);
  if (finished_) degraded_verdict_ = {firing, severity, std::move(evidence)};
}

void HealthKernel::evaluate_drift(std::uint64_t idx, double time) {
  if (options_.drift_d <= 0.0) return;
  // Each op with a frozen baseline and a full, baseline-disjoint
  // current window gets its own KS test — one score() per op so the
  // hysteresis tracks stay per-subject.
  for (auto& [op, d] : drift_) {
    if (!d.frozen || d.recent.size() < options_.drift_window) continue;
    std::vector<double> current(d.recent.begin(), d.recent.end());
    stats::KsResult ks = stats::ks_two_sample(d.baseline, current);
    std::optional<std::uint64_t> firing;
    double severity = 0.0;
    std::string evidence;
    if (ks.statistic >= options_.drift_d) {
      firing = op;
      severity = std::min(1.0, ks.statistic);
      evidence = std::string(posix::op_name(static_cast<posix::OpType>(op))) +
                 " durations: KS D = " + fmt(ks.statistic) +
                 " vs the warm-up baseline (" +
                 std::to_string(options_.drift_window) + " samples each)";
    }
    score(IncidentKind::kDistributionDrift, firing, ks.statistic,
          options_.drift_d, severity, evidence, idx, time);
  }
}

void HealthKernel::score(IncidentKind kind,
                         std::optional<std::uint64_t> firing, double statistic,
                         double threshold, double severity,
                         const std::string& evidence, std::uint64_t idx,
                         double time) {
  const auto code = static_cast<std::uint8_t>(kind);
  if (firing) {
    Track& t = tracks_[{code, *firing}];
    ++t.hot;
    t.cold = 0;
    if (t.open < 0 && t.hot >= options_.open_after) {
      Incident& inc = open_incident(kind, *firing, t, idx, time);
      inc.statistic = statistic;
      inc.threshold = threshold;
      inc.severity = severity;
      inc.evidence = evidence;
      switch (kind) {
        case IncidentKind::kDegradedOst: ++counts_.degraded_ost; break;
        case IncidentKind::kStragglerRank: ++counts_.straggler_rank; break;
        case IncidentKind::kDistributionDrift: ++counts_.drift; break;
        default: break;
      }
    } else if (t.open >= 0) {
      // Keep the open incident's evidence current: the record shows
      // the strongest statistic seen while it was open.
      Incident& inc = incidents_[static_cast<std::size_t>(t.open)];
      if (statistic > inc.statistic) {
        inc.statistic = statistic;
        inc.severity = severity;
        inc.evidence = evidence;
      }
    }
  }
  // Every other track of this kind saw a quiet evaluation.
  for (auto& [key, t] : tracks_) {
    if (key.first != code) continue;
    if (firing && key.second == *firing) continue;
    t.hot = 0;
    if (t.open >= 0 && ++t.cold >= options_.clear_after) {
      clear_incident(t, idx, time);
    }
  }
}

Incident& HealthKernel::open_incident(IncidentKind kind, std::uint64_t subject,
                                      Track& track, std::uint64_t idx,
                                      double time) {
  Incident inc;
  inc.kind = kind;
  inc.subject = subject;
  inc.onset_event = idx;
  inc.onset_time = time;
  track.open = static_cast<std::ptrdiff_t>(incidents_.size());
  incidents_.push_back(std::move(inc));
  ++counts_.incidents_opened;
  OBS_COUNTER_ADD("monitor.incidents_opened", 1);
  obs::record_instant(std::string("incident open: ") + incident_name(kind) +
                      " #" + std::to_string(subject));
  return incidents_.back();
}

void HealthKernel::clear_incident(Track& track, std::uint64_t idx,
                                  double time) {
  Incident& inc = incidents_[static_cast<std::size_t>(track.open)];
  inc.clear_event = static_cast<std::int64_t>(idx);
  inc.clear_time = time;
  track.open = -1;
  track.hot = 0;
  track.cold = 0;
  ++counts_.incidents_cleared;
  OBS_COUNTER_ADD("monitor.incidents_cleared", 1);
  obs::record_instant(std::string("incident clear: ") +
                      incident_name(inc.kind) + " #" +
                      std::to_string(inc.subject));
}

void HealthKernel::finish() {
  if (!options_.enabled || !rooted_ || finished_) return;
  finished_ = true;
  const std::uint64_t idx = consumed_;
  // Barriers never close the final phase — the end of stream does.
  close_phases_below(std::numeric_limits<std::int32_t>::max(), idx, last_time_);
  cur_agg_ = nullptr;  // everything it could point at was just erased
  // Judged afresh rather than read off the last phase close: phases of
  // fewer than 4 ranks are never evaluated, yet their events count
  // toward the rule's min_events gate.
  straggler_verdict_ = judge_straggler();
  if (since_eval_ > 0) {
    since_eval_ = 0;
    evaluate_windows(idx, last_time_);
  }
}

void write_incident(json::Writer& w, const Incident& inc, std::uint64_t run) {
  w.begin_object()
      .kv("run", run)
      .kv("kind", incident_name(inc.kind))
      .kv("subject", inc.subject)
      .kv("onset_event", inc.onset_event)
      .kv("clear_event", inc.clear_event)
      .kv("onset_time", inc.onset_time)
      .kv("clear_time", inc.clear_time)
      .kv("severity", inc.severity)
      .kv("statistic", inc.statistic)
      .kv("threshold", inc.threshold)
      .kv("evidence", inc.evidence)
      .end_object();
}

void write_incidents_jsonl(std::ostream& out,
                           const std::vector<Incident>& incidents,
                           const std::vector<std::uint64_t>& runs) {
  json::Writer w(out);  // top level: no separators between lines
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    write_incident(w, incidents[i], runs.empty() ? 0 : runs[i]);
    out << '\n';
  }
}

void print_incident_table(std::ostream& out,
                          const std::vector<Incident>& incidents) {
  if (incidents.empty()) {
    out << "no incidents\n";
    return;
  }
  out << "  kind                      subj   onset-evt   onset(s)   "
         "clear-evt   sev    evidence\n";
  for (const Incident& inc : incidents) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-25s %5llu %11llu %10.4f %11lld %5.2f",
                  incident_name(inc.kind),
                  static_cast<unsigned long long>(inc.subject),
                  static_cast<unsigned long long>(inc.onset_event),
                  inc.onset_time, static_cast<long long>(inc.clear_event),
                  inc.severity);
    out << line << "   " << inc.evidence << "\n";
  }
}

void print_counts(std::ostream& out, const Counts& counts) {
  out << "monitor: " << counts.incidents_opened << " incident(s) opened, "
      << counts.incidents_cleared << " cleared, " << counts.open_at_finish()
      << " open at end (" << counts.windows_evaluated
      << " window evaluations, " << counts.phases_evaluated
      << " phase closures)\n";
}

}  // namespace eio::monitor
