#include "campaign/json_out.h"

namespace eio::campaign {

void write_summary(json::Writer& w, const stats::StreamingSummary& s) {
  w.begin_object().kv("count", s.count());
  if (s.empty()) {
    w.key("min").null();
    w.key("max").null();
    w.key("mean").null();
    w.key("median").null();
    w.key("p95").null();
    w.key("p99").null();
  } else {
    w.kv("min", s.min())
        .kv("max", s.max())
        .kv("mean", s.moments().mean)
        .kv("median", s.median())
        .kv("p95", s.quantile(0.95))
        .kv("p99", s.quantile(0.99));
  }
  w.end_object();
}

void write_phase_summaries(
    json::Writer& w,
    const std::map<std::int32_t, stats::StreamingSummary>& by_phase) {
  w.begin_array();
  for (const auto& [phase, s] : by_phase) {
    w.begin_object()
        .kv("phase", static_cast<std::int64_t>(phase))
        .kv("count", s.count())
        .kv("median", s.median())
        .kv("p95", s.quantile(0.95))
        .kv("max", s.max())
        .end_object();
  }
  w.end_array();
}

void write_histogram(json::Writer& w, const stats::Histogram& h) {
  w.begin_object()
      .kv("scale", h.scale() == stats::BinScale::kLog10 ? "log10" : "linear")
      .kv("lo", h.lo())
      .kv("hi", h.hi())
      .kv("total", h.total())
      .kv("underflow", h.underflow())
      .kv("overflow", h.overflow())
      .key("counts")
      .begin_array();
  for (std::size_t b = 0; b < h.bin_count(); ++b) w.value(h.count(b));
  w.end_array().end_object();
}

void write_rates(json::Writer& w, const analysis::TimeSeries& series) {
  w.begin_object().kv("t0", series.t0).kv("dt", series.dt).key("values").begin_array();
  for (double v : series.values) w.value(v);
  w.end_array().end_object();
}

void write_incidents(json::Writer& w,
                     const std::vector<monitor::Incident>& incidents,
                     const std::vector<std::uint64_t>& runs) {
  w.begin_array();
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    monitor::write_incident(w, incidents[i], runs.empty() ? 0 : runs[i]);
  }
  w.end_array();
}

void write_monitor_counts(json::Writer& w, const monitor::Counts& c) {
  w.begin_object()
      .kv("windows_evaluated", c.windows_evaluated)
      .kv("phases_evaluated", c.phases_evaluated)
      .kv("incidents_opened", c.incidents_opened)
      .kv("incidents_cleared", c.incidents_cleared)
      .kv("open_at_finish", c.open_at_finish())
      .kv("degraded_ost", c.degraded_ost)
      .kv("straggler_rank", c.straggler_rank)
      .kv("drift", c.drift)
      .kv("injected", c.injected)
      .end_object();
}

void write_fault_counts(json::Writer& w, const fault::Counts& c) {
  w.begin_object()
      .kv("ost_degradations", c.ost_degradations)
      .kv("ost_restorations", c.ost_restorations)
      .kv("stalls", c.stalls)
      .kv("stall_seconds", c.stall_seconds)
      .kv("failed_attempts", c.failed_attempts)
      .kv("ops_retried", c.ops_retried)
      .kv("retry_seconds", c.retry_seconds)
      .kv("straggler_stalls", c.straggler_stalls)
      .kv("straggler_seconds", c.straggler_seconds)
      .kv("total_injections", c.total_injections())
      .end_object();
}

}  // namespace eio::campaign
