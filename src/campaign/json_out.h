// The machine-readable output vocabulary: JSON emitters shared by the
// CLI's --json mode and the campaign store's records.
//
// Every emitter writes one JSON value through a json::Writer, with a
// fixed key order and %.9g floats (see common/json_writer.h), so the
// bytes a `eiotrace summary --json` consumer parses and the bytes a
// campaign record embeds are the same schema from the same code — the
// two cannot drift apart, and the campaign determinism contract
// (byte-identical stores for any --workers value) inherits the
// emitters' determinism for free.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/json_writer.h"
#include "core/rate_series.h"
#include "core/histogram.h"
#include "core/streaming.h"
#include "fault/plan.h"
#include "monitor/health.h"

namespace eio::campaign {

/// Version stamped as "schema_version" into every --json document and
/// campaign record.
inline constexpr int kOutputSchemaVersion = 1;

/// A StreamingSummary as {count,min,max,mean,median,p95,p99}. Empty
/// summaries emit count 0 and nulls for the undefined statistics.
void write_summary(json::Writer& w, const stats::StreamingSummary& s);

/// Per-phase summaries as an array of {phase,count,median,p95,max},
/// in ascending phase order.
void write_phase_summaries(
    json::Writer& w,
    const std::map<std::int32_t, stats::StreamingSummary>& by_phase);

/// A histogram as {scale,lo,hi,total,underflow,overflow,counts:[...]}.
void write_histogram(json::Writer& w, const stats::Histogram& h);

/// A rate series as {t0,dt,values:[...]} (values in bytes/s).
void write_rates(json::Writer& w, const analysis::TimeSeries& series);

/// Incidents as an array of monitor::write_incident() objects — the
/// same bytes as the incident log's lines — paired with a parallel
/// run-id vector (empty = all run 0).
void write_incidents(json::Writer& w,
                     const std::vector<monitor::Incident>& incidents,
                     const std::vector<std::uint64_t>& runs);

/// Monitoring counters, all eight plus the derived open_at_finish.
void write_monitor_counts(json::Writer& w, const monitor::Counts& c);

/// Fault-injection counters.
void write_fault_counts(json::Writer& w, const fault::Counts& c);

}  // namespace eio::campaign
