// TraceSource: the analysis side of the streaming pipeline.
//
// Every consumer of a trace — eiotrace subcommands, the reporters, the
// streaming accumulators in core — pulls events through this interface
// instead of demanding a materialized std::vector<TraceEvent>. A
// MemoryTraceSource adapts an in-memory Trace (so the Trace overloads
// run the same folds); a FileTraceSource replays a trace file on every
// pass, keeping memory O(1) in the event count. For indexed (v3)
// files, a ChunkHint lets the source skip whole chunks whose footer
// metadata cannot match, turning filtered scans into selective reads.
//
// There is one way to read events: for_each_columns(_hinted), one
// ColumnBatch per run of consecutive events, restricted to a
// ColumnMask. On v3 files unneeded columns are never decoded — the
// needed ones decode straight from the mapped file through the one v3
// chunk decoder (ChunkReader, trace_v3.h). TSV files and in-memory
// traces shred their rows, so consumers see the identical value
// sequence from any backing format; one that needs a row reads it with
// ColumnBatch::event_at.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ipm/columns.h"
#include "ipm/trace.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"

namespace eio::ipm {

/// A conservative pre-filter for indexed scans: a chunk is skipped only
/// when its footer metadata proves no event can match. Hints are a
/// superset promise — visitors still see non-matching events inside
/// surviving chunks and must filter exactly.
struct ChunkHint {
  std::optional<posix::OpType> op;
  /// Op *set* pre-filter: when nonzero, a chunk is skipped unless it
  /// contains at least one op whose bit (1 << op) is set. Generalizes
  /// the single-op pin for multi-op scans (e.g. data_calls_only keeps
  /// read|write; a fused write+read summary pass unions both pins).
  /// 0 means unconstrained.
  std::uint32_t op_mask = 0;
  std::optional<std::int32_t> phase;
  std::optional<RankId> rank;
  /// Time window [t_lo, t_hi]: chunks whose [t_lo, t_hi] span does not
  /// intersect the window are skipped, so windowed scans are selective
  /// reads too.
  std::optional<double> t_lo;
  std::optional<double> t_hi;

  /// True when the hinted chunk may contain matching events.
  [[nodiscard]] bool admits(const ChunkMeta& chunk) const noexcept {
    if (op && (chunk.op_mask & (1u << static_cast<unsigned>(*op))) == 0) {
      return false;
    }
    if (op_mask != 0 && (chunk.op_mask & op_mask) == 0) return false;
    if (phase && (*phase < chunk.phase_lo || *phase > chunk.phase_hi)) {
      return false;
    }
    if (rank && (*rank < chunk.rank_lo || *rank > chunk.rank_hi)) {
      return false;
    }
    if (t_lo && chunk.t_hi < *t_lo) return false;
    if (t_hi && chunk.t_lo > *t_hi) return false;
    return true;
  }

  /// The op-set constraint both `op` and `op_mask` express together
  /// (0 = unconstrained).
  [[nodiscard]] std::uint32_t effective_op_mask() const noexcept {
    std::uint32_t m = op ? (1u << static_cast<unsigned>(*op)) : 0u;
    if (op_mask != 0) m = op ? (m & op_mask) : op_mask;
    return m;
  }

  /// The weakest hint admitting everything either input admits — what
  /// a fused pass over several filters must scan. Fields where the
  /// inputs disagree are dropped (hints are a superset promise, so
  /// widening is always sound); op pins union into op_mask.
  [[nodiscard]] static ChunkHint union_of(const ChunkHint& a,
                                          const ChunkHint& b) noexcept {
    ChunkHint u;
    std::uint32_t ma = a.effective_op_mask();
    std::uint32_t mb = b.effective_op_mask();
    if (ma != 0 && mb != 0) u.op_mask = ma | mb;
    if (a.phase && b.phase && *a.phase == *b.phase) u.phase = a.phase;
    if (a.rank && b.rank && *a.rank == *b.rank) u.rank = a.rank;
    if (a.t_lo && b.t_lo) u.t_lo = std::min(*a.t_lo, *b.t_lo);
    if (a.t_hi && b.t_hi) u.t_hi = std::max(*a.t_hi, *b.t_hi);
    return u;
  }
};

/// Abstract multi-pass event stream with job metadata.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Job-level metadata (experiment name, rank count, event count when
  /// the backing format declares it).
  [[nodiscard]] virtual const TraceMeta& meta() const = 0;

  /// Visit every event as columnar batches with (at least) the masked
  /// columns materialized, in stored order. May be called repeatedly;
  /// each call replays the full stream. Column order is event order,
  /// so folding a ColumnBatch index 0..n-1 is value-identical to
  /// folding the same run of rows.
  void for_each_columns(ColumnMask mask,
                        const ColumnBatchVisitor& visit) const {
    for_each_columns_hinted(ChunkHint{}, mask, visit);
  }

  /// Visit the batches of chunks a hint admits. Hints only promise a
  /// superset: visitors still see non-matching events inside surviving
  /// chunks (and every event of a source without an index) and must
  /// filter exactly.
  virtual void for_each_columns_hinted(
      const ChunkHint& hint, ColumnMask mask,
      const ColumnBatchVisitor& visit) const = 0;

  /// Wall-clock span covered by the stream (latest event end time; 0
  /// when empty) — the batch Trace::span() semantics, answered without
  /// an event pass.
  [[nodiscard]] virtual double time_span() const = 0;

  /// Total events.
  [[nodiscard]] virtual std::uint64_t event_count() const = 0;
};

/// Non-owning view over an in-memory Trace.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(const Trace& trace);

  [[nodiscard]] const TraceMeta& meta() const override { return meta_; }
  /// One shred of the whole contiguous trace — a single batch (the
  /// hint is ignored: a full scan is a valid superset).
  void for_each_columns_hinted(const ChunkHint& hint, ColumnMask mask,
                               const ColumnBatchVisitor& visit) const override;
  [[nodiscard]] double time_span() const override { return trace_->span(); }
  [[nodiscard]] std::uint64_t event_count() const override {
    return trace_->size();
  }

 private:
  const Trace* trace_;
  TraceMeta meta_;
};

/// Streams a trace file (TSV or binary v3) from disk on every pass.
/// Holds only the header metadata — plus, for v3, the footer index,
/// which the hinted passes use to skip chunks. The file is opened (and
/// its format sniffed) exactly once. A TSV pass rewinds the same stream
/// and shreds 4,096 rows per batch (the chunks a default v3 writer
/// cuts); a v3 file is mapped once (MappedFile) and every pass decodes
/// its chunks from that image through one ChunkReader. Passes mutate
/// the cached stream and scratch buffers, so one FileTraceSource must
/// not run concurrent passes — ParallelTraceScanner decodes through
/// per-thread readers instead.
class FileTraceSource final : public TraceSource {
 public:
  /// Opens the file once to sniff the format and cache metadata (for
  /// v3 this parses just header + footer, not the events). Throws
  /// std::runtime_error if unreadable, unrecognized or corrupt.
  explicit FileTraceSource(std::string path);

  [[nodiscard]] const TraceMeta& meta() const override { return meta_; }
  void for_each_columns_hinted(const ChunkHint& hint, ColumnMask mask,
                               const ColumnBatchVisitor& visit) const override;
  [[nodiscard]] double time_span() const override { return span_; }
  /// Both formats declare their count (TSV in its header, v3 in its
  /// footer), and the constructor's pass validated it.
  [[nodiscard]] std::uint64_t event_count() const override {
    return meta_.declared_events.value_or(0);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] TraceFormat format() const noexcept { return format_; }
  /// The footer index; nullopt for TSV files.
  [[nodiscard]] const std::optional<TraceIndex>& index() const noexcept {
    return index_;
  }

 private:
  std::string path_;
  TraceFormat format_;
  TraceMeta meta_;
  std::optional<TraceIndex> index_;
  mutable std::ifstream stream_;
  /// v3: the mapped file and its chunk decoder (owns the column scratch).
  mutable std::optional<ChunkReader> reader_;
  /// The latest event end: v3 reads it off the index, TSV folds it in
  /// the constructor's validation pass.
  double span_ = 0.0;
};

}  // namespace eio::ipm
