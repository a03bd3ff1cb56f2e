#include "ipm/columns.h"

namespace eio::ipm {

ColumnBatch shred(std::span<const TraceEvent> events, ColumnScratch& scratch,
                  ColumnMask mask) {
  const std::size_t n = events.size();
  ColumnBatch batch;
  batch.events = n;
  if (mask & kColStart) {
    scratch.start.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.start[i] = events[i].start;
    batch.start = scratch.start;
  }
  if (mask & kColDuration) {
    scratch.duration.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch.duration[i] = events[i].duration;
    }
    batch.duration = scratch.duration;
  }
  if (mask & kColOp) {
    scratch.op.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch.op[i] = static_cast<std::uint8_t>(events[i].op);
    }
    batch.op = scratch.op;
  }
  if (mask & kColRank) {
    scratch.rank.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.rank[i] = events[i].rank;
    batch.rank = scratch.rank;
  }
  if (mask & kColFile) {
    scratch.file.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.file[i] = events[i].file;
    batch.file = scratch.file;
  }
  if (mask & kColOffset) {
    scratch.offset.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.offset[i] = events[i].offset;
    batch.offset = scratch.offset;
  }
  if (mask & kColBytes) {
    scratch.bytes.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.bytes[i] = events[i].bytes;
    batch.bytes = scratch.bytes;
  }
  if (mask & kColPhase) {
    scratch.phase.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.phase[i] = events[i].phase;
    batch.phase = scratch.phase;
  }
  return batch;
}

}  // namespace eio::ipm
