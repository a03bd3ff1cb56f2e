// Row views of a TraceSource for tests. TraceSource serves only column
// batches; tests that assert on whole events read them back with
// ColumnBatch::event_at.
#pragma once

#include <cstddef>

#include "ipm/columns.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"

namespace eio::testutil {

/// Visit every event of the batches `hint` admits, in stored order.
template <typename Fn>
void for_each_event(const ipm::TraceSource& source, Fn&& fn,
                    const ipm::ChunkHint& hint = {}) {
  source.for_each_columns_hinted(
      hint, ipm::kColAll, [&fn](const ipm::ColumnBatch& b) {
        for (std::size_t i = 0; i < b.size(); ++i) fn(b.event_at(i));
      });
}

/// Every event of the source, copied into an in-memory Trace.
inline ipm::Trace collect(const ipm::TraceSource& source) {
  ipm::Trace trace(source.meta().experiment, source.meta().ranks);
  for_each_event(source, [&trace](const ipm::TraceEvent& e) { trace.add(e); });
  return trace;
}

}  // namespace eio::testutil
