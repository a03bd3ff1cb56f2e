// The capture sink: what the IPM monitor feeds while a run executes.
//
// The paper's §VI argues the tracing paradigm must give way to
// scalable statistical capture — "from events to ensembles" as an
// architecture. The monitor buffers completed calls into column
// batches cut where a default v3 writer cuts its chunks, and hands
// each batch to one sink. A sink is therefore fed exactly what a
// one-thread analysis scan of the saved trace would fold, so any
// analysis kernel (see analysis::KernelSink) computes the same bits
// live as it does after the fact.
#pragma once

#include "ipm/columns.h"

namespace eio::ipm {

/// Receives every captured event once, in completion order, as
/// consecutive column batches with every column filled.
class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void add_batch(const ColumnBatch& batch) = 0;
};

}  // namespace eio::ipm
