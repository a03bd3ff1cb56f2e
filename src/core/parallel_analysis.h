// The one analysis driver: run_kernels feeds a kernel (summary sink,
// streaming histogram, rate builder — or a KernelSet fusing several)
// from exactly one trace scan. Indexed (v3) traces go through a
// ParallelTraceScanner kernel-set scan: at one thread every chunk folds
// in place into the first admitted chunk's kernel; at more, one kernel
// per chunk is folded by worker threads and merged in chunk order. The
// fold–merge identity (statistics contract v2, core/kernel.h) makes the
// two bit-identical, so results are identical for every --jobs value.
// Non-indexed (TSV) sources fold 4,096-row batches, the chunks a
// default v3 writer cuts. A run's capture kernel folds the same
// batches (ipm/monitor.h), so capture-time statistics equal an
// unhinted analysis of the run's saved v3 trace bit for bit. Past
// reservoir capacity, quantiles are sampled estimates drawn from the
// substream of the first admitted chunk's kernel (see
// chunk_summary_options).
#pragma once

#include <cstddef>
#include <optional>

#include "common/rng.h"
#include "core/kernel.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/parallel_scan.h"

namespace eio::analysis {

/// Summary options for one chunk of a parallel scan: chunk c's
/// reservoir draws from substream_seed(base seed, c), so the sample is
/// a function of the trace and options alone — never of worker
/// scheduling. Only the first admitted chunk's seed ever draws: later
/// partials stay exact and are absorbed under it. Serial (non-indexed)
/// passes use chunk 0.
[[nodiscard]] inline stats::SummaryOptions chunk_summary_options(
    const stats::SummaryOptions& base, std::size_t chunk) {
  stats::SummaryOptions per_chunk = base;
  per_chunk.reservoir_seed = rng::substream_seed(base.reservoir_seed, chunk);
  return per_chunk;
}

/// Run a kernel factory over a trace in ONE pass: chunk-parallel via
/// the scanner when the trace is indexed, a single serial columnar
/// pass (as the factory's chunk-0 kernel) otherwise. Either way every
/// kernel of the set sees the decode exactly once.
template <typename MakeKernel>
[[nodiscard]] auto run_kernels(
    const ipm::TraceSource& source,
    const std::optional<ipm::ParallelTraceScanner>& scanner,
    const ipm::ChunkHint& hint, const MakeKernel& make) {
  if (scanner) return scanner->scan_kernels(make, &hint);
  auto kernel = make(std::size_t{0});
  source.for_each_columns_hinted(
      hint, kernel.required_columns(),
      [&kernel](const ipm::ColumnBatch& batch) { kernel.add_batch(batch); });
  return kernel;
}

}  // namespace eio::analysis
