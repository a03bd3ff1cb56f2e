// The mergeable-kernel contract behind fused single-pass analysis.
//
// Every statistic this repo computes over a trace is a fold that can
// (a) consume a decoded column batch densely, (b) merge with a partial
// fold of a disjoint stream segment, and (c) name the columns it reads.
// That triple is the Kernel concept; anything modeling it can ride
// ParallelTraceScanner's chunk map-reduce (see
// ParallelTraceScanner::scan_kernels) and, through KernelSink, the IPM
// monitor's capture batches.
//
// KernelSet composes kernels so ONE decode of each chunk feeds all of
// them — the fused pass that collapses eiotrace's historical
// N-scans-per-bundle (and the histogram's extrema+fill double scan)
// into a single scan whose column mask is the union of its members'.
//
// Statistics contract v2 (DESIGN.md §5h): add_batch is defined by the
// fold–merge identity — folding a batch into any kernel state equals,
// bit for bit, folding it into a fresh partial and merging that in.
// The scanner can therefore fold every chunk in place on one thread
// and still match its own per-chunk partials + ordered merge on many.
// Capture folds the same batches: the monitor cuts them where a
// default v3 writer cuts chunks, so a kernel attached to a run ends
// bit-identical to run_kernels over its saved v3 trace.
#pragma once

#include <concepts>
#include <cstddef>
#include <tuple>
#include <utility>

#include "core/histogram.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/columns.h"
#include "ipm/sink.h"
#include "ipm/trace_v3.h"

namespace eio::analysis {

/// A mergeable streaming statistic over trace events.
///
/// Semantics every model must honor:
///  * the fold–merge identity: for any state k and batch b of at most
///    ipm::kMaxChunkEvents rows, k.add_batch(b) leaves k bit-identical
///    to folding b into a fresh partial p (the factory's kernel for the
///    chunk b came from) and calling k.merge(std::move(p));
///  * merge(rhs) folds a partial computed over a LATER stream segment
///    into this one, and merging chunk partials in stream order equals
///    one serial pass (exactly where the kernel is exact, in
///    distribution otherwise — see ReservoirSampler);
///  * required_columns() covers every column add_batch reads.
template <typename K>
concept Kernel = requires(K k, K rhs, const K ck, const ipm::ColumnBatch& b) {
  k.add_batch(b);
  k.merge(std::move(rhs));
  { ck.required_columns() } -> std::convertible_to<ipm::ColumnMask>;
};

/// A fixed tuple of kernels fed by one pass. KernelSet itself models
/// Kernel, so sets compose and ride the same scan driver.
template <Kernel... Ks>
class KernelSet {
 public:
  explicit KernelSet(Ks... kernels) : kernels_(std::move(kernels)...) {}

  void add_batch(const ipm::ColumnBatch& b) {
    std::apply([&](auto&... k) { (k.add_batch(b), ...); }, kernels_);
  }

  /// Member-wise merge; `other` must come from the same factory so the
  /// tuples pair up.
  void merge(KernelSet&& other) {
    merge_impl(std::move(other), std::index_sequence_for<Ks...>{});
  }

  /// Union of the members' masks — the single decode each chunk needs.
  [[nodiscard]] ipm::ColumnMask required_columns() const {
    return std::apply(
        [](const auto&... k) {
          return (ipm::ColumnMask{0} | ... | k.required_columns());
        },
        kernels_);
  }

  template <std::size_t I>
  [[nodiscard]] auto& get() {
    return std::get<I>(kernels_);
  }
  template <std::size_t I>
  [[nodiscard]] const auto& get() const {
    return std::get<I>(kernels_);
  }

 private:
  template <std::size_t... Is>
  void merge_impl(KernelSet&& other, std::index_sequence<Is...>) {
    (std::get<Is>(kernels_).merge(std::move(std::get<Is>(other.kernels_))), ...);
  }

  std::tuple<Ks...> kernels_;
};

/// Histogram of filter-matched event durations in ONE pass (the
/// two-scan padded-range + fill pipeline folded into a
/// StreamingHistogram; see its exactness notes).
class HistogramKernel {
 public:
  HistogramKernel(EventFilter filter,
                  const stats::StreamingHistogram::Options& options)
      : filter_(std::move(filter)), hist_(options) {}

  void add_batch(const ipm::ColumnBatch& batch) {
    scratch_.clear();
    scratch_.reserve(batch.size());
    filter_.for_each_match(
        batch, [&](std::size_t i) { scratch_.push_back(batch.duration[i]); });
    hist_.add_batch(scratch_);
  }

  void merge(HistogramKernel&& other) { hist_.merge(std::move(other.hist_)); }

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColDuration;
  }

  [[nodiscard]] const stats::StreamingHistogram& histogram() const noexcept {
    return hist_;
  }

 private:
  EventFilter filter_;
  stats::StreamingHistogram hist_;
  std::vector<double> scratch_;
};

/// Aggregate-rate time series of filter-matched transfers (the span
/// must be fixed up front — from the chunk index or a prior pass —
/// for partials to share binning and merge exactly).
class RateKernel {
 public:
  RateKernel(EventFilter filter, double span, std::size_t bins)
      : filter_(std::move(filter)), builder_(span, bins), local_(span, bins) {}

  /// Accumulates the batch into zeroed local bins and adds those in
  /// once — the sums merge() of a fresh kernel that folded the batch
  /// would add.
  void add_batch(const ipm::ColumnBatch& batch) {
    filter_.for_each_match(batch, [&](std::size_t i) {
      local_.add(batch.start[i], batch.duration[i], batch.bytes[i]);
    });
    local_.drain_into(builder_);
  }

  void merge(RateKernel&& other) { builder_.merge(other.builder_); }

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColStart | ipm::kColDuration |
           ipm::kColBytes;
  }

  [[nodiscard]] const TimeSeries& series() const noexcept {
    return builder_.series();
  }

 private:
  EventFilter filter_;
  RateSeriesBuilder builder_;
  RateSeriesBuilder local_;  ///< one batch's bins; zero between batches
};

/// A kernel as a run's capture sink (JobSpec::sink_factory): the
/// monitor's batches go straight to the kernel's add_batch.
template <Kernel K>
class KernelSink final : public ipm::EventSink {
 public:
  explicit KernelSink(K kernel) : kernel_(std::move(kernel)) {}

  void add_batch(const ipm::ColumnBatch& batch) override {
    kernel_.add_batch(batch);
  }

  [[nodiscard]] K& kernel() noexcept { return kernel_; }

 private:
  K kernel_;
};

// The fold–merge identity needs every chunk partial's reservoir to
// hold its whole chunk.
static_assert(ipm::kMaxChunkEvents <=
              stats::ReservoirSampler::kDefaultCapacity);

static_assert(Kernel<SummarySink>);
static_assert(Kernel<PhaseSummarySink>);
static_assert(Kernel<HistogramKernel>);
static_assert(Kernel<RateKernel>);
static_assert(Kernel<KernelSet<SummarySink, HistogramKernel, RateKernel>>);

}  // namespace eio::analysis
