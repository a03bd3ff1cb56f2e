// Chunk-parallel map-reduce over indexed (v3) traces.
//
// The paper's premise — ensembles are mergeable statistics, not event
// sequences — makes trace analysis embarrassingly parallel over
// indexed chunks: every chunk folds into a bounded partial (moments,
// histogram bins, reservoir, rate bins), and partials merge. The
// ParallelTraceScanner partitions a file's TraceIndex across a worker
// pool (the same claim-by-atomic-index pattern as
// workloads::ParallelEnsembleRunner), decodes chunks concurrently,
// folds each chunk into its own partial, and merges partials on the
// calling thread in ascending chunk order. With one worker there is
// nothing to merge: the first admitted chunk's partial is made once and
// every admitted chunk folds into it in place.
//
// Decode: chunks are decoded straight out of one shared read-only
// MappedFile (every worker reads the same immutable pages — no locks,
// no staging copies) by per-thread ChunkReaders, the same decoder
// every other v3 reader uses. The fold receives decoded ColumnBatches
// with only the masked columns materialized.
//
// Determinism contract: the partial built for chunk c depends only on
// chunk c (per-chunk reservoir seeds come from the chunk index), and
// the merge sequence is always chunk 0, 1, 2, ... regardless of which
// worker folded what first. The in-place fold of one worker equals
// that merge sequence by the fold–merge identity every analysis kernel
// keeps (statistics contract v2, core/kernel.h): folding a chunk into
// the running result is bit-identical to merging a fresh partial that
// folded it. A kernel scan is therefore byte-identical for every jobs
// value — by construction, not by tolerance. Column order equals event
// order, so a fold over the columns performs the same operation
// sequence as a fold over the rows of the same chunk.
//
// Memory contract: workers may run at most merge_window chunks ahead
// of the merge frontier, so at most O(jobs + merge_window) partials
// and O(jobs) chunk buffers are live — peak memory stays O(chunk),
// never O(events). The mmap adds address space, not resident memory;
// pages are faulted in as decoded and evictable at any time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/jobs.h"
#include "ipm/columns.h"
#include "ipm/mapped_file.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

struct ScanOptions {
  /// Worker threads. 0 = default (EIO_JOBS env or hardware concurrency).
  std::size_t jobs = 0;
  /// How many chunks workers may run ahead of the in-order merge
  /// frontier before throttling (bounds live partials). 0 = default
  /// (max(2 * jobs, 8)).
  std::size_t merge_window = 0;
};

/// Map-reduce engine over one indexed (v3) trace file. Stateless
/// between scans; safe to reuse and cheap to construct (the index is
/// read once or borrowed from a FileTraceSource).
class ParallelTraceScanner {
 public:
  /// Open `path` and read its footer index. Throws std::runtime_error
  /// when the file is not an indexed (v3) trace.
  explicit ParallelTraceScanner(std::string path, ScanOptions options = {})
      : path_(std::move(path)),
        jobs_(resolve_jobs(options.jobs)),
        merge_window_(resolve_window(options, jobs_)) {
    std::ifstream in(path_, std::ios::binary);
    EIO_CHECK_MSG(in.good(), "cannot open for reading: " << path_);
    if (sniff_format(in) != TraceFormat::kBinaryV3) {
      throw std::runtime_error(
          "parallel scan needs an indexed (v3) trace: " + path_);
    }
    map_ = std::make_unique<const MappedFile>(path_);
    index_ = read_index_v3(map_->bytes());
  }

  /// Reuse an index already read by a FileTraceSource; `format` must be
  /// kBinaryV3, the one indexed format.
  ParallelTraceScanner(std::string path, TraceFormat format, TraceIndex index,
                       ScanOptions options = {})
      : path_(std::move(path)),
        index_(std::move(index)),
        jobs_(resolve_jobs(options.jobs)),
        merge_window_(resolve_window(options, jobs_)),
        map_(std::make_unique<const MappedFile>(path_)) {
    EIO_CHECK(format == TraceFormat::kBinaryV3);
  }

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const TraceIndex& index() const noexcept { return index_; }

  /// Map-reduce over the chunks `hint` admits (all chunks when null):
  ///
  ///   make(chunk_index)       -> Partial   (fresh, possibly seeded)
  ///   fold(partial, batch)                 (one ColumnBatch = one chunk)
  ///   merge(into, std::move(from))         (ascending chunk order)
  ///
  /// The fold receives each chunk decoded with only the `mask` columns
  /// materialized; unmasked columns are never decoded nor copied.
  /// Returns the merged Partial; make(0) when no chunk is admitted. The
  /// first worker exception is rethrown after the pool drains.
  ///
  /// One worker folds every admitted chunk into make(first admitted
  /// chunk) and never calls merge, so results agree across jobs values
  /// only when fold and merge keep the fold–merge identity.
  template <typename Make, typename Fold, typename Merge>
  [[nodiscard]] auto scan_columns(const Make& make, const Fold& fold,
                                  const Merge& merge,
                                  const ChunkHint* hint = nullptr,
                                  ColumnMask mask = kColAll) const
      -> std::invoke_result_t<Make, std::size_t> {
    using Partial = std::invoke_result_t<Make, std::size_t>;
    OBS_SPAN("scan.scan");
    std::vector<std::size_t> picks = admitted(hint);
    // Hint-pruned chunks are skipped silently on the fast path; the
    // counter pair makes the pruning visible in --obs-summary.
    OBS_COUNTER_ADD("scan.chunks_scanned", picks.size());
    OBS_COUNTER_ADD("scan.chunks_skipped", index_.chunks.size() - picks.size());
    if (picks.empty()) return make(std::size_t{0});

    auto produce = [this, &fold, mask](ChunkReader& reader, Partial& p,
                                       std::size_t chunk) {
      OBS_SPAN("scan.fold_chunk");
      fold(p, reader.read_columns(index_, chunk, mask));
    };

    std::size_t workers = std::min(jobs_, picks.size());
    if (workers <= 1) {
      // One partial, every chunk folded in place: by the fold–merge
      // identity this is the parallel path's ordered merge, minus the
      // per-chunk partials and merges.
      ChunkReader reader = make_reader();
      Partial result = make(picks[0]);
      for (std::size_t chunk : picks) produce(reader, result, chunk);
      return result;
    }

    std::mutex mu;
    std::condition_variable cv;
    std::map<std::size_t, Partial> ready;  // slot -> folded partial
    std::size_t merge_pos = 0;             // next slot to merge
    std::exception_ptr error;
    std::atomic<std::size_t> next{0};

    auto worker = [&] {
      try {
        ChunkReader reader = make_reader();
        for (;;) {
          std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= picks.size()) return;
          {
            // Throttle: stay within merge_window of the merge frontier
            // so un-merged partials stay bounded. The worker holding
            // slot merge_pos is never throttled, so the frontier
            // always advances.
            OBS_SPAN("scan.merge_wait");
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock,
                    [&] { return error || k < merge_pos + merge_window_; });
            if (error) return;
          }
          Partial p = make(picks[k]);
          produce(reader, p, picks[k]);
          std::lock_guard<std::mutex> lock(mu);
          ready.emplace(k, std::move(p));
          cv.notify_all();
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        cv.notify_all();
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);

    // The calling thread is the merger: consume partials strictly in
    // slot order, merging outside the lock.
    std::optional<Partial> result;
    {
      std::unique_lock<std::mutex> lock(mu);
      while (merge_pos < picks.size()) {
        cv.wait(lock, [&] { return error || ready.count(merge_pos) > 0; });
        if (error) break;
        auto it = ready.find(merge_pos);
        Partial p = std::move(it->second);
        ready.erase(it);
        lock.unlock();
        if (result) {
          OBS_SPAN("scan.merge_partial");
          merge(*result, std::move(p));
        } else {
          result.emplace(std::move(p));
        }
        lock.lock();
        ++merge_pos;
        cv.notify_all();
      }
    }
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
    return std::move(*result);
  }

  /// Kernel-set fold path: make(chunk_index) builds anything modeling
  /// the analysis::Kernel concept (one kernel or a whole KernelSet);
  /// ONE decode of each admitted chunk — restricted to the union
  /// column mask the set reports — feeds every kernel in it, and
  /// partials merge member-wise in chunk order (or, on one worker,
  /// every chunk folds in place). This is the fused single-pass driver
  /// behind every eiotrace analysis subcommand.
  template <typename Make>
  [[nodiscard]] auto scan_kernels(const Make& make,
                                  const ChunkHint* hint = nullptr) const
      -> std::invoke_result_t<Make, std::size_t> {
    using Set = std::invoke_result_t<Make, std::size_t>;
    const ColumnMask mask = make(std::size_t{0}).required_columns();
    return scan_columns(
        make,
        [](Set& set, const ColumnBatch& batch) { set.add_batch(batch); },
        [](Set& into, Set&& from) { into.merge(std::move(from)); }, hint, mask);
  }

 private:
  [[nodiscard]] ChunkReader make_reader() const {
    return {path_, TraceFormat::kBinaryV3, map_.get()};
  }

  [[nodiscard]] static std::size_t resolve_window(const ScanOptions& options,
                                                  std::size_t jobs) {
    if (options.merge_window > 0) return options.merge_window;
    return std::max<std::size_t>(2 * jobs, 8);
  }

  [[nodiscard]] std::vector<std::size_t> admitted(const ChunkHint* hint) const {
    std::vector<std::size_t> picks;
    picks.reserve(index_.chunks.size());
    for (std::size_t i = 0; i < index_.chunks.size(); ++i) {
      if (!hint || hint->admits(index_.chunks[i])) picks.push_back(i);
    }
    return picks;
  }

  std::string path_;
  TraceIndex index_;
  std::size_t jobs_;
  std::size_t merge_window_;
  /// Mapped once; every worker's ChunkReader decodes from these pages.
  std::unique_ptr<const MappedFile> map_;
};

}  // namespace eio::ipm
