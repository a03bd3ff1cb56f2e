// Application I/O access-pattern detection from traces.
//
// The paper's closing direction: "the IPM-I/O framework will be
// expanded to detect an application's I/O patterns; thus providing key
// information to the underlying file system that can be leveraged for
// improving I/O behavior."  This module classifies each (rank, file,
// direction) access stream from the trace into sequential / strided /
// random, recovers the dominant stride, and emits file-system hints
// (prefetch distance, alignment advice) that a smarter middleware
// could apply. Detection is a mergeable kernel (PatternKernel), so
// `eiotrace patterns` runs it through run_kernels.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "ipm/columns.h"
#include "ipm/trace.h"

namespace eio::analysis {

/// Classification of one access stream.
enum class AccessPattern : std::uint8_t {
  kSequential,  ///< each access starts where the previous ended
  kStrided,     ///< constant positive gap between access starts
  kRandom,      ///< no dominant stride
};

[[nodiscard]] const char* pattern_name(AccessPattern pattern) noexcept;

/// One detected stream.
struct StreamPattern {
  RankId rank = 0;
  FileId file = kInvalidFile;
  posix::OpType op = posix::OpType::kRead;  ///< kRead or kWrite
  AccessPattern pattern = AccessPattern::kRandom;
  std::size_t accesses = 0;
  Bytes typical_size = 0;       ///< median access size
  std::int64_t stride = 0;      ///< dominant start-to-start stride
  double confidence = 0.0;      ///< fraction of gaps matching the stride
  bool stripe_aligned = true;   ///< all accesses stripe-aligned?
};

/// Hints a pattern-aware file system could consume.
struct FsHint {
  FileId file = kInvalidFile;
  posix::OpType op = posix::OpType::kRead;
  /// Suggested read-ahead distance (bytes beyond the current access)
  /// for sequential/strided read streams; 0 = disable read-ahead.
  Bytes prefetch_bytes = 0;
  /// True when transfers should be padded/aligned to the stripe size.
  bool advise_alignment = false;
  std::string rationale;
};

/// Detection tunables.
struct PatternOptions {
  std::size_t min_accesses = 4;      ///< streams shorter than this are skipped
  double stride_confidence = 0.6;    ///< gap agreement needed for kStrided
  Bytes stripe_size = 1 * MiB;
};

/// Per-(rank, file, op) stream fold over read/write events with a
/// nonzero transfer, in issue order. A model of the Kernel concept
/// (core/kernel.h): merge(rhs) appends a LATER segment, joining each
/// stream it shares by the gap from this side's last access to rhs's
/// first. Every tally is an exact count, so any chunking merges to the
/// same patterns().
class PatternKernel {
 public:
  explicit PatternKernel(PatternOptions options = {}) : options_(options) {}

  void add_batch(const ipm::ColumnBatch& batch);
  void merge(PatternKernel&& later);

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return ipm::kColOp | ipm::kColRank | ipm::kColFile | ipm::kColOffset |
           ipm::kColBytes;
  }

  /// Every stream with at least min_accesses accesses (and two, so it
  /// has a gap), classified, in (rank, file, op) order.
  [[nodiscard]] std::vector<StreamPattern> patterns() const;

 private:
  /// An exact vote table: two values inline (count 0 = unused slot),
  /// the rest in a map only the few streams that need one allocate.
  template <typename T>
  struct Votes {
    std::array<T, 2> value{};
    std::array<std::uint64_t, 2> count{};
    std::unique_ptr<std::map<T, std::uint64_t>> more;

    void add(T v, std::uint64_t n);
    /// Visit every (value, votes) pair, inline slots first.
    template <typename Fn>
    void each(Fn&& fn) const {
      for (std::size_t i = 0; i < value.size() && count[i] > 0; ++i) {
        fn(value[i], count[i]);
      }
      if (more) {
        for (const auto& [v, n] : *more) fn(v, n);
      }
    }
  };

  /// One stream's fold state, two cache lines; its access count is the
  /// size votes' total.
  struct Stream {
    FileId file = 0;
    RankId rank = 0;
    std::uint8_t op = 0;
    bool aligned = true;
    std::uint64_t sequential = 0;  ///< gaps equal to the previous size
    Bytes first_offset = 0;
    Bytes last_offset = 0;
    Bytes last_bytes = 0;
    Votes<Bytes> sizes;
    Votes<std::int64_t> gaps;

    /// Vote the gap from the last access to one starting at `offset`.
    void join(Bytes offset);
  };
  static_assert(sizeof(Stream) <= 128);

  /// The index slot holding the key, or the empty slot it would take.
  std::uint32_t& slot(std::uint64_t hash, RankId rank, FileId file,
                      std::uint8_t op);
  /// Index in streams_ of the key, appending a fresh stream if absent.
  std::size_t find_or_insert(std::uint64_t hash, RankId rank, FileId file,
                             std::uint8_t op);

  PatternOptions options_;
  std::vector<Stream> streams_;  ///< first-seen order
  /// Open-addressing index: stream index + 1, 0 empty; the size is a
  /// power of two, at most half full.
  std::vector<std::uint32_t> slots_;
  /// add_batch scratch: (row, key hash) of each counted event.
  std::vector<std::pair<std::size_t, std::uint64_t>> hashed_;
};

/// Classify every (rank, file, op) stream with enough accesses: the
/// PatternKernel fold over the whole trace.
[[nodiscard]] std::vector<StreamPattern> detect_patterns(
    const ipm::Trace& trace, const PatternOptions& options = {});

/// Derive per-(file, op) hints from detected streams: prefetch sizing
/// for coherent read streams, alignment advice for unaligned writes,
/// and read-ahead disabling for random reads.
[[nodiscard]] std::vector<FsHint> derive_hints(
    const std::vector<StreamPattern>& patterns, const PatternOptions& options = {});

}  // namespace eio::analysis
