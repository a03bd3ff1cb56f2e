#include "core/patterns.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "ipm/trace_source.h"

namespace eio::analysis {

namespace {

/// The index hash of a (rank, file, op) key: splitmix64's finalizer.
std::uint64_t key_hash(RankId rank, FileId file, std::uint8_t op) {
  std::uint64_t x = file * 0x9e3779b97f4a7c15ULL;
  x ^= std::uint64_t{rank} << 8 | op;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* pattern_name(AccessPattern pattern) noexcept {
  switch (pattern) {
    case AccessPattern::kSequential: return "sequential";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kRandom: return "random";
  }
  return "?";
}

template <typename T>
void PatternKernel::Votes<T>::add(T v, std::uint64_t n) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (count[i] == 0) value[i] = v;
    if (value[i] == v) {
      count[i] += n;
      return;
    }
  }
  if (!more) more = std::make_unique<std::map<T, std::uint64_t>>();
  (*more)[v] += n;
}

void PatternKernel::Stream::join(Bytes offset) {
  // Subtracted unsigned: the signed gap, wrapping where a signed
  // subtraction would overflow.
  const auto gap = static_cast<std::int64_t>(offset - last_offset);
  gaps.add(gap, 1);
  if (gap == static_cast<std::int64_t>(last_bytes)) ++sequential;
}

std::uint32_t& PatternKernel::slot(std::uint64_t hash, RankId rank,
                                   FileId file, std::uint8_t op) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    std::uint32_t& slot = slots_[at];
    if (slot == 0) return slot;
    const Stream& s = streams_[slot - 1];
    if (s.file == file && s.rank == rank && s.op == op) return slot;
  }
}

std::size_t PatternKernel::find_or_insert(std::uint64_t hash, RankId rank,
                                          FileId file, std::uint8_t op) {
  if (2 * (streams_.size() + 1) > slots_.size()) {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      slot(key_hash(s.rank, s.file, s.op), s.rank, s.file, s.op) =
          static_cast<std::uint32_t>(i + 1);
    }
  }
  std::uint32_t& at = slot(hash, rank, file, op);
  if (at == 0) {
    streams_.push_back({.file = file, .rank = rank, .op = op});
    at = static_cast<std::uint32_t>(streams_.size());
  }
  return at - 1;
}

void PatternKernel::add_batch(const ipm::ColumnBatch& b) {
  const auto rd = static_cast<std::uint8_t>(posix::OpType::kRead);
  const auto wr = static_cast<std::uint8_t>(posix::OpType::kWrite);
  // Streams are scattered over memory, so a lookup per event waits on
  // a cache miss. Hash the batch and prefetch its index slots, then its
  // stream records, before updating any: the misses overlap.
  hashed_.clear();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if ((b.op[i] != rd && b.op[i] != wr) || b.bytes[i] == 0) continue;
    hashed_.emplace_back(i, key_hash(b.rank[i], b.file[i], b.op[i]));
  }
  if (!slots_.empty()) {
    const std::size_t mask = slots_.size() - 1;
    for (const auto& [i, h] : hashed_) __builtin_prefetch(&slots_[h & mask]);
    for (const auto& [i, h] : hashed_) {
      const std::uint32_t at = slots_[h & mask];
      if (at != 0) __builtin_prefetch(&streams_[at - 1]);
    }
  }
  const Bytes stripe = options_.stripe_size;
  for (const auto& [i, h] : hashed_) {
    const Bytes offset = b.offset[i];
    const Bytes bytes = b.bytes[i];
    Stream& s = streams_[find_or_insert(h, b.rank[i], b.file[i], b.op[i])];
    if (s.sizes.count[0] == 0) {
      s.first_offset = offset;
    } else {
      s.join(offset);
    }
    const Bytes end = offset + bytes;
    s.aligned = s.aligned && offset % stripe == 0 && end % stripe == 0;
    s.sizes.add(bytes, 1);
    s.last_offset = offset;
    s.last_bytes = bytes;
  }
}

void PatternKernel::merge(PatternKernel&& later) {
  for (Stream& r : later.streams_) {
    Stream& s = streams_[find_or_insert(key_hash(r.rank, r.file, r.op), r.rank,
                                        r.file, r.op)];
    if (s.sizes.count[0] == 0) {
      s = std::move(r);
      continue;
    }
    s.join(r.first_offset);
    s.sequential += r.sequential;
    s.aligned = s.aligned && r.aligned;
    r.sizes.each([&s](Bytes v, std::uint64_t n) { s.sizes.add(v, n); });
    r.gaps.each([&s](std::int64_t v, std::uint64_t n) { s.gaps.add(v, n); });
    s.last_offset = r.last_offset;
    s.last_bytes = r.last_bytes;
  }
}

std::vector<StreamPattern> PatternKernel::patterns() const {
  std::vector<StreamPattern> out;
  std::vector<std::pair<Bytes, std::uint64_t>> sizes;
  std::vector<std::pair<std::int64_t, std::uint64_t>> gaps;
  for (const Stream& s : streams_) {
    std::uint64_t accesses = 0;
    sizes.clear();
    s.sizes.each([&](Bytes v, std::uint64_t n) {
      sizes.emplace_back(v, n);
      accesses += n;
    });
    if (accesses < std::max<std::size_t>(options_.min_accesses, 2)) continue;

    StreamPattern sp{.rank = s.rank,
                     .file = s.file,
                     .op = static_cast<posix::OpType>(s.op),
                     .accesses = accesses,
                     .stripe_aligned = s.aligned};
    // Median access size: the (n/2)-th smallest, which nth_element
    // would place there.
    std::sort(sizes.begin(), sizes.end());
    std::uint64_t upto = 0;
    for (const auto& [size, n] : sizes) {
      if ((upto += n) > accesses / 2) {
        sp.typical_size = size;
        break;
      }
    }

    // The dominant start-to-start gap: most votes, smallest on ties.
    gaps.clear();
    s.gaps.each([&](std::int64_t v, std::uint64_t n) {
      gaps.emplace_back(v, n);
    });
    std::sort(gaps.begin(), gaps.end());
    const auto dominant = std::max_element(
        gaps.begin(), gaps.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const auto total_gaps = static_cast<double>(accesses - 1);
    double dominant_frac = static_cast<double>(dominant->second) / total_gaps;
    double sequential_frac = static_cast<double>(s.sequential) / total_gaps;

    if (sequential_frac >= options_.stride_confidence) {
      sp.pattern = AccessPattern::kSequential;
      sp.stride = static_cast<std::int64_t>(sp.typical_size);
      sp.confidence = sequential_frac;
    } else if (dominant_frac >= options_.stride_confidence &&
               dominant->first != 0) {
      sp.pattern = AccessPattern::kStrided;
      sp.stride = dominant->first;
      sp.confidence = dominant_frac;
    } else {
      sp.pattern = AccessPattern::kRandom;
      sp.stride = 0;
      sp.confidence = 1.0 - dominant_frac;
    }
    out.push_back(sp);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.rank, a.file, a.op) < std::tie(b.rank, b.file, b.op);
  });
  return out;
}

std::vector<StreamPattern> detect_patterns(const ipm::Trace& trace,
                                           const PatternOptions& options) {
  PatternKernel kernel(options);
  ipm::MemoryTraceSource(trace).for_each_columns(
      kernel.required_columns(),
      [&kernel](const ipm::ColumnBatch& batch) { kernel.add_batch(batch); });
  return kernel.patterns();
}

std::vector<FsHint> derive_hints(const std::vector<StreamPattern>& patterns,
                                 const PatternOptions& options) {
  // Aggregate per (file, op): hints are file-level advice.
  struct Agg {
    std::size_t streams = 0;
    std::size_t coherent = 0;  // sequential or strided
    std::size_t random = 0;
    std::size_t unaligned = 0;
    Bytes typical_size = 0;
    std::int64_t stride = 0;
  };
  std::map<std::pair<FileId, posix::OpType>, Agg> by_file;
  for (const StreamPattern& p : patterns) {
    Agg& a = by_file[{p.file, p.op}];
    ++a.streams;
    if (p.pattern == AccessPattern::kRandom) {
      ++a.random;
    } else {
      ++a.coherent;
      a.stride = p.stride;
    }
    if (!p.stripe_aligned) ++a.unaligned;
    a.typical_size = std::max(a.typical_size, p.typical_size);
  }

  std::vector<FsHint> hints;
  for (const auto& [key, a] : by_file) {
    auto [file, op] = key;
    std::ostringstream why;
    FsHint hint;
    hint.file = file;
    hint.op = op;
    if (op == posix::OpType::kRead) {
      if (a.coherent * 2 >= a.streams) {
        // Coherent readers: prefetch a couple of typical accesses, but
        // never beyond the stride (the Lustre bug was precisely an
        // unbounded strided window).
        Bytes window = 2 * a.typical_size;
        if (a.stride > 0) {
          window = std::min<Bytes>(window, static_cast<Bytes>(a.stride));
        }
        hint.prefetch_bytes = window;
        why << a.coherent << "/" << a.streams
            << " read streams are coherent; bounded prefetch of "
            << window / 1024 << " KiB";
      } else {
        hint.prefetch_bytes = 0;
        why << a.random << "/" << a.streams
            << " read streams are random; disable read-ahead";
      }
    }
    if (a.unaligned * 2 >= a.streams) {
      hint.advise_alignment = true;
      if (why.tellp() > 0) why << "; ";
      why << a.unaligned << "/" << a.streams
          << " streams are not aligned to the "
          << options.stripe_size / (1024 * 1024) << " MiB stripe";
    }
    if (hint.prefetch_bytes == 0 && op == posix::OpType::kWrite &&
        !hint.advise_alignment) {
      continue;  // nothing actionable for this file/op
    }
    hint.rationale = why.str();
    hints.push_back(std::move(hint));
  }
  return hints;
}

}  // namespace eio::analysis
