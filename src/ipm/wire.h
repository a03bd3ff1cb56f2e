// Wire-format primitives for the binary trace format.
//
// The low-level vocabulary of the v3 container: little-endian
// fixed-width scalars, LEB128 varints, zigzag for signed fields, a
// bounds-checked in-memory cursor for hot decode paths, and the
// chunk-meta/footer/trailer records. Encoders write to a std::ostream;
// decoders read only from a byte image (the mapped or buffered file)
// through ByteReader, so every v3 input is parsed by the same
// bounds-checked code. Everything here is an internal detail of
// eio::ipm's serialization layer — analysis code should stay on the
// public surfaces in trace_stream.h / trace_v3.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ipm/trace.h"
#include "ipm/trace_stream.h"

namespace eio::ipm::wire {

// The format magics. A binary trace opens with an 8-byte magic and
// ends with an 8-byte trailer magic preceded by the u64 footer offset.
inline constexpr char kTsvMagic[] = "# ipm-io-trace";
inline constexpr char kMagicV3[8] = {'I', 'P', 'M', 'I', 'O', 'B', '3', '\n'};
inline constexpr char kTrailerV3[8] = {'I', 'P', 'M', '3', 'I', 'D', 'X', '\n'};

// The smallest encoded ChunkMeta: eight one-byte varints plus the two
// f64 times. A footer's chunk count is bounded by the bytes left for
// it, so a corrupt count is rejected before it sizes an allocation.
inline constexpr std::uint64_t kMinChunkMetaBytes = 8 + 2 * sizeof(double);

inline constexpr std::uint8_t kChunkTag = 0x01;
inline constexpr std::uint8_t kFooterTag = 0x00;

template <typename T>
void put(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

/// LEB128 unsigned varint — small integers (ranks, byte counts, op
/// codes) take 1-3 bytes instead of 8.
inline void put_varint(std::ostream& out, std::uint64_t value) {
  while (value >= 0x80) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  put<std::uint8_t>(out, static_cast<std::uint8_t>(value));
}

/// Varint append into a byte buffer (the columnar encoder's sink).
inline void append_varint(std::vector<char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(value)));
}

/// Zigzag for signed fields (phase labels, column deltas).
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked cursor over an in-memory image — the one decoder of
/// v3 bytes, reading the file as mapped (or buffered) with no istream
/// calls. Every read past `end` throws "truncated".
struct ByteReader {
  const char* p;
  const char* end;

  [[noreturn]] static void truncated() {
    throw std::runtime_error("truncated binary trace");
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end - p);
  }

  std::uint8_t u8() {
    if (p == end) truncated();
    return static_cast<std::uint8_t>(*p++);
  }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      std::uint8_t byte = u8();
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("corrupt varint in binary trace");
      }
    }
  }

  /// A sized sub-span of raw bytes (column payloads).
  const char* bytes(std::size_t n) {
    if (remaining() < n) truncated();
    const char* at = p;
    p += n;
    return at;
  }

  /// A fixed-width little-endian scalar (the f64 times, the u64
  /// trailer pointer).
  template <typename T>
  T scalar() {
    T value;
    std::memcpy(&value, bytes(sizeof value), sizeof value);
    return value;
  }
};

/// Fold one event into a chunk's footer metadata.
inline void fold_into(ChunkMeta& meta, const TraceEvent& e) {
  if (meta.events == 0) {
    meta.rank_lo = meta.rank_hi = e.rank;
    meta.phase_lo = meta.phase_hi = e.phase;
    meta.t_lo = e.start;
    meta.t_hi = e.end();
  } else {
    meta.rank_lo = std::min(meta.rank_lo, e.rank);
    meta.rank_hi = std::max(meta.rank_hi, e.rank);
    meta.phase_lo = std::min(meta.phase_lo, e.phase);
    meta.phase_hi = std::max(meta.phase_hi, e.phase);
    meta.t_lo = std::min(meta.t_lo, e.start);
    meta.t_hi = std::max(meta.t_hi, e.end());
  }
  ++meta.events;
  meta.op_mask |= 1u << static_cast<unsigned>(e.op);
  if (e.op == posix::OpType::kRead || e.op == posix::OpType::kWrite) {
    meta.data_bytes += e.bytes;
  }
}

inline void put_chunk_meta(std::ostream& out, const ChunkMeta& c) {
  put_varint(out, c.offset);
  put_varint(out, c.events);
  put_varint(out, c.op_mask);
  put_varint(out, c.rank_lo);
  put_varint(out, c.rank_hi);
  put_varint(out, zigzag(c.phase_lo));
  put_varint(out, zigzag(c.phase_hi));
  put<double>(out, c.t_lo);
  put<double>(out, c.t_hi);
  put_varint(out, c.data_bytes);
}

inline ChunkMeta read_chunk_meta(ByteReader& r) {
  ChunkMeta c;
  c.offset = r.varint();
  c.events = r.varint();
  c.op_mask = static_cast<std::uint32_t>(r.varint());
  c.rank_lo = static_cast<RankId>(r.varint());
  c.rank_hi = static_cast<RankId>(r.varint());
  c.phase_lo = static_cast<std::int32_t>(unzigzag(r.varint()));
  c.phase_hi = static_cast<std::int32_t>(unzigzag(r.varint()));
  c.t_lo = r.scalar<double>();
  c.t_hi = r.scalar<double>();
  c.data_bytes = r.varint();
  return c;
}

/// Parse a footer body (after its tag byte): chunk metas + total.
inline std::pair<std::vector<ChunkMeta>, std::uint64_t> read_footer(
    ByteReader& r) {
  auto chunk_count = r.varint();
  if (chunk_count > r.remaining() / kMinChunkMetaBytes) {
    throw std::runtime_error("corrupt trace: absurd chunk count");
  }
  std::vector<ChunkMeta> chunks;
  chunks.reserve(chunk_count);
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    chunks.push_back(read_chunk_meta(r));
  }
  auto total = r.varint();
  std::uint64_t sum = 0;
  for (const ChunkMeta& c : chunks) sum += c.events;
  if (sum != total) {
    throw std::runtime_error("corrupt trace: footer event counts disagree");
  }
  return {std::move(chunks), total};
}

/// Write the header (magic + ranks + name).
inline void write_header(std::ostream& out, std::uint32_t ranks,
                         const std::string& experiment) {
  out.write(kMagicV3, 8);
  put_varint(out, ranks);
  put_varint(out, experiment.size());
  out.write(experiment.data(),
            static_cast<std::streamsize>(experiment.size()));
}

/// Read the header back.
inline TraceMeta read_header(ByteReader& r) {
  if (r.remaining() < 8 || !std::equal(r.p, r.p + 8, kMagicV3)) {
    throw std::runtime_error("not a v3 binary ipm-io trace (missing magic)");
  }
  r.p += 8;
  TraceMeta meta;
  meta.ranks = static_cast<std::uint32_t>(r.varint());
  const auto len = static_cast<std::size_t>(r.varint());
  meta.experiment.assign(r.bytes(len), len);
  return meta;
}

/// Write the footer index + 16-byte trailer:
/// footer tag, chunk metas, total, then the fixed (footer offset +
/// trailer magic) record a reader finds at the end of the file.
inline void write_footer(std::ostream& out,
                         const std::vector<ChunkMeta>& chunks,
                         std::uint64_t total_events) {
  auto footer_offset = static_cast<std::uint64_t>(out.tellp());
  put<std::uint8_t>(out, kFooterTag);
  put_varint(out, chunks.size());
  for (const ChunkMeta& c : chunks) put_chunk_meta(out, c);
  put_varint(out, total_events);
  put<std::uint64_t>(out, footer_offset);
  out.write(kTrailerV3, 8);
}

}  // namespace eio::ipm::wire
