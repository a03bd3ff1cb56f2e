// Binary trace format v3: columnar chunks, per-column compression,
// zero-copy decode.
//
// The container is an "IPMIOB3\n" header, tagged chunks, a footer index
// of ChunkMeta records and a 16-byte trailer ("IPM3IDX\n"); each chunk
// stores eight per-column streams:
//
//   chunk   := 0x01 varint(count) column*8
//   column  := u8 enc varint(enc_len) [varint(raw_len)] payload
//
// Column order is fixed (start, duration, op, rank, file, offset,
// bytes, phase) and matches event order within each stream. The low
// seven bits of `enc` pick the base encoding — raw little-endian f64
// for the two time columns (bit-exact, memcpy-decodable), plain LEB128
// varint for op codes, and wraparound-safe delta+zigzag varint for the
// monotonic-ish integer columns (rank, file, offset, bytes, and
// zigzagged phase). Bit 0x80 flags an optional per-column byte-RLE
// compression pass, applied by the writer only when it shrinks the
// payload; raw_len (the decompressed size) is present exactly when
// that flag is set. Every encoding is exact: decoding a v3 file and
// re-encoding the events reproduces the file byte for byte.
//
// The explicit length prefix on every column is what buys selective
// decode: a reader hands decode_chunk_v3 a ColumnMask and unneeded
// columns are skipped in O(1), so a summary scan touching op + bytes +
// duration never parses ranks, files, offsets or phases.
//
// There is one reader. Every v3 input is parsed from the file's byte
// image — a MappedFile (see mapped_file.h), or a buffer holding a
// stream's bytes — by read_index_v3 and, chunk by chunk, by
// decode_chunk_v3 via ChunkReader. A scan decodes columns straight
// from the page cache with no read() syscalls and no staging copies.
//
// Error contract: truncated or corrupt input — short column stream,
// bad compression header, footer past EOF, wrong trailer, records that
// do not tile the file — always throws std::runtime_error, never
// crashes or yields a partial batch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ipm/columns.h"
#include "ipm/mapped_file.h"
#include "ipm/trace_stream.h"

namespace eio::ipm {

/// Most events one chunk may hold. The writer refuses a larger
/// chunk_events and read_index_v3 rejects a footer declaring one. It
/// equals the default reservoir capacity, so a chunk partial's
/// reservoir always holds its whole chunk — what the fold–merge
/// identity of the analysis kernels needs (core/kernel.h).
inline constexpr std::uint64_t kMaxChunkEvents = std::uint64_t{1} << 16;

/// Streaming v3 writer: emits an indexed trace file one event at a
/// time, without ever materializing the event list. Chunk boundaries
/// depend only on chunk_events, which keeps chunk-partial analysis
/// (per-chunk reservoir substreams, hint admission) a function of the
/// events and this option alone; the default is also where the IPM
/// monitor cuts its capture batches.
class TraceWriterV3 {
 public:
  struct Options {
    /// Events buffered per chunk, 1..kMaxChunkEvents (0 means 1).
    std::size_t chunk_events = 4096;
    bool compress = true;  ///< RLE columns when it shrinks the payload
  };

  TraceWriterV3(std::ostream& out, std::string experiment,
                std::uint32_t ranks);
  TraceWriterV3(std::ostream& out, std::string experiment,
                std::uint32_t ranks, Options options);
  ~TraceWriterV3();

  TraceWriterV3(const TraceWriterV3&) = delete;
  TraceWriterV3& operator=(const TraceWriterV3&) = delete;

  void add(const TraceEvent& event);

  /// Flush the trailing chunk and write the footer index + trailer.
  /// Idempotent; called by the destructor if the caller forgot, but
  /// explicit calls are preferred (destructors swallow I/O errors).
  void finish();

  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return total_events_;
  }

 private:
  void flush_chunk();
  void write_column(std::uint8_t base_enc);

  std::ostream* out_;
  Options options_;
  std::vector<TraceEvent> buffer_;
  std::vector<ChunkMeta> chunks_;
  std::vector<char> col_buf_;  ///< plain column payload being built
  std::vector<char> rle_buf_;  ///< RLE candidate for the same payload
  std::uint64_t total_events_ = 0;
  bool finished_ = false;
};

/// Parse the footer index from a v3 file's whole byte image (mapped or
/// buffered). Validates the header, trailer magic and footer bounds,
/// and that the records tile the file: the first chunk (else the
/// footer) starts where the header ends, chunk offsets strictly
/// increase, and the footer ends exactly at the trailer; no chunk may
/// declare more than kMaxChunkEvents events. Together with
/// decode_chunk_v3 consuming each chunk span exactly, no byte of the
/// file goes unchecked.
[[nodiscard]] TraceIndex read_index_v3(std::span<const char> image);

/// Decode one v3 chunk from an in-memory image. `data` must span
/// exactly the chunk record — tag byte through last column payload
/// (see chunk_byte_length); the decode must consume every byte or it
/// throws. Only the masked columns are materialized (into `scratch`);
/// the rest are skipped via their length prefixes. The returned spans
/// alias `scratch` and stay valid until the next decode into it.
ColumnBatch decode_chunk_v3(const char* data, std::size_t len,
                            const ChunkMeta& chunk, ColumnScratch& scratch,
                            ColumnMask mask = kColAll);

/// Chunk decoder over one v3 byte image: a file it maps (or a shared
/// mapping it borrows, or a caller's buffer) plus its own column
/// scratch, so a scan's steady state allocates nothing. Every v3 chunk
/// any reader visits — Trace::load/read_binary, FileTraceSource and
/// each ParallelTraceScanner worker — is decoded through read_columns.
/// One reader per thread; any number may share one image.
class ChunkReader {
 public:
  /// `map` must outlive the reader; null makes the reader map `path`
  /// itself. `format` must be kBinaryV3, the one indexed format.
  ChunkReader(const std::string& path, TraceFormat format,
              const MappedFile* map = nullptr);
  /// Decode from a caller-owned image that must outlive the reader.
  explicit ChunkReader(std::span<const char> image) : image_(image) {}

  /// The whole file's bytes, for read_index_v3.
  [[nodiscard]] std::span<const char> image() const noexcept { return image_; }

  /// Decode one indexed chunk as a ColumnBatch with only the masked
  /// columns materialized; spans stay valid until the next read.
  [[nodiscard]] ColumnBatch read_columns(const TraceIndex& index,
                                         std::size_t chunk, ColumnMask mask);

 private:
  std::unique_ptr<const MappedFile> owned_;  ///< set when no map was lent
  std::span<const char> image_;
  ColumnScratch scratch_;
};

/// The per-column byte-RLE codec (exposed for tests). Control byte
/// c in [0,127]: the next c+1 bytes are literals; c in [128,255]: the
/// next byte repeats c-125 (= 3..130) times. Decompression must yield
/// exactly raw_len bytes and consume all of src, else it throws.
void rle_compress(std::span<const char> src, std::vector<char>& out);
void rle_decompress(std::span<const char> src, std::size_t raw_len,
                    std::vector<char>& out);

}  // namespace eio::ipm
