// Binary v3 format: columnar round-trips, byte-exact re-encoding, the
// footer index and chunk hints, selective (masked) decode, the RLE
// codec, the mapped-file path, and the corrupt/truncated-input checks
// — crafted shapes, every truncation, and a seeded mutation sweep. A
// damaged input must throw std::runtime_error from every reader, never
// crash, throw anything else, or parse as complete.
#include "ipm/trace_v3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ipm/mapped_file.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/wire.h"
#include "temp_path.h"
#include "trace_rows.h"

namespace eio::ipm {
namespace {

TraceEvent make_event(double start, double dur, posix::OpType op, RankId rank,
                      Bytes bytes, std::int32_t phase = 0) {
  TraceEvent e;
  e.start = start;
  e.duration = dur;
  e.op = op;
  e.rank = rank;
  e.file = 1;
  e.offset = 123456789;
  e.bytes = bytes;
  e.phase = phase;
  return e;
}

Trace sample_trace(std::size_t events) {
  Trace t("v3-test", 8);
  for (std::size_t i = 0; i < events; ++i) {
    t.add(make_event(0.25 * static_cast<double>(i), 0.125,
                     i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite,
                     static_cast<RankId>(i % 8), 1 << 16,
                     static_cast<std::int32_t>(i / 10)));
  }
  return t;
}

std::string v3_bytes(const Trace& t, std::size_t chunk_events = 4096) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  TraceWriterV3 writer(ss, t.experiment(), t.ranks(),
                       TraceWriterV3::Options{.chunk_events = chunk_events});
  for (const auto& e : t.events()) writer.add(e);
  writer.finish();
  return ss.str();
}

TEST(TraceV3Test, RoundTripPreservesEverything) {
  Trace t("v3-roundtrip", 16);
  t.add(make_event(0.125, 2.5, posix::OpType::kWrite, 3, 512, 7));
  t.add(make_event(3.0, 0.001, posix::OpType::kSeek, 5, 0, -2));
  t.add(make_event(3.5, 1.0, posix::OpType::kRead, 7, 4096, 7));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v3(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_EQ(back.experiment(), "v3-roundtrip");
  EXPECT_EQ(back.ranks(), 16u);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.events()[0].start, 0.125);
  EXPECT_EQ(back.events()[0].op, posix::OpType::kWrite);
  EXPECT_EQ(back.events()[0].offset, 123456789u);
  EXPECT_EQ(back.events()[1].phase, -2);  // negative phase survives zigzag
  EXPECT_EQ(back.events()[2].op, posix::OpType::kRead);
}

TEST(TraceV3Test, EmptyTraceRoundTrips) {
  Trace t("v3-empty", 4);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v3(ss);
  Trace back = Trace::read_binary(ss);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.experiment(), "v3-empty");
  EXPECT_EQ(back.ranks(), 4u);
}

TEST(TraceV3Test, LoadAutoDetectsV3) {
  Trace t = sample_trace(5);
  std::string path = testutil::temp_path(".v3");
  t.save_binary_v3(path);
  Trace back = Trace::load(path);
  EXPECT_EQ(back.size(), 5u);
  EXPECT_EQ(back.experiment(), "v3-test");
  std::remove(path.c_str());
}

TEST(TraceV3Test, V3RewriteIsByteExact) {
  // Every column encoding is exact (raw f64 time columns, wraparound-
  // safe delta varints), so decoding a v3 file and re-encoding the
  // events reproduces the original bytes — including doubles that are
  // not round decimals.
  Trace t("exact", 32);
  for (int i = 0; i < 500; ++i) {
    t.add(make_event(1.0 / 3.0 * i, 1e-7 * (i % 97),
                     static_cast<posix::OpType>(i % 5),
                     static_cast<RankId>(i % 32), (i % 7) * 4096 + i,
                     (i % 13) - 6));
  }
  std::stringstream first(std::ios::in | std::ios::out | std::ios::binary);
  t.write_binary_v3(first);

  std::stringstream first_read(first.str());
  Trace via = Trace::read_binary(first_read);
  ASSERT_EQ(via.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(via.events()[i].start, t.events()[i].start);
    EXPECT_EQ(via.events()[i].duration, t.events()[i].duration);
  }
  std::stringstream second(std::ios::in | std::ios::out | std::ios::binary);
  via.write_binary_v3(second);

  EXPECT_EQ(first.str(), second.str());
}

TEST(TraceV3Test, WriterChunksAndFooterIndexAgree) {
  Trace t = sample_trace(30);
  TraceIndex index = read_index_v3(v3_bytes(t, 8));
  EXPECT_EQ(index.meta.experiment, "v3-test");
  EXPECT_EQ(index.meta.ranks, 8u);
  ASSERT_TRUE(index.meta.declared_events.has_value());
  EXPECT_EQ(*index.meta.declared_events, 30u);
  ASSERT_EQ(index.chunks.size(), 4u);  // 8 + 8 + 8 + 6

  std::uint64_t total = 0;
  std::uint64_t prev_offset = 0;
  for (const ChunkMeta& c : index.chunks) {
    total += c.events;
    EXPECT_GT(c.offset, prev_offset);
    prev_offset = c.offset;
    EXPECT_NE(c.op_mask, 0u);
    EXPECT_LE(c.rank_lo, c.rank_hi);
    EXPECT_LE(c.t_lo, c.t_hi);
    EXPECT_GT(c.data_bytes, 0u);
  }
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(index.chunks.back().events, 6u);
}

TEST(TraceV3Test, ChunkHintAdmitsUsesFooterMetadata) {
  ChunkMeta chunk;
  chunk.op_mask = 1u << static_cast<unsigned>(posix::OpType::kWrite);
  chunk.rank_lo = 2;
  chunk.rank_hi = 5;
  chunk.phase_lo = -1;
  chunk.phase_hi = 3;
  EXPECT_TRUE(ChunkHint{}.admits(chunk));
  EXPECT_TRUE(ChunkHint{.op = posix::OpType::kWrite}.admits(chunk));
  EXPECT_FALSE(ChunkHint{.op = posix::OpType::kRead}.admits(chunk));
  EXPECT_TRUE(ChunkHint{.phase = -1}.admits(chunk));
  EXPECT_FALSE(ChunkHint{.phase = 4}.admits(chunk));
  EXPECT_TRUE(ChunkHint{.rank = 5}.admits(chunk));
  EXPECT_FALSE(ChunkHint{.rank = 6}.admits(chunk));
}

TEST(TraceV3Test, MaskedDecodeSkipsUnrequestedColumns) {
  Trace t = sample_trace(100);
  const std::string bytes = v3_bytes(t, 64);
  TraceIndex index = read_index_v3(bytes);
  ASSERT_EQ(index.chunks.size(), 2u);
  const char* chunk0 = bytes.data() + index.chunks[0].offset;
  const auto len0 = static_cast<std::size_t>(chunk_byte_length(index, 0));

  ColumnScratch scratch;
  ColumnBatch partial = decode_chunk_v3(chunk0, len0, index.chunks[0],
                                        scratch, kColDuration | kColOp);
  ASSERT_EQ(partial.size(), 64u);
  EXPECT_EQ(partial.duration.size(), 64u);
  EXPECT_EQ(partial.op.size(), 64u);
  // Unmasked columns are left empty, never partially filled.
  EXPECT_TRUE(partial.start.empty());
  EXPECT_TRUE(partial.rank.empty());
  EXPECT_TRUE(partial.phase.empty());

  // Masked values agree with the full decode, element for element.
  ColumnScratch full_scratch;
  ColumnBatch full =
      decode_chunk_v3(chunk0, len0, index.chunks[0], full_scratch, kColAll);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(partial.duration[i], full.duration[i]);
    EXPECT_EQ(partial.op[i], full.op[i]);
    EXPECT_EQ(full.event_at(i).start, t.events()[i].start);
  }
}

TEST(TraceV3Test, ShredEventAtRoundTrips) {
  Trace t = sample_trace(50);
  ColumnScratch scratch;
  ColumnBatch cols = shred(t.events(), scratch, kColAll);
  ASSERT_EQ(cols.size(), 50u);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const TraceEvent row = cols.event_at(i);
    EXPECT_EQ(row.start, t.events()[i].start);
    EXPECT_EQ(row.duration, t.events()[i].duration);
    EXPECT_EQ(row.op, t.events()[i].op);
    EXPECT_EQ(row.rank, t.events()[i].rank);
    EXPECT_EQ(row.offset, t.events()[i].offset);
    EXPECT_EQ(row.bytes, t.events()[i].bytes);
    EXPECT_EQ(row.phase, t.events()[i].phase);
  }
}

TEST(TraceV3Test, RleCodecRoundTripsEveryShape) {
  const std::vector<std::vector<char>> cases = {
      {},                                      // empty
      {'a'},                                   // single literal
      {'a', 'b', 'c', 'd'},                    // literals only
      std::vector<char>(3, '\0'),              // minimal run
      std::vector<char>(130, 'x'),             // one max-length run
      std::vector<char>(131, 'x'),             // run + 1 spill
      std::vector<char>(4096, '\0'),           // long zero run
      {'a', 'a', 'b', 'b'},                    // runs of 2 stay literal
  };
  for (const auto& src : cases) {
    std::vector<char> packed, back;
    rle_compress(src, packed);
    rle_decompress(packed, src.size(), back);
    EXPECT_EQ(back, src) << "raw_len=" << src.size();
  }
  // Mixed pattern with every control-byte kind.
  std::vector<char> mixed;
  for (int i = 0; i < 300; ++i) mixed.push_back(static_cast<char>(i % 251));
  mixed.insert(mixed.end(), 200, '\x7f');
  mixed.push_back('z');
  std::vector<char> packed, back;
  rle_compress(mixed, packed);
  rle_decompress(packed, mixed.size(), back);
  EXPECT_EQ(back, mixed);
}

TEST(TraceV3Test, RleDecompressRejectsCorruptStreams) {
  std::vector<char> src(64, '\0');
  std::vector<char> packed, out;
  rle_compress(src, packed);
  // Wrong declared size in either direction throws.
  EXPECT_THROW(rle_decompress(packed, 63, out), std::runtime_error);
  EXPECT_THROW(rle_decompress(packed, 65, out), std::runtime_error);
  // A truncated stream throws rather than yielding a short buffer.
  std::vector<char> cut(packed.begin(), packed.end() - 1);
  EXPECT_THROW(rle_decompress(cut, 64, out), std::runtime_error);
  // A literal control byte promising more bytes than remain throws.
  std::vector<char> lying = {'\x05', 'a'};
  EXPECT_THROW(rle_decompress(lying, 6, out), std::runtime_error);
}

TEST(TraceV3Test, EveryTruncationOfAV3FileThrows) {
  Trace t = sample_trace(12);
  const std::string bytes = v3_bytes(t, 4);
  // The trailer requirement means no proper prefix — not even one cut
  // exactly at a chunk, column, or footer boundary — reads as a
  // complete trace. This sweep covers "truncated column stream" at
  // every possible cut point.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::stringstream damaged(bytes.substr(0, cut));
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "prefix of " << cut << " bytes parsed as complete";
  }
}

TEST(TraceV3Test, CorruptTrailerMagicThrows) {
  Trace t = sample_trace(4);
  std::string bytes = v3_bytes(t);
  bytes[bytes.size() - 1] ^= 0x5a;  // damage the trailer magic
  std::stringstream damaged(bytes);
  EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error);
  EXPECT_THROW((void)read_index_v3(bytes), std::runtime_error);
}

TEST(TraceV3Test, FooterPointingPastEofThrows) {
  Trace t = sample_trace(8);
  std::string bytes = v3_bytes(t, 4);
  // The trailer's u64 footer offset sits 16 bytes from the end; point
  // it past EOF and at the trailer itself — both must be rejected.
  for (std::uint64_t bogus :
       {static_cast<std::uint64_t>(bytes.size()) + 100,
        static_cast<std::uint64_t>(bytes.size()) - 8}) {
    std::string patched = bytes;
    for (int b = 0; b < 8; ++b) {
      patched[patched.size() - 16 + b] =
          static_cast<char>((bogus >> (8 * b)) & 0xFF);
    }
    EXPECT_THROW((void)read_index_v3(patched), std::runtime_error)
        << "footer offset " << bogus << " accepted";
    std::stringstream damaged2(patched);
    EXPECT_THROW((void)Trace::read_binary(damaged2), std::runtime_error);
  }
}

/// Parse the column headers of the first chunk and return the byte
/// offset of column `col`'s header (the encoding byte).
std::size_t column_header_offset(const std::string& bytes,
                                 const ChunkMeta& chunk, int col) {
  wire::ByteReader r{bytes.data() + chunk.offset,
                     bytes.data() + bytes.size()};
  EXPECT_EQ(r.u8(), 0x01u);  // chunk tag
  (void)r.varint();          // event count
  for (int c = 0; c < col; ++c) {
    std::uint8_t enc = r.u8();
    std::uint64_t enc_len = r.varint();
    if ((enc & 0x80u) != 0) (void)r.varint();  // raw_len
    (void)r.bytes(static_cast<std::size_t>(enc_len));
  }
  return static_cast<std::size_t>(r.p - bytes.data());
}

TEST(TraceV3Test, CorruptColumnEncodingByteThrows) {
  Trace t = sample_trace(16);
  std::string bytes = v3_bytes(t);
  TraceIndex index = read_index_v3(bytes);
  ASSERT_EQ(index.chunks.size(), 1u);
  // Damage each column's encoding byte in turn: the decoder pins the
  // expected encoding per column, so any substitution throws.
  for (int col = 0; col < 8; ++col) {
    std::string patched = bytes;
    std::size_t at = column_header_offset(bytes, index.chunks[0], col);
    patched[at] = '\x7e';  // not a valid encoding for any column
    std::stringstream damaged(patched);
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "column " << col << " accepted a bogus encoding";
  }
}

TEST(TraceV3Test, CorruptCompressionHeaderThrows) {
  // Constant rank/file/offset/bytes columns delta-encode to all-zero
  // payloads, which the writer RLE-compresses — guaranteeing at least
  // one column with the 0x80 flag to corrupt.
  Trace t("rle", 4);
  for (int i = 0; i < 256; ++i) {
    t.add(make_event(0.5 * i, 0.25, posix::OpType::kWrite, 2, 8192, 3));
  }
  std::string bytes = v3_bytes(t);
  TraceIndex index = read_index_v3(bytes);
  ASSERT_EQ(index.chunks.size(), 1u);

  int compressed_cols = 0;
  for (int col = 0; col < 8; ++col) {
    std::size_t at = column_header_offset(bytes, index.chunks[0], col);
    if ((static_cast<unsigned char>(bytes[at]) & 0x80u) == 0) continue;
    ++compressed_cols;
    // The varint after enc_len declares the decompressed size; a
    // mismatch with what the RLE stream actually yields must throw.
    wire::ByteReader r{bytes.data() + at, bytes.data() + bytes.size()};
    (void)r.u8();
    (void)r.varint();  // enc_len
    std::size_t raw_len_at = static_cast<std::size_t>(r.p - bytes.data());
    std::string patched = bytes;
    patched[raw_len_at] = static_cast<char>(patched[raw_len_at] ^ 0x01);
    std::stringstream damaged(patched);
    EXPECT_THROW((void)Trace::read_binary(damaged), std::runtime_error)
        << "column " << col << " accepted a corrupt raw_len";
    // Stripping the compression flag makes the payload nonsense for
    // the base encoding; that must throw too, not mis-decode.
    std::string stripped = bytes;
    stripped[at] = static_cast<char>(stripped[at] & 0x7F);
    std::stringstream damaged2(stripped);
    EXPECT_THROW((void)Trace::read_binary(damaged2), std::runtime_error)
        << "column " << col << " mis-decoded an RLE payload as raw";
  }
  EXPECT_GE(compressed_cols, 4);  // rank, file, offset, bytes at minimum
}

TEST(TraceV3Test, MappedFileRejectsEmptyAndMissingFiles) {
  const std::string missing = testutil::temp_path("_nonexistent");
  EXPECT_THROW(MappedFile map(missing), std::runtime_error);

  const std::string empty = testutil::temp_path("_empty");
  { std::ofstream out(empty, std::ios::binary); }
  EXPECT_THROW(MappedFile map(empty), std::runtime_error);
  // The sniffer also refuses a zero-length trace outright.
  EXPECT_THROW(FileTraceSource source(empty), std::runtime_error);
  std::remove(empty.c_str());
}

TEST(TraceV3Test, MappedFileContentsMatchStreamRead) {
  Trace t = sample_trace(20);
  const std::string path = testutil::temp_path(".v3");
  t.save_binary_v3(path);
  std::string bytes = v3_bytes(t);
  MappedFile map(path);
  ASSERT_EQ(map.size(), bytes.size());
  EXPECT_EQ(std::memcmp(map.data(), bytes.data(), bytes.size()), 0);
  std::remove(path.c_str());
}

TEST(TraceV3Test, FileTraceSourceUsesZeroCopyForV3) {
  Trace t = sample_trace(40);
  const std::string tsv = testutil::temp_path(".tsv");
  const std::string v3 = testutil::temp_path(".v3");
  t.save(tsv);
  t.save_binary_v3(v3);

  FileTraceSource tsv_source(tsv);
  FileTraceSource v3_source(v3);
  EXPECT_EQ(tsv_source.format(), TraceFormat::kTsv);
  EXPECT_EQ(v3_source.format(), TraceFormat::kBinaryV3);
  ASSERT_TRUE(v3_source.index().has_value());  // the footer index
  EXPECT_FALSE(tsv_source.index().has_value());

  // Both formats replay the identical event sequence.
  std::vector<double> tsv_starts, v3_starts;
  testutil::for_each_event(
      tsv_source, [&](const TraceEvent& e) { tsv_starts.push_back(e.start); });
  testutil::for_each_event(
      v3_source, [&](const TraceEvent& e) { v3_starts.push_back(e.start); });
  EXPECT_EQ(v3_starts, tsv_starts);
  EXPECT_EQ(v3_source.event_count(), tsv_source.event_count());
  std::remove(tsv.c_str());
  std::remove(v3.c_str());
}

TEST(TraceV3Test, HintedScanSkipsNonMatchingChunks) {
  Trace t("phased", 4);
  for (int i = 0; i < 16; ++i) {
    t.add(make_event(i, 0.5, posix::OpType::kWrite,
                     static_cast<RankId>(i % 4), 64, i < 8 ? 1 : 2));
  }
  std::string path = testutil::temp_path(".v3");
  {
    std::ofstream file(path, std::ios::binary);
    TraceWriterV3 writer(file, t.experiment(), t.ranks(),
                         TraceWriterV3::Options{.chunk_events = 8});
    for (const auto& e : t.events()) writer.add(e);
    writer.finish();
  }

  FileTraceSource source(path);
  EXPECT_EQ(source.format(), TraceFormat::kBinaryV3);
  ASSERT_TRUE(source.index().has_value());
  ASSERT_EQ(source.index()->chunks.size(), 2u);

  auto visited = [&source](const ChunkHint& hint) {
    std::size_t n = 0;
    source.for_each_columns_hinted(
        hint, kColPhase, [&n](const ColumnBatch& b) { n += b.size(); });
    return n;
  };
  EXPECT_EQ(visited(ChunkHint{.phase = 2}), 8u);
  EXPECT_EQ(visited(ChunkHint{.op = posix::OpType::kFsync}), 0u);
  EXPECT_EQ(visited(ChunkHint{}), 16u);
  std::remove(path.c_str());
}

TEST(TraceV3Test, UncompressedWriterOptionRoundTrips) {
  Trace t = sample_trace(64);
  std::stringstream plain(std::ios::in | std::ios::out | std::ios::binary);
  {
    TraceWriterV3 writer(plain, t.experiment(), t.ranks(),
                         TraceWriterV3::Options{.compress = false});
    for (const auto& e : t.events()) writer.add(e);
    writer.finish();
  }
  Trace back = Trace::read_binary(plain);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.events()[i].start, t.events()[i].start);
    EXPECT_EQ(back.events()[i].bytes, t.events()[i].bytes);
  }
  // Compression on the same trace must not be larger than necessary:
  // the writer only applies RLE when it shrinks a column, so the
  // compressed file is never bigger than the plain one.
  EXPECT_LE(v3_bytes(t).size(), plain.str().size());
}

/// A file whose records do not tile it must be rejected by every
/// reader that opens it from disk, and by the stream reader.
void expect_rejected_everywhere(const std::string& bytes,
                                const std::string& message) {
  const std::string path = testutil::temp_path(".v3");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto expect_message = [&message](const std::function<void()>& read,
                                   const char* reader) {
    try {
      read();
      ADD_FAILURE() << reader << " accepted the file";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), message) << reader;
    }
  };
  expect_message([&] { FileTraceSource source(path); }, "FileTraceSource");
  expect_message([&] { ParallelTraceScanner scanner(path); },
                 "ParallelTraceScanner");
  expect_message([&] { (void)Trace::load(path); }, "Trace::load");
  expect_message(
      [&] {
        std::stringstream in(bytes);
        (void)Trace::read_binary(in);
      },
      "Trace::read_binary");
  std::remove(path.c_str());
}

TEST(TraceV3Test, JunkBeforeTheTrailerIsRejected) {
  // The footer must end exactly where the trailer begins; the footer
  // offset in the trailer still points at the real footer.
  const std::string bytes = v3_bytes(sample_trace(48), 16);
  const std::size_t at = bytes.size() - 16;
  const std::string junked =
      bytes.substr(0, at) + std::string(7, '\x5a') + bytes.substr(at);
  expect_rejected_everywhere(
      junked, "corrupt trace: footer does not end at the trailer");
}

TEST(TraceV3Test, JunkAfterTheHeaderIsRejected) {
  // Five bytes between header and first chunk, with every chunk offset
  // and the trailer's footer pointer shifted to match: an index that
  // is self-consistent but does not start where the header ends.
  const std::string bytes = v3_bytes(sample_trace(48), 16);
  TraceIndex index = read_index_v3(bytes);
  const std::uint64_t header_end = index.chunks.front().offset;
  std::ostringstream out(std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(header_end));
  out << std::string(5, '\x5a');
  out.write(bytes.data() + header_end,
            static_cast<std::streamsize>(index.footer_offset - header_end));
  for (ChunkMeta& c : index.chunks) c.offset += 5;
  wire::write_footer(out, index.chunks, *index.meta.declared_events);
  expect_rejected_everywhere(
      out.str(), "corrupt trace: first chunk does not start at the header end");
}

TEST(TraceV3Test, AbsurdFooterChunkCountIsRejected) {
  // A footer declaring 2^31 chunks in a few dozen bytes must fail on
  // the count, before anything is sized by it.
  std::ostringstream out(std::ios::binary);
  wire::write_header(out, 4, "absurd");
  const auto footer_offset = static_cast<std::uint64_t>(out.tellp());
  wire::put<std::uint8_t>(out, wire::kFooterTag);
  wire::put_varint(out, std::uint64_t{1} << 31);
  out << std::string(48, '\0');
  wire::put<std::uint64_t>(out, footer_offset);
  out.write(wire::kTrailerV3, 8);
  expect_rejected_everywhere(out.str(), "corrupt trace: absurd chunk count");
}

TEST(TraceV3Test, OversizedChunkIsRejected) {
  // A footer declaring one chunk one event past kMaxChunkEvents (the
  // total adjusted to match) fails in the index, naming the chunk,
  // before any chunk is decoded.
  const std::string bytes = v3_bytes(sample_trace(48), 16);
  TraceIndex index = read_index_v3(bytes);
  ASSERT_EQ(index.chunks.size(), 3u);
  std::ostringstream out(std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(index.footer_offset));
  index.chunks[1].events = kMaxChunkEvents + 1;
  wire::write_footer(out, index.chunks, 16 + (kMaxChunkEvents + 1) + 16);
  expect_rejected_everywhere(
      out.str(), "corrupt trace: chunk 1 declares 65537 events (limit 65536)");
}

TEST(TraceV3Test, WriterRefusesChunksAboveTheLimit) {
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(TraceWriterV3(out, "x", 1, {.chunk_events = kMaxChunkEvents + 1}),
               std::logic_error);
  std::ostringstream ok(std::ios::binary);
  TraceWriterV3 writer(ok, "x", 1, {.chunk_events = kMaxChunkEvents});
  writer.add(make_event(0.0, 1.0, posix::OpType::kWrite, 0, 4096));
  writer.finish();
  EXPECT_EQ(read_index_v3(ok.str()).chunks.size(), 1u);
}

TEST(TraceV3Test, DeclaredColumnSizesAreCheckedBeforeAllocating) {
  // A chunk declaring the most events a chunk may hold, in a few
  // bytes, must fail on its column sizes before the decoder sizes a
  // column for that count.
  const std::uint64_t n = kMaxChunkEvents;
  ChunkMeta meta;
  meta.events = n;
  ColumnScratch scratch;
  auto decode_error = [&](const std::string& columns, ColumnMask mask) {
    std::ostringstream out(std::ios::binary);
    wire::put<std::uint8_t>(out, wire::kChunkTag);
    wire::put_varint(out, n);
    out << columns;
    const std::string bytes = out.str();
    try {
      (void)decode_chunk_v3(bytes.data(), bytes.size(), meta, scratch, mask);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  auto column = [](std::uint8_t enc, std::uint64_t raw_len,
                   const std::string& payload) {
    std::ostringstream out(std::ios::binary);
    wire::put<std::uint8_t>(out, enc);
    wire::put_varint(out, payload.size());
    if ((enc & 0x80u) != 0) wire::put_varint(out, raw_len);
    out << payload;
    return out.str();
  };
  // An RLE start column claiming 8n bytes from a 2-byte payload, which
  // can expand to 130 bytes at most.
  EXPECT_EQ(decode_error(column(0x80, 8 * n, std::string("\xff\x00", 2)),
                         kColStart),
            "corrupt v3 trace: absurd column length");
  // A one-byte op column cannot hold n varints (the skipped time
  // columns are empty).
  EXPECT_EQ(decode_error(column(0, 0, "") + column(0, 0, "") +
                             column(1, 1, std::string(1, '\x03')),
                         kColOp),
            "corrupt v3 trace: column length mismatch");
}

/// One seeded mutation of `clean`: 1-8 byte flips, a truncation, a
/// range spliced over another spot, or a range duplicated in place.
std::string mutate(const std::string& clean, rng::Stream& rng) {
  std::string m = clean;
  const std::size_t n = m.size();
  const std::size_t len = 1 + rng.index(std::min<std::size_t>(64, n));
  switch (rng.index(4)) {
    case 0:
      for (std::uint64_t k = 1 + rng.index(8); k > 0; --k) {
        m[rng.index(n)] ^= static_cast<char>(1 + rng.index(255));
      }
      break;
    case 1:
      m.resize(rng.index(n));
      break;
    case 2: {
      const std::size_t from = rng.index(n - len + 1);
      const std::size_t to = rng.index(n - len + 1);
      m.replace(to, len, clean, from, len);
      break;
    }
    default: {
      const std::size_t from = rng.index(n - len + 1);
      m.insert(rng.index(n + 1), clean, from, len);
      break;
    }
  }
  return m;
}

/// Counts events; enough for scan_kernels to decode every column.
struct CountKernel {
  std::uint64_t events = 0;
  [[nodiscard]] ColumnMask required_columns() const { return kColAll; }
  void add_batch(const ColumnBatch& batch) { events += batch.size(); }
  void merge(CountKernel&& other) { events += other.events; }
};

TEST(TraceV3Test, MutationSweepReadsOrThrowsRuntimeError) {
  // Every mutant of a 3-chunk image either reads back or throws
  // std::runtime_error — no other exception, no crash. Values are not
  // asserted: without checksums some mutants still read back. Every
  // tenth mutant also goes through the file readers, which must reach
  // the same verdict as the stream reader whenever it is a v3 file.
  const std::string clean = v3_bytes(sample_trace(150), 64);
  ASSERT_EQ(read_index_v3(clean).chunks.size(), 3u);
  const std::string path = testutil::temp_path(".v3");
  rng::Stream rng(0x5eed);
  int rejected = 0;
  for (int k = 0; k < 2000; ++k) {
    const std::string mutant = mutate(clean, rng);
    // True when `read` threw std::runtime_error; any other exception
    // fails the test, naming the mutant.
    auto throws = [k](const char* reader, const std::function<void()>& read) {
      try {
        read();
      } catch (const std::runtime_error&) {
        return true;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << k << ": " << reader << " threw "
                      << e.what();
      } catch (...) {
        ADD_FAILURE() << "mutant " << k << ": " << reader
                      << " threw a non-std exception";
      }
      return false;
    };
    const bool stream_rejects = throws("Trace::read_binary", [&] {
      std::stringstream in(mutant);
      (void)Trace::read_binary(in);
    });
    rejected += stream_rejects ? 1 : 0;
    if (k % 10 != 0) continue;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    const bool file_rejects = throws("FileTraceSource", [&] {
      FileTraceSource source(path);
      source.for_each_columns(kColAll, [](const ColumnBatch&) {});
    });
    const bool scan_rejects = throws("ParallelTraceScanner", [&] {
      ParallelTraceScanner scanner(path, ScanOptions{.jobs = 2});
      (void)scanner.scan_kernels([](std::size_t) { return CountKernel{}; });
    });
    if (mutant.compare(0, 8, wire::kMagicV3, 8) == 0) {
      EXPECT_EQ(file_rejects, stream_rejects) << "mutant " << k;
      EXPECT_EQ(scan_rejects, stream_rejects) << "mutant " << k;
    }
  }
  // Sanity: the sweep damages most images, but not all of them.
  EXPECT_GT(rejected, 1000);
  EXPECT_LT(rejected, 2000);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eio::ipm
