// Direct unit tests for the wire-format primitives of the binary trace
// format: LEB128 varints (stream encoder, buffer encoder, ByteReader
// decoder), zigzag signed mapping, the bounds-checked ByteReader cursor
// and the footer parser's allocation bound. The format round-trip
// suites exercise these indirectly; here the edge cases — max-length
// varints, truncation mid-value, the INT64 extremes, an absurd chunk
// count — are pinned down on their own.
#include "ipm/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace eio::ipm::wire {
namespace {

std::string varint_bytes(std::uint64_t v) {
  std::ostringstream out(std::ios::binary);
  put_varint(out, v);
  return out.str();
}

TEST(WireVarintTest, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {
      0,
      1,
      127,
      128,
      129,
      16383,
      16384,
      0xDEADBEEF,
      std::uint64_t{1} << 56,
      std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    const std::string bytes = varint_bytes(v);
    ByteReader r{bytes.data(), bytes.data() + bytes.size()};
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_EQ(r.remaining(), 0u) << v;
  }
}

TEST(WireVarintTest, EncodedLengthsMatchLeb128) {
  // 7 bits per byte: 0..127 -> 1 byte, 128..16383 -> 2, ...,
  // UINT64_MAX -> the maximal 10-byte encoding.
  EXPECT_EQ(varint_bytes(0).size(), 1u);
  EXPECT_EQ(varint_bytes(127).size(), 1u);
  EXPECT_EQ(varint_bytes(128).size(), 2u);
  EXPECT_EQ(varint_bytes(16383).size(), 2u);
  EXPECT_EQ(varint_bytes(16384).size(), 3u);
  EXPECT_EQ(varint_bytes(std::numeric_limits<std::uint64_t>::max()).size(),
            10u);
}

TEST(WireVarintTest, AppendVarintMatchesStreamEncoding) {
  const std::uint64_t values[] = {0, 1, 300, 0xFFFFFFFFull,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::vector<char> buf;
    append_varint(buf, v);
    EXPECT_EQ(std::string(buf.begin(), buf.end()), varint_bytes(v)) << v;
  }
}

TEST(WireVarintTest, TruncatedStreamThrows) {
  // Cut the max-length encoding at every possible point: each prefix
  // must throw "truncated", never return a partial value.
  const std::string full = varint_bytes(std::numeric_limits<std::uint64_t>::max());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r{full.data(), full.data() + cut};
    EXPECT_THROW((void)r.varint(), std::runtime_error) << "cut " << cut;
  }
}

TEST(WireVarintTest, OverlongEncodingThrowsCorrupt) {
  // Eleven continuation bytes cannot encode a u64: the decoder must
  // reject it instead of silently wrapping the shift.
  std::string bad(11, static_cast<char>(0x80));
  bad.push_back(0x01);
  ByteReader r{bad.data(), bad.data() + bad.size()};
  EXPECT_THROW((void)r.varint(), std::runtime_error);
}

TEST(WireVarintTest, ByteReaderDecodesBackToBackVarints) {
  const std::uint64_t values[] = {0, 127, 128, 0xABCDEF,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::vector<char> buf;
  for (std::uint64_t v : values) append_varint(buf, v);
  ByteReader r{buf.data(), buf.data() + buf.size()};
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireVarintTest, ByteReaderTruncationThrows) {
  std::vector<char> buf;
  append_varint(buf, 0xFFFFull);  // 3 bytes
  ByteReader r{buf.data(), buf.data() + 1};  // cursor ends mid-varint
  EXPECT_THROW((void)r.varint(), std::runtime_error);
}

TEST(WireZigzagTest, RoundTripsInt64Extremes) {
  const std::int64_t values[] = {0,
                                 1,
                                 -1,
                                 2,
                                 -2,
                                 63,
                                 -64,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::min() + 1};
  for (std::int64_t v : values) {
    EXPECT_EQ(unzigzag(zigzag(v)), v) << v;
  }
}

TEST(WireZigzagTest, SmallMagnitudesStaySmall) {
  // The point of zigzag: near-zero signed values encode to near-zero
  // unsigned values (so their varints stay short).
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(-2), 3u);
  EXPECT_EQ(zigzag(2), 4u);
  EXPECT_EQ(zigzag(std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(varint_bytes(zigzag(-3)).size(), 1u);
}

TEST(WireByteReaderTest, ScalarsAndBytesAreBoundsChecked) {
  std::vector<char> buf;
  buf.push_back(0x42);
  const double pi = 3.14159;
  buf.resize(1 + sizeof(double));
  std::memcpy(buf.data() + 1, &pi, sizeof pi);
  buf.push_back('a');
  buf.push_back('b');

  ByteReader r{buf.data(), buf.data() + buf.size()};
  EXPECT_EQ(r.u8(), 0x42);
  double back = 0.0;
  std::memcpy(&back, r.bytes(sizeof back), sizeof back);
  EXPECT_EQ(back, pi);
  const char* ab = r.bytes(2);
  EXPECT_EQ(ab[0], 'a');
  EXPECT_EQ(ab[1], 'b');
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW((void)r.u8(), std::runtime_error);
  EXPECT_THROW((void)r.bytes(1), std::runtime_error);

  ByteReader short_f64{buf.data(), buf.data() + 4};
  (void)short_f64.u8();
  EXPECT_THROW((void)short_f64.bytes(sizeof(double)), std::runtime_error);
}

TEST(WireScalarTest, FixedWidthRoundTripAndTruncation) {
  std::ostringstream out(std::ios::binary);
  put<std::uint64_t>(out, 0x0123456789ABCDEFull);
  put<double>(out, -2.5);
  const std::string payload = out.str();

  ByteReader r{payload.data(), payload.data() + payload.size()};
  EXPECT_EQ(r.scalar<std::uint64_t>(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.scalar<double>(), -2.5);
  EXPECT_EQ(r.remaining(), 0u);

  ByteReader cut{payload.data(), payload.data() + payload.size() - 1};
  EXPECT_EQ(cut.scalar<std::uint64_t>(), 0x0123456789ABCDEFull);
  EXPECT_THROW((void)cut.scalar<double>(), std::runtime_error);
}

TEST(WireFooterTest, ChunkCountIsBoundedByTheBytesThatRemain) {
  // A count no footer of this size could hold is rejected before it
  // sizes the chunk vector (2^31 metas would be a ~128 GiB reserve).
  std::vector<char> footer;
  append_varint(footer, std::uint64_t{1} << 31);
  footer.resize(footer.size() + 64, '\0');
  ByteReader r{footer.data(), footer.data() + footer.size()};
  try {
    (void)read_footer(r);
    FAIL() << "absurd chunk count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "corrupt trace: absurd chunk count");
  }

  // The bound is exact: one meta of the minimum size fits.
  std::ostringstream one(std::ios::binary);
  put_varint(one, 1);
  put_chunk_meta(one, ChunkMeta{});
  put_varint(one, 0);
  const std::string bytes = one.str();
  EXPECT_EQ(bytes.size(), 1 + kMinChunkMetaBytes + 1);
  ByteReader ok{bytes.data(), bytes.data() + bytes.size()};
  EXPECT_EQ(read_footer(ok).first.size(), 1u);
}

}  // namespace
}  // namespace eio::ipm::wire
