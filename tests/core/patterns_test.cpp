// Unit tests for access-pattern detection and file-system hints.
#include "core/patterns.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/parallel_analysis.h"
#include "core/samples.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace_source.h"
#include "ipm/trace_v3.h"
#include "temp_path.h"

namespace eio::analysis {
namespace {

using posix::OpType;

/// The materializing detector PatternKernel replaced, kept as the
/// oracle: every stream's accesses gathered in issue order, the median
/// size by nth_element, gaps voted into an ordered map.
std::vector<StreamPattern> oracle_patterns(const ipm::Trace& trace,
                                           const PatternOptions& options) {
  struct Key {
    RankId rank;
    FileId file;
    OpType op;
    auto operator<=>(const Key&) const = default;
  };
  struct Access {
    Bytes offset;
    Bytes bytes;
  };
  std::map<Key, std::vector<Access>> streams;
  for (const auto& e : trace.events()) {
    if (e.op != OpType::kRead && e.op != OpType::kWrite) continue;
    if (e.bytes == 0) continue;
    streams[{e.rank, e.file, e.op}].push_back({e.offset, e.bytes});
  }
  std::vector<StreamPattern> out;
  for (auto& [key, accesses] : streams) {
    if (accesses.size() < options.min_accesses) continue;
    StreamPattern sp;
    sp.rank = key.rank;
    sp.file = key.file;
    sp.op = key.op;
    sp.accesses = accesses.size();
    std::vector<Bytes> sizes;
    for (const Access& a : accesses) sizes.push_back(a.bytes);
    std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                     sizes.end());
    sp.typical_size = sizes[sizes.size() / 2];
    sp.stripe_aligned =
        std::all_of(accesses.begin(), accesses.end(), [&](const Access& a) {
          return a.offset % options.stripe_size == 0 &&
                 (a.offset + a.bytes) % options.stripe_size == 0;
        });
    std::map<std::int64_t, std::size_t> gap_votes;
    std::size_t sequential_gaps = 0;
    for (std::size_t i = 1; i < accesses.size(); ++i) {
      auto gap = static_cast<std::int64_t>(accesses[i].offset) -
                 static_cast<std::int64_t>(accesses[i - 1].offset);
      ++gap_votes[gap];
      if (gap == static_cast<std::int64_t>(accesses[i - 1].bytes)) {
        ++sequential_gaps;
      }
    }
    auto total_gaps = static_cast<double>(accesses.size() - 1);
    auto dominant = std::max_element(
        gap_votes.begin(), gap_votes.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    double dominant_frac = static_cast<double>(dominant->second) / total_gaps;
    double sequential_frac = static_cast<double>(sequential_gaps) / total_gaps;
    if (sequential_frac >= options.stride_confidence) {
      sp.pattern = AccessPattern::kSequential;
      sp.stride = static_cast<std::int64_t>(sp.typical_size);
      sp.confidence = sequential_frac;
    } else if (dominant_frac >= options.stride_confidence &&
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
  return out;
}

void expect_same(const std::vector<StreamPattern>& got,
                 const std::vector<StreamPattern>& want,
                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(where + " stream " + std::to_string(i));
    EXPECT_EQ(got[i].rank, want[i].rank);
    EXPECT_EQ(got[i].file, want[i].file);
    EXPECT_EQ(got[i].op, want[i].op);
    EXPECT_EQ(got[i].pattern, want[i].pattern);
    EXPECT_EQ(got[i].accesses, want[i].accesses);
    EXPECT_EQ(got[i].typical_size, want[i].typical_size);
    EXPECT_EQ(got[i].stride, want[i].stride);
    EXPECT_EQ(got[i].confidence, want[i].confidence);
    EXPECT_EQ(got[i].stripe_aligned, want[i].stripe_aligned);
  }
}

/// Runs PatternKernel the way `eiotrace patterns` does over `trace`
/// saved as v3 in `chunk_events`-event chunks (at --jobs 1 and 4) and
/// as TSV, and checks each against the oracle.
void expect_matches_oracle(const ipm::Trace& trace, const PatternOptions& options,
                           std::size_t chunk_events) {
  const std::vector<StreamPattern> want = oracle_patterns(trace, options);
  const auto make = [&options](std::size_t) { return PatternKernel(options); };
  const ipm::ChunkHint hint = hint_for(EventFilter{});
  const std::string v3 =
      testutil::temp_path("-" + std::to_string(chunk_events) + ".v3");
  {
    std::ofstream out(v3, std::ios::binary);
    ipm::TraceWriterV3 w(out, trace.experiment(), trace.ranks(),
                         {.chunk_events = chunk_events});
    for (const ipm::TraceEvent& e : trace.events()) w.add(e);
    w.finish();
  }
  const ipm::FileTraceSource source(v3);
  for (std::size_t jobs : {1, 4}) {
    const std::optional<ipm::ParallelTraceScanner> scanner(
        std::in_place, v3, ipm::ScanOptions{.jobs = jobs});
    expect_same(run_kernels(source, scanner, hint, make).patterns(), want,
                "v3 chunk " + std::to_string(chunk_events) + " jobs " +
                    std::to_string(jobs));
  }
  const std::string tsv = testutil::temp_path(".tsv");
  trace.save(tsv);
  expect_same(
      run_kernels(ipm::FileTraceSource(tsv), std::nullopt, hint, make).patterns(),
      want, "tsv");
  expect_same(detect_patterns(trace, options), want, "in memory");
  std::remove(v3.c_str());
  std::remove(tsv.c_str());
}

ipm::TraceEvent event(OpType op, RankId rank, FileId file, Bytes offset,
                      Bytes bytes) {
  ipm::TraceEvent e;
  e.start = 0.0;
  e.duration = 0.1;
  e.op = op;
  e.rank = rank;
  e.file = file;
  e.offset = offset;
  e.bytes = bytes;
  return e;
}

TEST(PatternsTest, SequentialStreamDetected) {
  ipm::Trace t("p", 1);
  for (Bytes off = 0; off < 64 * MiB; off += 8 * MiB) {
    t.add(event(OpType::kWrite, 0, 1, off, 8 * MiB));
  }
  auto patterns = detect_patterns(t);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].pattern, AccessPattern::kSequential);
  EXPECT_EQ(patterns[0].typical_size, 8 * MiB);
  EXPECT_GE(patterns[0].confidence, 0.99);
  EXPECT_TRUE(patterns[0].stripe_aligned);
}

TEST(PatternsTest, StridedStreamDetected) {
  // The MADbench shape: 8 MiB reads every 64 MiB + 1 MiB.
  ipm::Trace t("p", 1);
  Bytes stride = 65 * MiB;
  for (int i = 0; i < 8; ++i) {
    t.add(event(OpType::kRead, 0, 1, static_cast<Bytes>(i) * stride, 8 * MiB));
  }
  auto patterns = detect_patterns(t);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].pattern, AccessPattern::kStrided);
  EXPECT_EQ(patterns[0].stride, static_cast<std::int64_t>(stride));
}

TEST(PatternsTest, RandomStreamDetected) {
  rng::Stream r(5);
  ipm::Trace t("p", 1);
  for (int i = 0; i < 32; ++i) {
    t.add(event(OpType::kRead, 0, 1, r.index(1000) * MiB, 1 * MiB));
  }
  auto patterns = detect_patterns(t);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].pattern, AccessPattern::kRandom);
  EXPECT_EQ(patterns[0].stride, 0);
}

TEST(PatternsTest, StreamsSeparatedByRankFileAndOp) {
  ipm::Trace t("p", 2);
  for (int i = 0; i < 6; ++i) {
    Bytes off = static_cast<Bytes>(i) * 4 * MiB;
    t.add(event(OpType::kWrite, 0, 1, off, 4 * MiB));
    t.add(event(OpType::kRead, 0, 1, off, 4 * MiB));
    t.add(event(OpType::kWrite, 1, 2, off, 4 * MiB));
  }
  auto patterns = detect_patterns(t);
  EXPECT_EQ(patterns.size(), 3u);
}

TEST(PatternsTest, ShortStreamsSkipped) {
  ipm::Trace t("p", 1);
  t.add(event(OpType::kWrite, 0, 1, 0, MiB));
  t.add(event(OpType::kWrite, 0, 1, MiB, MiB));
  EXPECT_TRUE(detect_patterns(t, {.min_accesses = 4}).empty());
}

TEST(PatternsTest, UnalignedStreamFlagged) {
  ipm::Trace t("p", 1);
  Bytes record = 1600 * KiB;  // the GCRM record
  for (int i = 0; i < 8; ++i) {
    t.add(event(OpType::kWrite, 0, 1, static_cast<Bytes>(i) * record, record));
  }
  auto patterns = detect_patterns(t);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_FALSE(patterns[0].stripe_aligned);
}

TEST(HintsTest, CoherentReadsGetBoundedPrefetch) {
  ipm::Trace t("p", 1);
  Bytes stride = 65 * MiB;
  for (int i = 0; i < 8; ++i) {
    t.add(event(OpType::kRead, 0, 7, static_cast<Bytes>(i) * stride, 8 * MiB));
  }
  auto hints = derive_hints(detect_patterns(t));
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints[0].file, 7u);
  EXPECT_GT(hints[0].prefetch_bytes, 0u);
  // Never beyond the stride — the exact failure mode of the Lustre bug.
  EXPECT_LE(hints[0].prefetch_bytes, stride);
}

TEST(HintsTest, RandomReadsDisablePrefetch) {
  rng::Stream r(7);
  ipm::Trace t("p", 1);
  for (int i = 0; i < 32; ++i) {
    t.add(event(OpType::kRead, 0, 7, r.index(5000) * MiB, 1 * MiB));
  }
  auto hints = derive_hints(detect_patterns(t));
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints[0].prefetch_bytes, 0u);
  EXPECT_NE(hints[0].rationale.find("disable read-ahead"), std::string::npos);
}

TEST(HintsTest, UnalignedWritesGetAlignmentAdvice) {
  ipm::Trace t("p", 4);
  Bytes record = 1600 * KiB;
  for (RankId rank = 0; rank < 4; ++rank) {
    for (int i = 0; i < 8; ++i) {
      t.add(event(OpType::kWrite, rank, 9,
                  (static_cast<Bytes>(i) * 4 + rank) * record, record));
    }
  }
  auto hints = derive_hints(detect_patterns(t));
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_TRUE(hints[0].advise_alignment);
  EXPECT_NE(hints[0].rationale.find("stripe"), std::string::npos);
}

TEST(HintsTest, AlignedSequentialWritesNeedNothing) {
  ipm::Trace t("p", 1);
  for (int i = 0; i < 8; ++i) {
    t.add(event(OpType::kWrite, 0, 3, static_cast<Bytes>(i) * 16 * MiB, 16 * MiB));
  }
  EXPECT_TRUE(derive_hints(detect_patterns(t)).empty());
}

// --- PatternKernel across chunk boundaries -------------------------

/// Streams of every class interleaved round-robin, with non-data and
/// zero-byte events mixed in, so most streams straddle every chunk.
ipm::Trace mixed_streams() {
  ipm::Trace t("mixed", 6);
  rng::Stream r(11);
  for (int step = 0; step < 40; ++step) {
    const auto i = static_cast<Bytes>(step);
    // rank 0: sequential 4 MiB writes
    t.add(event(OpType::kWrite, 0, 1, i * 4 * MiB, 4 * MiB));
    // rank 1: strided 8 MiB reads every 65 MiB
    t.add(event(OpType::kRead, 1, 1, i * 65 * MiB, 8 * MiB));
    // rank 2: random 1 MiB reads
    t.add(event(OpType::kRead, 2, 2, r.index(4000) * MiB, 1 * MiB));
    // rank 3: unaligned 1600 KiB records
    t.add(event(OpType::kWrite, 3, 2, i * 1600 * KiB, 1600 * KiB));
    // rank 4: a metadata call and a zero-byte write, both ignored
    t.add(event(OpType::kOpen, 4, 3, 0, 0));
    t.add(event(OpType::kWrite, 4, 3, i * MiB, 0));
    // rank 5: reads and writes to the same file are separate streams;
    // gaps alternate between two values (tied votes: smaller wins)
    t.add(event(step % 2 == 0 ? OpType::kRead : OpType::kWrite, 5, 4,
                (i / 2) * 3 * MiB + (step % 4 < 2 ? 0 : MiB), 2 * MiB));
  }
  return t;
}

TEST(PatternKernelTest, MixedStreamsMatchTheOracleAcrossChunks) {
  const ipm::Trace t = mixed_streams();
  ASSERT_EQ(oracle_patterns(t, {}).size(), 6u);
  for (std::size_t chunk : {7, 64}) expect_matches_oracle(t, {}, chunk);
}

TEST(PatternKernelTest, VoteTablesSpillPastTheInlineSlots) {
  // One stream with many distinct sizes and gaps (an even access count,
  // so the median picks the upper middle), one with mostly repeated
  // gaps and a long tail of one-off gaps.
  ipm::Trace t("spill", 2);
  rng::Stream r(3);
  Bytes offset = 0;
  for (int i = 0; i < 50; ++i) {
    const Bytes size = (1 + static_cast<Bytes>(i % 7)) * 64 * KiB;
    t.add(event(OpType::kWrite, 0, 1, offset, size));
    offset += size + r.index(5) * 4 * KiB;
    const Bytes gap = i % 3 == 0 ? (10 + static_cast<Bytes>(i)) * MiB : 2 * MiB;
    t.add(event(OpType::kRead, 1, 1, static_cast<Bytes>(i) * gap, MiB));
  }
  for (std::size_t chunk : {7, 64}) expect_matches_oracle(t, {}, chunk);
}

TEST(PatternKernelTest, StreamSeenInTwoChunksOnlyIsJoined) {
  // Rank 1's two accesses sit in the first and the last 7-event chunk;
  // rank 0 fills the chunks between them.
  ipm::Trace t("two-chunks", 2);
  t.add(event(OpType::kWrite, 1, 9, 0, 2 * MiB));
  for (int i = 0; i < 30; ++i) {
    t.add(event(OpType::kWrite, 0, 1, static_cast<Bytes>(i) * MiB, MiB));
  }
  t.add(event(OpType::kWrite, 1, 9, 2 * MiB, 2 * MiB));
  for (std::size_t chunk : {7, 64}) {
    expect_matches_oracle(t, {.min_accesses = 2}, chunk);
  }
  const auto patterns = detect_patterns(t, {.min_accesses = 2});
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[1].rank, 1u);
  EXPECT_EQ(patterns[1].accesses, 2u);
  EXPECT_EQ(patterns[1].pattern, AccessPattern::kSequential);
}

TEST(PatternKernelTest, MinAccessesReachedOnlyAfterAMerge) {
  // Rank 2's stream has 3 accesses in the first chunk and 2 in a later
  // one: no chunk alone reaches min_accesses = 4, the merge does.
  ipm::Trace t("late", 3);
  for (int i = 0; i < 3; ++i) {
    t.add(event(OpType::kRead, 2, 5, static_cast<Bytes>(i) * 8 * MiB, MiB));
  }
  for (int i = 0; i < 11; ++i) {
    t.add(event(OpType::kWrite, 0, 1, static_cast<Bytes>(i) * MiB, MiB));
  }
  for (int i = 3; i < 5; ++i) {
    t.add(event(OpType::kRead, 2, 5, static_cast<Bytes>(i) * 8 * MiB, MiB));
  }
  expect_matches_oracle(t, {}, 7);
  const auto patterns = detect_patterns(t);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[1].rank, 2u);
  EXPECT_EQ(patterns[1].accesses, 5u);
  EXPECT_EQ(patterns[1].pattern, AccessPattern::kStrided);
}

TEST(PatternKernelTest, StripeThatIsNotAPowerOfTwo) {
  // Under a 3 MiB stripe, 3 MiB records at 3 MiB offsets are aligned
  // and 4 MiB records at 4 MiB offsets are not, though both are
  // aligned to the default 1 MiB stripe.
  ipm::Trace t("stripe3", 2);
  for (int i = 0; i < 20; ++i) {
    const auto k = static_cast<Bytes>(i);
    t.add(event(OpType::kWrite, 0, 1, k * 3 * MiB, 3 * MiB));
    t.add(event(OpType::kWrite, 1, 2, k * 4 * MiB, 4 * MiB));
  }
  const PatternOptions stripe3{.stripe_size = 3 * MiB};
  for (std::size_t chunk : {7, 64}) expect_matches_oracle(t, stripe3, chunk);
  const auto patterns = detect_patterns(t, stripe3);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_TRUE(patterns[0].stripe_aligned);
  EXPECT_FALSE(patterns[1].stripe_aligned);
  for (const StreamPattern& p : detect_patterns(t)) {
    EXPECT_TRUE(p.stripe_aligned);
  }
}

TEST(PatternsTest, NamesAreStable) {
  EXPECT_STREQ(pattern_name(AccessPattern::kSequential), "sequential");
  EXPECT_STREQ(pattern_name(AccessPattern::kStrided), "strided");
  EXPECT_STREQ(pattern_name(AccessPattern::kRandom), "random");
}

}  // namespace
}  // namespace eio::analysis
