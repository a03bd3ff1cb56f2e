// Unit tests for the automatic bottleneck diagnoser: each detector is
// fed a synthetic trace with (and without) its target pathology,
// through the one scan analysis::diagnose runs over a TraceSource.
#include "monitor/diagnose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace eio::analysis {
namespace {

using posix::OpType;

ipm::TraceEvent event(double start, double dur, OpType op, RankId rank,
                      Bytes bytes, std::int32_t phase = 0, Bytes offset = 0) {
  ipm::TraceEvent e;
  e.start = start;
  e.duration = dur;
  e.op = op;
  e.rank = rank;
  e.file = 1;
  e.offset = offset;
  e.bytes = bytes;
  e.phase = phase;
  return e;
}

/// Every rule over an in-memory trace, through its TraceSource.
std::vector<Finding> diagnose_trace(const ipm::Trace& t,
                                    const DiagnoserOptions& opt = {}) {
  return diagnose(ipm::MemoryTraceSource(t), opt);
}

bool has_finding(const std::vector<Finding>& fs, FindingCode code) {
  return std::any_of(fs.begin(), fs.end(),
                     [code](const Finding& f) { return f.code == code; });
}

TEST(DiagnoseTest, HarmonicModesDetected) {
  rng::Stream r(1);
  ipm::Trace t("h", 256);
  // 60% of writes at T=32, 28% at 16, 12% at 8 (the Fig 1c shape).
  for (int i = 0; i < 600; ++i) {
    t.add(event(0, 32.0 + r.normal() * 0.8, OpType::kWrite,
                static_cast<RankId>(i % 256), 512 * MiB, 0, 0));
  }
  for (int i = 0; i < 280; ++i) {
    t.add(event(0, 16.0 + r.normal() * 0.5, OpType::kWrite,
                static_cast<RankId>(i % 256), 512 * MiB, 0, 0));
  }
  for (int i = 0; i < 120; ++i) {
    t.add(event(0, 8.0 + r.normal() * 0.3, OpType::kWrite,
                static_cast<RankId>(i % 256), 512 * MiB, 0, 0));
  }
  auto findings = diagnose_trace(t);
  ASSERT_TRUE(has_finding(findings, FindingCode::kHarmonicModes));
}

TEST(DiagnoseTest, NoHarmonicsInUnimodalWrites) {
  rng::Stream r(2);
  ipm::Trace t("u", 64);
  for (int i = 0; i < 500; ++i) {
    t.add(event(0, 30.0 + r.normal(), OpType::kWrite,
                static_cast<RankId>(i % 64), 512 * MiB));
  }
  EXPECT_FALSE(has_finding(diagnose_trace(t), FindingCode::kHarmonicModes));
}

TEST(DiagnoseTest, ReadDeteriorationDetected) {
  rng::Stream r(3);
  ipm::Trace t("d", 64);
  // Medians grow 10, 15, 23, 34, 51 across phases 4..8 (MADbench).
  double median = 10.0;
  for (int phase = 4; phase <= 8; ++phase) {
    for (int i = 0; i < 64; ++i) {
      t.add(event(phase * 100.0, median * r.noise(0.2), OpType::kRead,
                  static_cast<RankId>(i), 300 * MiB, phase));
    }
    median *= 1.5;
  }
  auto findings = diagnose_trace(t);
  ASSERT_TRUE(has_finding(findings, FindingCode::kReadDeterioration));
}

TEST(DiagnoseTest, StableReadPhasesNotFlagged) {
  rng::Stream r(4);
  ipm::Trace t("s", 64);
  for (int phase = 1; phase <= 8; ++phase) {
    for (int i = 0; i < 64; ++i) {
      t.add(event(phase * 100.0, 10.0 * r.noise(0.2), OpType::kRead,
                  static_cast<RankId>(i), 300 * MiB, phase));
    }
  }
  EXPECT_FALSE(has_finding(diagnose_trace(t), FindingCode::kReadDeterioration));
}

TEST(DiagnoseTest, HeavyReadTailDetected) {
  rng::Stream r(5);
  ipm::Trace t("t", 64);
  for (int i = 0; i < 300; ++i) {
    t.add(event(0, 10.0 * r.noise(0.1), OpType::kRead,
                static_cast<RankId>(i % 64), 300 * MiB));
  }
  for (int i = 0; i < 15; ++i) {  // catastrophic stragglers 30-500 s
    t.add(event(0, 150.0 * r.noise(0.5), OpType::kRead,
                static_cast<RankId>(i), 300 * MiB));
  }
  EXPECT_TRUE(has_finding(diagnose_trace(t), FindingCode::kHeavyReadTail));
}

TEST(DiagnoseTest, MetadataSerializationDetected) {
  ipm::Trace t("m", 1024);
  // Rank 0 spends most of a 100 s run in 2 KiB writes.
  for (int i = 0; i < 600; ++i) {
    t.add(event(i * 0.15, 0.1, OpType::kWrite, 0, 2 * KiB));
  }
  // Other ranks do a little bulk I/O.
  for (int i = 0; i < 64; ++i) {
    t.add(event(0, 2.0, OpType::kWrite, static_cast<RankId>(1 + i), 2 * MiB));
  }
  auto findings = diagnose_trace(t);
  ASSERT_TRUE(has_finding(findings, FindingCode::kMetadataSerialization));
  // The message should point at the hot rank.
  auto it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.code == FindingCode::kMetadataSerialization;
  });
  EXPECT_NE(it->message.find("rank 0"), std::string::npos);
}

TEST(DiagnoseTest, SubFairShareDetectedWithUnalignedWrites) {
  rng::Stream r(6);
  ipm::Trace t("a", 1024);
  // 1.6 MB records at unaligned offsets, running at ~0.5 MiB/s when the
  // fair share is 1.6 MiB/s.
  Bytes record = 1600 * KiB;
  for (int i = 0; i < 200; ++i) {
    t.add(event(0, 3.0 * r.noise(0.3), OpType::kWrite,
                static_cast<RankId>(i % 1024), record, 0,
                static_cast<Bytes>(i) * record));
  }
  DiagnoserOptions opt;
  opt.fair_share_rate = 1.6 * static_cast<double>(MiB);
  EXPECT_TRUE(has_finding(diagnose_trace(t, opt), FindingCode::kSubFairShare));
  // Aligned writes at the same rate do not fire this detector.
  ipm::Trace aligned("a2", 1024);
  for (int i = 0; i < 200; ++i) {
    aligned.add(event(0, 3.0 * r.noise(0.3), OpType::kWrite,
                      static_cast<RankId>(i % 1024), 2 * MiB, 0,
                      static_cast<Bytes>(i) * 2 * MiB));
  }
  EXPECT_FALSE(
      has_finding(diagnose_trace(aligned, opt), FindingCode::kSubFairShare));
}

TEST(DiagnoseTest, SplittingOpportunityDetected) {
  rng::Stream r(7);
  ipm::Trace t("k", 256);
  // One huge write per rank with a wide spread.
  for (int i = 0; i < 256; ++i) {
    t.add(event(0, 30.0 * r.noise(0.5), OpType::kWrite,
                static_cast<RankId>(i), 512 * MiB));
  }
  EXPECT_TRUE(
      has_finding(diagnose_trace(t), FindingCode::kSplittingOpportunity));
  // Many small calls per rank: already split, not flagged.
  ipm::Trace split("k2", 256);
  for (int i = 0; i < 256; ++i) {
    for (int c = 0; c < 8; ++c) {
      split.add(event(0, 4.0 * r.noise(0.5), OpType::kWrite,
                      static_cast<RankId>(i), 64 * MiB));
    }
  }
  EXPECT_FALSE(
      has_finding(diagnose_trace(split), FindingCode::kSplittingOpportunity));
}

TEST(DiagnoseTest, QuietTraceYieldsNoFindings) {
  rng::Stream r(8);
  ipm::Trace t("q", 64);
  for (int i = 0; i < 64; ++i) {
    for (int c = 0; c < 8; ++c) {
      t.add(event(c * 5.0, 4.0 * r.noise(0.05), OpType::kWrite,
                  static_cast<RankId>(i), 64 * MiB, c,
                  static_cast<Bytes>(i) * 512 * MiB));
    }
  }
  EXPECT_TRUE(diagnose_trace(t).empty());
}

TEST(DiagnoseTest, FindingsSortedBySeverity) {
  rng::Stream r(9);
  ipm::Trace t("multi", 256);
  for (int i = 0; i < 600; ++i) {
    t.add(event(i * 0.15, 0.1, OpType::kWrite, 0, 2 * KiB));
  }
  for (int i = 0; i < 300; ++i) {
    t.add(event(0, 10.0 * r.noise(0.1), OpType::kRead,
                static_cast<RankId>(i % 64), 300 * MiB));
  }
  for (int i = 0; i < 15; ++i) {
    t.add(event(0, 200.0, OpType::kRead, static_cast<RankId>(i), 300 * MiB));
  }
  auto findings = diagnose_trace(t);
  ASSERT_GE(findings.size(), 2u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_GE(findings[i - 1].severity, findings[i].severity);
  }
}

TEST(DiagnoseTest, TooFewEventsStaySilent) {
  ipm::Trace t("few", 4);
  t.add(event(0, 32.0, OpType::kWrite, 0, 512 * MiB));
  t.add(event(0, 16.0, OpType::kWrite, 1, 512 * MiB));
  EXPECT_TRUE(diagnose_trace(t).empty());
}

ipm::TraceEvent fevent(double start, double dur, OpType op, RankId rank,
                       Bytes bytes, std::int32_t phase, FileId file) {
  ipm::TraceEvent e = event(start, dur, op, rank, bytes, phase);
  e.file = file;
  return e;
}

TEST(DiagnoseTest, DegradedOstDetected) {
  rng::Stream r(10);
  ipm::Trace t("ost", 16);
  // 16 file-per-process files round-robined over 8 OSTs (two files per
  // class); the files on OST 3 run 5x slow.
  for (std::uint64_t f = 1; f <= 16; ++f) {
    double base = (f - 1) % 8 == 3 ? 5.0 : 1.0;
    for (int i = 0; i < 10; ++i) {
      t.add(fevent(0, base * r.noise(0.15), OpType::kWrite,
                   static_cast<RankId>(f - 1), 16 * MiB, 1, f));
    }
  }
  DiagnoserOptions opt;
  opt.ost_count = 8;
  auto findings = diagnose_trace(t, opt);
  ASSERT_TRUE(has_finding(findings, FindingCode::kDegradedOst));
  auto it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.code == FindingCode::kDegradedOst;
  });
  EXPECT_DOUBLE_EQ(it->metric, 3.0);
  EXPECT_NE(it->message.find("OST 3"), std::string::npos);
}

TEST(DiagnoseTest, DegradedOstQuietOnHealthyFleet) {
  rng::Stream r(11);
  ipm::Trace t("ost-ok", 16);
  for (std::uint64_t f = 1; f <= 16; ++f) {
    for (int i = 0; i < 10; ++i) {
      t.add(fevent(0, r.noise(0.2), OpType::kWrite, static_cast<RankId>(f - 1),
                   16 * MiB, 1, f));
    }
  }
  DiagnoserOptions opt;
  opt.ost_count = 8;
  EXPECT_FALSE(has_finding(diagnose_trace(t, opt), FindingCode::kDegradedOst));
}

TEST(DiagnoseTest, DegradedOstQuietOnSharedFileAndWithoutOstCount) {
  rng::Stream r(12);
  // Shared file: every event maps to one OST class — no baseline to
  // compare against, so even a heavy tail stays quiet here.
  ipm::Trace shared("ost-shared", 16);
  for (int i = 0; i < 150; ++i) {
    shared.add(fevent(0, r.noise(0.2), OpType::kWrite,
                      static_cast<RankId>(i % 16), 16 * MiB, 1, 1));
  }
  for (int i = 0; i < 12; ++i) {
    shared.add(fevent(0, 6.0 * r.noise(0.2), OpType::kWrite,
                      static_cast<RankId>(i), 16 * MiB, 1, 1));
  }
  DiagnoserOptions opt;
  opt.ost_count = 8;
  EXPECT_FALSE(
      has_finding(diagnose_trace(shared, opt), FindingCode::kDegradedOst));

  // ost_count = 0 (the default) skips the detector entirely, even on a
  // trace that would otherwise fire.
  ipm::Trace degraded("ost-skip", 16);
  for (std::uint64_t f = 1; f <= 16; ++f) {
    double base = (f - 1) % 8 == 3 ? 5.0 : 1.0;
    for (int i = 0; i < 10; ++i) {
      degraded.add(fevent(0, base * r.noise(0.15), OpType::kWrite,
                          static_cast<RankId>(f - 1), 16 * MiB, 1, f));
    }
  }
  EXPECT_FALSE(
      has_finding(diagnose_trace(degraded), FindingCode::kDegradedOst));
}

TEST(DiagnoseTest, StragglerRankDetected) {
  rng::Stream r(13);
  ipm::Trace t("strag", 16);
  // Five barrier-bounded phases; rank 11's writes run 4x long in every
  // one of them.
  for (int phase = 1; phase <= 5; ++phase) {
    for (int rank = 0; rank < 16; ++rank) {
      double dur = (rank == 11 ? 4.0 : 1.0) * r.noise(0.1);
      t.add(event(phase * 100.0, dur, OpType::kWrite,
                  static_cast<RankId>(rank), 64 * MiB, phase));
    }
  }
  auto findings = diagnose_trace(t);
  ASSERT_TRUE(has_finding(findings, FindingCode::kStragglerRank));
  auto it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.code == FindingCode::kStragglerRank;
  });
  EXPECT_DOUBLE_EQ(it->metric, 11.0);
  EXPECT_NE(it->message.find("rank 11"), std::string::npos);
}

TEST(DiagnoseTest, StragglerQuietWhenTheExtremeRotates) {
  rng::Stream r(14);
  ipm::Trace t("rotate", 16);
  // A different rank is slow in each phase: a wide distribution's
  // random extreme, not a consistently slow host.
  for (int phase = 1; phase <= 5; ++phase) {
    for (int rank = 0; rank < 16; ++rank) {
      double dur = (rank == phase * 3 ? 4.0 : 1.0) * r.noise(0.1);
      t.add(event(phase * 100.0, dur, OpType::kWrite,
                  static_cast<RankId>(rank), 64 * MiB, phase));
    }
  }
  EXPECT_FALSE(has_finding(diagnose_trace(t), FindingCode::kStragglerRank));
}

TEST(DiagnoseTest, StragglerQuietOnTightPhases) {
  rng::Stream r(15);
  ipm::Trace t("tight", 16);
  for (int phase = 1; phase <= 5; ++phase) {
    for (int rank = 0; rank < 16; ++rank) {
      t.add(event(phase * 100.0, r.noise(0.1), OpType::kWrite,
                  static_cast<RankId>(rank), 64 * MiB, phase));
    }
  }
  EXPECT_FALSE(has_finding(diagnose_trace(t), FindingCode::kStragglerRank));
}

TEST(DiagnoseTest, LateEventOfAClosedPhaseIsJudgedOnItsOwn) {
  // The straggler rule closes a phase when the first bulk event of a
  // later phase arrives: it assumes phase-contiguous traces, which
  // every simulated scenario trace is. Here rank 11's slow write of
  // each phase p arrives only after phase p+1 began. Phase p closes
  // without it (tight, so no vote), and the late write opens a
  // one-rank fragment of phase p that is too small to judge — so only
  // the last phase is stretched and the rule stays quiet. The same
  // events in phase order name rank 11.
  rng::Stream r(16);
  std::vector<std::vector<ipm::TraceEvent>> phases;
  for (int phase = 1; phase <= 5; ++phase) {
    auto& events = phases.emplace_back();
    for (int rank = 0; rank < 16; ++rank) {
      double dur = (rank == 11 ? 4.0 : 1.0) * r.noise(0.1);
      events.push_back(event(phase * 100.0, dur, OpType::kWrite,
                             static_cast<RankId>(rank), 64 * MiB, phase));
    }
  }
  ipm::Trace contiguous("contiguous", 16), interleaved("interleaved", 16);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const ipm::TraceEvent& e : phases[p]) contiguous.add(e);
    for (const ipm::TraceEvent& e : phases[p]) {
      if (e.rank != 11) interleaved.add(e);
    }
    if (p > 0) interleaved.add(phases[p - 1][11]);  // late: phase p-1
  }
  interleaved.add(phases.back()[11]);
  ASSERT_EQ(interleaved.size(), contiguous.size());

  auto findings = diagnose_trace(contiguous);
  auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.code == FindingCode::kStragglerRank; });
  ASSERT_NE(it, findings.end());
  EXPECT_DOUBLE_EQ(it->metric, 11.0);
  EXPECT_FALSE(
      has_finding(diagnose_trace(interleaved), FindingCode::kStragglerRank));
}

TEST(DiagnoseTest, StragglerGateCountsEventsOfPhasesTooSmallToJudge) {
  // Five 4-rank phases (20 events) with rank 3 slow in each, then
  // seven 2-rank phases (14 events) that are too small to judge. Only
  // the events of all 12 phases together reach min_events = 32, so the
  // straggler rule fires on the whole stream even though no phase it
  // judged had the gate open when it closed.
  rng::Stream r(17);
  ipm::Trace t("gate", 4);
  for (int phase = 1; phase <= 12; ++phase) {
    const int ranks = phase <= 5 ? 4 : 2;
    for (int rank = 0; rank < ranks; ++rank) {
      double dur = (rank == 3 ? 4.0 : 1.0) * r.noise(0.1);
      t.add(event(phase * 100.0, dur, OpType::kWrite,
                  static_cast<RankId>(rank), 64 * MiB, phase));
    }
  }
  auto findings = diagnose_trace(t);
  auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.code == FindingCode::kStragglerRank; });
  ASSERT_NE(it, findings.end());
  EXPECT_DOUBLE_EQ(it->metric, 3.0);
}

TEST(DiagnoseTest, AnyThirtyTwoBitRankIsCountedInPlace) {
  // A trace file may carry any rank, kInvalidRank included. Small
  // transfers, very large writes and straggling phase completions at
  // ranks 3e9 and 2^32-1 are counted like any other rank's.
  constexpr RankId kFar = 3000000000u;
  ipm::Trace t("stray", 4);
  for (int i = 0; i < 40; ++i) {
    t.add(event(i * 1.0, 1.0, OpType::kWrite, kInvalidRank, 2 * KiB));
  }
  for (int i = 0; i < 8; ++i) {
    t.add(event(i * 1.0, 0.5, OpType::kWrite, kFar, 2 * KiB));
  }
  t.add(event(0.0, 2.0, OpType::kWrite, kFar, 64 * MiB));
  t.add(event(0.0, 3.0, OpType::kWrite, kInvalidRank, 64 * MiB));
  auto findings = diagnose_trace(t);
  auto it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.code == FindingCode::kMetadataSerialization;
  });
  ASSERT_NE(it, findings.end());
  EXPECT_DOUBLE_EQ(it->metric, 1.0);  // 40 s of small writes in a 40 s run
  EXPECT_NE(it->message.find("rank 4294967295 spends"), std::string::npos)
      << it->message;

  rng::Stream r(18);
  ipm::Trace phased("stray-phases", 4);
  for (int phase = 1; phase <= 5; ++phase) {
    for (RankId rank : {RankId{0}, RankId{1}, RankId{2}, kFar, kInvalidRank}) {
      double dur = (rank == kInvalidRank ? 4.0 : 1.0) * r.noise(0.1);
      for (int i = 0; i < 8; ++i) {
        phased.add(event(phase * 100.0, dur, OpType::kWrite, rank, 64 * MiB,
                         phase));
      }
    }
  }
  findings = diagnose_trace(phased);
  it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.code == FindingCode::kStragglerRank;
  });
  ASSERT_NE(it, findings.end());
  EXPECT_DOUBLE_EQ(it->metric, static_cast<double>(kInvalidRank));
}

TEST(DiagnoseTest, FindingNamesAreStable) {
  EXPECT_STREQ(finding_name(FindingCode::kHarmonicModes), "harmonic-modes");
  EXPECT_STREQ(finding_name(FindingCode::kMetadataSerialization),
               "metadata-serialization");
  EXPECT_STREQ(finding_name(FindingCode::kSplittingOpportunity),
               "splitting-opportunity");
  EXPECT_STREQ(finding_name(FindingCode::kDegradedOst), "degraded-ost");
  EXPECT_STREQ(finding_name(FindingCode::kStragglerRank), "straggler-rank");
}

}  // namespace
}  // namespace eio::analysis
