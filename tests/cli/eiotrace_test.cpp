// Tests for the eiotrace command-line analyzer.
#include "cli/eiotrace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "golden.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"
#include "temp_path.h"

namespace eio::cli {
namespace {

using posix::OpType;

/// Writes a representative trace to a temp file and cleans it up.
class EiotraceTest : public ::testing::Test {
 protected:
  /// The fixture trace: 8 ranks, 48 strided reads (phases 0-5) and 32
  /// aligned writes (phases 10-13).
  static ipm::Trace fixture_trace() {
    ipm::Trace t("cli-test", 8);
    rng::Stream r(1);
    // 8 ranks x 6 strided unaligned reads + 4 aligned writes each.
    Bytes stride = 65 * MiB;
    for (RankId rank = 0; rank < 8; ++rank) {
      for (int i = 0; i < 6; ++i) {
        ipm::TraceEvent e;
        e.start = i * 10.0;
        e.duration = 2.0 * r.noise(0.2);
        e.op = OpType::kRead;
        e.rank = rank;
        e.file = 1;
        e.offset = rank * 600 * MiB + static_cast<Bytes>(i) * stride;
        e.bytes = 8 * MiB;
        e.phase = i;
        t.add(e);
      }
      for (int i = 0; i < 4; ++i) {
        ipm::TraceEvent e;
        e.start = 60.0 + i * 5.0;
        e.duration = 1.0 * r.noise(0.2);
        e.op = OpType::kWrite;
        e.rank = rank;
        e.file = 1;
        e.offset = (static_cast<Bytes>(i) * 8 + rank) * 16 * MiB;
        e.bytes = 16 * MiB;
        e.phase = 10 + i;
        t.add(e);
      }
    }
    return t;
  }

  void SetUp() override {
    path_ = testutil::temp_path(".tsv");
    fixture_trace().save(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// A trace (the fixture by default) as an indexed v3 file with small
  /// chunks, so even this little trace gives the chunk counters
  /// something to count and its streams straddle chunks.
  static std::string write_chunked(const ipm::Trace& t = fixture_trace()) {
    std::string path = testutil::temp_path(".v3");
    std::ofstream out(path, std::ios::binary);
    ipm::TraceWriterV3 w(out, t.experiment(), t.ranks(), {.chunk_events = 16});
    for (const ipm::TraceEvent& e : t.events()) w.add(e);
    w.finish();
    return path;
  }

  /// ~160k events as a v3 file in default-size (4096-event) chunks:
  /// chunk 0 holds only writes, later reads and writes interleave
  /// (both past the reservoir capacity), phases 2 and 3 start at event
  /// 20,000 (and pass the capacity too), and OST 3 runs slow in the
  /// middle so a monitored analyze has incidents to report.
  static std::string write_past_capacity() {
    ipm::Trace t("past-capacity", 16);
    rng::Stream r(0xcafe);
    for (std::size_t i = 0; i < 160000; ++i) {
      ipm::TraceEvent e;
      e.start = 1e-3 * static_cast<double>(i);
      e.duration = 0.01 * r.noise(0.3);
      e.op = i < 4096 || r.uniform() < 0.5 ? OpType::kWrite : OpType::kRead;
      e.rank = static_cast<RankId>(i % 16);
      e.file = 1 + static_cast<FileId>((i * 7) % 24);
      e.bytes = 1 * MiB;
      e.phase = static_cast<std::int32_t>((i / 37) % 2 + (i < 20000 ? 0 : 2));
      if ((e.file - 1) % 8 == 3 && i > 60000 && i < 120000) e.duration *= 4;
      t.add(e);
    }
    std::string path = testutil::temp_path(".v3");
    std::ofstream out(path, std::ios::binary);
    ipm::TraceWriterV3 w(out, t.experiment(), t.ranks());
    for (const ipm::TraceEvent& e : t.events()) w.add(e);
    w.finish();
    return path;
  }

  /// A ~27k-event TSV trace on which every diagnose rule fires: 64
  /// ranks over six phases, one file per rank on 8 OSTs (OST 3's files
  /// 5x slow), rank 12 a 10x straggler, reads worsening 1.5x a phase,
  /// unaligned 900 KiB bulk writes below a 1.6 MiB/s fair share,
  /// stripe-sized writes at harmonic times 8/4/2 s (one very large one
  /// per rank in phase 1), and rank 0 busy with small writes —
  /// interleaved so every rule's state spans chunk boundaries.
  static std::string write_diagnosable() {
    ipm::Trace t("diagnosable", 64);
    rng::Stream r(0xd1a9);
    auto add = [&t](double start, double dur, OpType op, RankId rank,
                    Bytes offset, Bytes bytes, std::int32_t phase) {
      ipm::TraceEvent e;
      e.start = start;
      e.duration = dur;
      e.op = op;
      e.rank = rank;
      e.file = 1 + rank;
      e.offset = offset;
      e.bytes = bytes;
      e.phase = phase;
      t.add(e);
    };
    // 60% at T, 28% at T/2, 12% at T/4 (the Figure 1c shape).
    auto harmonic = [&r](std::size_t k) {
      return (k % 25 < 15 ? 8.0 : k % 25 < 22 ? 4.0 : 2.0) * r.noise(0.03);
    };
    for (std::int32_t phase = 1; phase <= 6; ++phase) {
      const double t0 = 100.0 * phase;
      const double read_scale = std::pow(1.5, phase - 1);
      for (RankId rank = 0; rank < 64; ++rank) {
        const double slow =
            (rank % 8 == 3 ? 5.0 : 1.0) * (rank == 12 ? 10.0 : 1.0);
        if (phase == 1) {
          add(t0, harmonic(rank), OpType::kWrite, rank, 0, 128 * MiB, phase);
        }
        for (std::size_t i = 0; i < 2; ++i) {
          add(t0, harmonic(rank * 2 + i), OpType::kWrite, rank,
              (20 + i) * 2 * MiB, 2 * MiB, phase);
        }
        for (int i = 0; i < 10; ++i) {
          add(t0, slow * 3.0 * r.noise(0.1), OpType::kWrite, rank,
              static_cast<Bytes>(i) * 900 * KiB + 4 * KiB, 900 * KiB, phase);
          add(t0, slow * read_scale * r.noise(0.1), OpType::kRead, rank,
              static_cast<Bytes>(i) * 8 * MiB, 8 * MiB, phase);
        }
        for (int i = 0; i < 47; ++i) {
          add(t0 + 0.05 * (rank * 47 + i), 0.02, OpType::kWrite, 0, 0,
              2 * KiB, phase);
        }
      }
    }
    std::string path = testutil::temp_path("-rules.tsv");
    t.save(path);
    return path;
  }

  /// Run a command line; returns {exit code, stdout, stderr}.
  std::tuple<int, std::string, std::string> run(std::vector<std::string> args) {
    std::ostringstream out, err;
    int rc = run_eiotrace(args, out, err);
    return {rc, out.str(), err.str()};
  }

  std::string path_;
};

TEST_F(EiotraceTest, NoArgsPrintsUsageAndFails) {
  auto [rc, out, err] = run({});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(EiotraceTest, HelpSucceeds) {
  auto [rc, out, err] = run({"help"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("diagnose"), std::string::npos);
}

TEST_F(EiotraceTest, UnknownCommandFails) {
  auto [rc, out, err] = run({"frobnicate", path_});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(EiotraceTest, MissingFileFails) {
  auto [rc, out, err] = run({"report"});
  EXPECT_EQ(rc, 1);
  auto [rc2, out2, err2] = run({"report", "/nonexistent.tsv"});
  EXPECT_EQ(rc2, 2);
}

TEST_F(EiotraceTest, ReportShowsBanner) {
  auto [rc, out, err] = run({"report", path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("IPM-I/O"), std::string::npos);
  EXPECT_NE(out.find("cli-test"), std::string::npos);
  EXPECT_NE(out.find("write"), std::string::npos);
}

TEST_F(EiotraceTest, SummaryHasBothOps) {
  auto [rc, out, err] = run({"summary", path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("write"), std::string::npos);
  EXPECT_NE(out.find("read"), std::string::npos);
  EXPECT_NE(out.find("48"), std::string::npos);  // 8x6 reads
}

TEST_F(EiotraceTest, HistogramRendersBars) {
  auto [rc, out, err] = run({"histogram", path_, "--op=read", "--bins=20"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("seconds"), std::string::npos);
}

TEST_F(EiotraceTest, HistogramEmptyFilterFails) {
  auto [rc, out, err] = run({"histogram", path_, "--op=fsync"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("no events"), std::string::npos);
}

TEST_F(EiotraceTest, BadOpFails) {
  auto [rc, out, err] = run({"histogram", path_, "--op=chmod"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown op"), std::string::npos);
}

TEST_F(EiotraceTest, ModesFindsTheCluster) {
  auto [rc, out, err] = run({"modes", path_, "--op=write"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("modes (32 events)"), std::string::npos);
  EXPECT_NE(out.find("mass"), std::string::npos);
}

TEST_F(EiotraceTest, RatesRendersChart) {
  auto [rc, out, err] = run({"rates", path_, "--bins=50"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("aggregate MiB/s"), std::string::npos);
}

TEST_F(EiotraceTest, DiagramRendersRaster) {
  auto [rc, out, err] = run({"diagram", path_, "--rows=8", "--cols=40"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("'#'=write"), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);  // reads present
}

TEST_F(EiotraceTest, DiagnoseRuns) {
  auto [rc, out, err] = run({"diagnose", path_});
  EXPECT_EQ(rc, 0);
  // Either findings or an explicit "no findings".
  EXPECT_FALSE(out.empty());
}

TEST_F(EiotraceTest, PatternsDetectsStridedReads) {
  auto [rc, out, err] = run({"patterns", path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("strided"), std::string::npos);
  EXPECT_NE(out.find("hint"), std::string::npos);
}

TEST_F(EiotraceTest, RowOrderCommandsMatchGoldenInBothFormats) {
  // report, diagram, patterns and compare print the same bytes from the
  // TSV fixture and from a v3 copy of it cut into 16-event chunks.
  const std::string v3 = write_chunked(ipm::Trace::load(path_));
  for (const std::string& trace : {path_, v3}) {
    const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
        {{"report.txt", {"report", trace}},
         {"diagram.txt", {"diagram", trace, "--rows=8", "--cols=40"}},
         {"patterns.txt", {"patterns", trace}},
         {"compare.txt", {"compare", trace, trace}}};
    for (const auto& [golden, cmd] : cases) {
      auto [rc, out, err] = run(cmd);
      ASSERT_EQ(rc, 0) << cmd[0] << " " << trace << ": " << err;
      SCOPED_TRACE(trace);
      testutil::expect_golden(golden, out);
    }
  }
  std::remove(v3.c_str());
}

TEST_F(EiotraceTest, PhasesTableListsPhases) {
  auto [rc, out, err] = run({"phases", path_, "--op=read"});
  EXPECT_EQ(rc, 0);
  // Phases 0..5 (reads).
  EXPECT_NE(out.find("     0"), std::string::npos);
  EXPECT_NE(out.find("     5"), std::string::npos);
  EXPECT_NE(out.find("median"), std::string::npos);
}

TEST_F(EiotraceTest, CompareAgainstItselfIsNeutral) {
  auto [rc, out, err] = run({"compare", path_, path_});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("KS-D"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);  // B/A median ratio
  EXPECT_NE(out.find("0.0000"), std::string::npos); // KS distance
}

TEST_F(EiotraceTest, CompareNeedsTwoFiles) {
  auto [rc, out, err] = run({"compare", path_});
  EXPECT_EQ(rc, 1);
}

TEST_F(EiotraceTest, ConvertRoundTripsThroughBinary) {
  std::string bin = testutil::temp_path(".bin");
  auto [rc, out, err] = run({"convert", path_, bin});
  EXPECT_EQ(rc, 0);
  // The binary file is analyzable like the original.
  auto [rc2, out2, err2] = run({"summary", bin});
  EXPECT_EQ(rc2, 0);
  EXPECT_NE(out2.find("write"), std::string::npos);
  std::remove(bin.c_str());
}

TEST_F(EiotraceTest, ConvertFormatFlagRoundTripsThroughV3) {
  std::string v3 = testutil::temp_path(".v3");
  std::string back = testutil::temp_path("_back.tsv");
  auto [rc, out, err] = run({"convert", path_, v3, "--format=v3"});
  EXPECT_EQ(rc, 0) << err;

  // The v3 file is analyzable, serially and in parallel.
  auto [rc2, out2, err2] = run({"summary", v3});
  EXPECT_EQ(rc2, 0) << err2;
  auto [rc3, out3, err3] = run({"summary", v3, "--jobs=4"});
  EXPECT_EQ(rc3, 0) << err3;
  EXPECT_EQ(out3, out2);  // parallel scan is byte-identical

  // And converts back to TSV with the same analysis output.
  auto [rc4, out4, err4] = run({"convert", v3, back, "--format=tsv"});
  EXPECT_EQ(rc4, 0) << err4;
  auto [rc5, out5, err5] = run({"summary", back});
  EXPECT_EQ(rc5, 0);
  EXPECT_EQ(out5, out2);
  std::remove(v3.c_str());
  std::remove(back.c_str());
}

TEST_F(EiotraceTest, ConvertToSameFormatIsACheckedByteCopy) {
  std::string v3 = testutil::temp_path(".v3");
  std::string copy = testutil::temp_path("_copy.v3");
  auto [rc, out, err] = run({"convert", path_, v3, "--format=v3"});
  ASSERT_EQ(rc, 0) << err;

  auto [rc2, out2, err2] = run({"convert", v3, copy, "--format=v3"});
  EXPECT_EQ(rc2, 0) << err2;
  // The no-op path says what it did — validated, then copied — rather
  // than silently re-encoding.
  EXPECT_NE(out2.find("already v3"), std::string::npos) << out2;
  EXPECT_NE(out2.find("byte-for-byte"), std::string::npos) << out2;

  std::ifstream a(v3, std::ios::binary), b(copy, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::remove(v3.c_str());
  std::remove(copy.c_str());
}

TEST_F(EiotraceTest, ConvertRejectsConflictingAndUnknownFormats) {
  std::string out_path = testutil::temp_path(".bin");
  auto [rc, out, err] = run({"convert", path_, out_path, "--format=v9"});
  EXPECT_NE(rc, 0);
  auto [rc2, out2, err2] =
      run({"convert", path_, out_path, "--format=v3", "--tsv"});
  EXPECT_NE(rc2, 0);
  // The retired binary formats are gone from both --format options.
  for (const char* retired : {"--format=v1", "--format=v2", "--v1"}) {
    auto [rc3, out3, err3] = run({"convert", path_, out_path, retired});
    EXPECT_EQ(rc3, 1) << retired;
  }
  auto [rc4, out4, err4] = run({"simulate", "--runs=1", "--tasks=8",
                                "--save-dir=" + testutil::temp_path(),
                                "--format=v2"});
  EXPECT_EQ(rc4, 1);
  EXPECT_NE(err4.find("(tsv|v3)"), std::string::npos) << err4;
  std::remove(out_path.c_str());
}

TEST_F(EiotraceTest, RetiredBinaryFormatsFailWithAnError) {
  // A v1 or v2 file is refused up front with a named error and a
  // nonzero exit, never analysed as something else.
  for (const char* magic : {"IPMIOB1\n", "IPMIOB2\n"}) {
    const std::string path = testutil::temp_path(".bin");
    {
      std::ofstream f(path, std::ios::binary);
      f << magic << std::string(64, '\x01');
    }
    auto [rc, out, err] = run({"summary", path});
    EXPECT_NE(rc, 0) << magic;
    EXPECT_TRUE(out.empty()) << out;
    EXPECT_NE(err.find("unsupported binary ipm-io trace version"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
  }
}

TEST_F(EiotraceTest, SimulateRunsAnEnsembleWithoutATraceFile) {
  auto [rc, out, err] = run({"simulate", "--runs=2", "--jobs=2", "--tasks=16",
                             "--block-mib=16", "--segments=1"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("simulating 2 IOR runs"), std::string::npos);
  EXPECT_NE(out.find("pairwise KS"), std::string::npos);
  EXPECT_NE(out.find("0 vs 1"), std::string::npos);
}

TEST_F(EiotraceTest, SimulateSavesTraces) {
  std::string dir = testutil::temp_path();
  std::filesystem::create_directories(dir);
  auto [rc, out, err] =
      run({"simulate", "--runs=2", "--tasks=8", "--block-mib=8",
           "--segments=1", "--save-dir=" + dir});
  EXPECT_EQ(rc, 0) << err;
  // The saved traces are analyzable like any recorded one.
  std::string saved = dir + "/run0.tsv";
  auto [rc2, out2, err2] = run({"summary", saved});
  EXPECT_EQ(rc2, 0);
  EXPECT_NE(out2.find("write"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(EiotraceTest, SimulateCreatesAMissingSaveDir) {
  std::string dir = testutil::temp_path() + "/nested/traces";
  auto [rc, out, err] = run({"simulate", "--runs=1", "--tasks=8",
                             "--block-mib=8", "--segments=1",
                             "--save-dir=" + dir});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_TRUE(std::filesystem::exists(dir + "/run0.tsv"));
  std::filesystem::remove_all(testutil::temp_path());
}

TEST_F(EiotraceTest, SimulateUnwritableSaveDirFailsBeforeAnyRun) {
  // A directory cannot be made under a regular file (this holds for
  // root too), so the check must fail before the first run, naming
  // the path, instead of after the ensemble when the traces are saved.
  std::string file = testutil::temp_path(".file");
  { std::ofstream(file) << "x"; }
  std::string dir = file + "/traces";
  auto [rc, out, err] = run({"simulate", "--runs=2", "--tasks=8",
                             "--block-mib=8", "--segments=1",
                             "--save-dir=" + dir});
  EXPECT_NE(rc, 0);
  EXPECT_NE(err.find(dir), std::string::npos) << err;
  EXPECT_EQ(out.find("simulating"), std::string::npos) << out;
  EXPECT_EQ(out.find("median(s)"), std::string::npos) << out;
  std::remove(file.c_str());
}

TEST_F(EiotraceTest, SimulateRejectsUnknownMachine) {
  auto [rc, out, err] = run({"simulate", "--machine=bluegene"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown machine"), std::string::npos);
}

TEST_F(EiotraceTest, UnknownFlagFailsWithPerCommandUsage) {
  auto [rc, out, err] = run({"summary", path_, "--bogus=1"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(err.find("usage: eiotrace summary"), std::string::npos);
}

TEST_F(EiotraceTest, BadNumericValueFails) {
  auto [rc, out, err] = run({"histogram", path_, "--bins=many"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("bad value 'many' for --bins"), std::string::npos);
  auto [rc2, out2, err2] = run({"summary", path_, "--min-bytes=huge"});
  EXPECT_EQ(rc2, 1);
  auto [rc3, out3, err3] = run({"histogram", path_, "--bins=-4"});
  EXPECT_EQ(rc3, 1);
}

TEST_F(EiotraceTest, FlagValueMayBeASeparateArgument) {
  auto [rc, out, err] = run({"histogram", path_, "--op", "read", "--bins", "20"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST_F(EiotraceTest, MissingFlagValueFails) {
  auto [rc, out, err] = run({"histogram", path_, "--bins"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST_F(EiotraceTest, PerCommandUsageIsGeneratedFromTheOptionTables) {
  std::string diag = usage_text("diagnose");
  EXPECT_NE(diag.find("usage: eiotrace diagnose"), std::string::npos);
  EXPECT_NE(diag.find("--ost-count"), std::string::npos);
  EXPECT_NE(diag.find("--fair-share-mibs"), std::string::npos);
  std::string sim = usage_text("simulate");
  EXPECT_NE(sim.find("--scenario"), std::string::npos);
  EXPECT_NE(sim.find("--machine"), std::string::npos);
  EXPECT_NE(sim.find("default franklin"), std::string::npos);
  // Every flag a command parses appears in its usage; unknown commands
  // fall back to the global text.
  EXPECT_EQ(usage_text("frobnicate"), usage_text());
  std::string modes = usage_text("modes");
  EXPECT_NE(modes.find("--bandwidth"), std::string::npos);
  EXPECT_NE(modes.find("--op"), std::string::npos);
  EXPECT_NE(modes.find("--jobs"), std::string::npos);
}

TEST_F(EiotraceTest, HelpWithCommandShowsItsFlagTable) {
  auto [rc, out, err] = run({"help", "modes"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("--bandwidth"), std::string::npos);
}

TEST_F(EiotraceTest, SimulateScenarioFileEndToEnd) {
  std::string scen = testutil::temp_path(".json");
  {
    std::ofstream f(scen);
    f << R"({
      "schema_version": 1,
      "name": "cli-scenario",
      "machine": "franklin",
      "runs": 2,
      "workload": {"kind": "ior", "tasks": 8, "block_mib": 4, "segments": 1},
      "faults": {"stragglers": {"ranks": [3], "slowdown": 3.0}}
    })";
  }
  auto [rc, out, err] = run({"simulate", "--scenario=" + scen, "--jobs=2"});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("simulating 2 IOR runs"), std::string::npos);
  EXPECT_NE(out.find("fault plan:"), std::string::npos);
  EXPECT_NE(out.find("fault injections:"), std::string::npos);
  std::remove(scen.c_str());
}

TEST_F(EiotraceTest, SimulateScenarioConflictsWithWorkloadFlags) {
  auto [rc, out, err] = run({"simulate", "--scenario=x.json", "--tasks=4"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("conflicts with --scenario"), std::string::npos);
}

TEST_F(EiotraceTest, SimulateMissingScenarioFileFails) {
  auto [rc, out, err] = run({"simulate", "--scenario=/nonexistent.json"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("cannot open scenario file"), std::string::npos);
}

TEST_F(EiotraceTest, SlowOstScenarioDiagnosesTheDegradedOst) {
  // The acceptance path: the checked-in slow-OST scenario, simulated
  // and fed back through diagnose, names the injected OST.
  std::string scen =
      std::string(EIO_SOURCE_DIR) + "/examples/scenarios/slow_ost.json";
  std::string dir = testutil::temp_path();
  std::filesystem::create_directories(dir);
  auto [rc, out, err] =
      run({"simulate", "--scenario=" + scen, "--runs=1", "--save-dir=" + dir});
  ASSERT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("ost-windows"), std::string::npos);
  std::string trace = dir + "/run0.tsv";
  auto [rc2, out2, err2] = run({"diagnose", trace, "--ost-count=48"});
  EXPECT_EQ(rc2, 0) << err2;
  EXPECT_NE(out2.find("degraded-ost"), std::string::npos);
  EXPECT_NE(out2.find("OST 5"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(EiotraceTest, PhaseFilterNarrowsEvents) {
  auto [rc, out, err] = run({"summary", path_, "--phase=3"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("read"), std::string::npos);
  // Only the 8 phase-3 reads; writes (phases 10+) are filtered out.
  EXPECT_EQ(out.find("write"), std::string::npos);
}

TEST_F(EiotraceTest, AnalyzeBundlesAllSections) {
  auto [rc, out, err] = run({"analyze", path_});
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("== summary =="), std::string::npos);
  EXPECT_NE(out.find("== phases =="), std::string::npos);
  EXPECT_NE(out.find("== histogram =="), std::string::npos);
  EXPECT_NE(out.find("== rates =="), std::string::npos);
  EXPECT_NE(out.find("write"), std::string::npos);
  EXPECT_NE(out.find("read"), std::string::npos);
  EXPECT_NE(out.find("aggregate MiB/s"), std::string::npos);
}

TEST_F(EiotraceTest, AnalyzeIsByteIdenticalAcrossJobsAndFormats) {
  // The fused one-pass bundle must print the same bytes for every
  // --jobs value and both encodings: the serial TSV pass pins the
  // chunk-parallel v3 scan.
  const std::string v3 = write_chunked();

  auto [rc, base, err] = run({"analyze", path_});
  ASSERT_EQ(rc, 0) << err;
  for (const std::string& file : {path_, v3}) {
    for (const char* jobs : {"", "--jobs=1", "--jobs=2", "--jobs=4"}) {
      std::vector<std::string> args{"analyze", file};
      if (*jobs != '\0') args.push_back(jobs);
      auto [rc2, out2, err2] = run(args);
      EXPECT_EQ(rc2, 0) << err2;
      EXPECT_EQ(out2, base) << file << " " << jobs;
    }
  }
  std::remove(v3.c_str());
}

TEST_F(EiotraceTest, AnalyzeIsByteIdenticalAcrossJobsPastReservoirCapacity) {
  // One worker folds chunks in place, more merge per-chunk partials;
  // the JSON (sampled quantiles included) must not tell them apart.
  const std::string v3 = write_past_capacity();
  for (bool monitored : {false, true}) {
    std::vector<std::string> args{"analyze", v3, "--json", "--jobs=1"};
    if (monitored) {
      args.emplace_back("--monitor");
      args.emplace_back("--ost-count=8");
    }
    auto [rc, base, err] = run(args);
    ASSERT_EQ(rc, 0) << err;
    if (monitored) {
      EXPECT_NE(base.find("\"degraded-ost\""), std::string::npos);
    }
    for (const char* jobs : {"--jobs=2", "--jobs=4"}) {
      args[3] = jobs;
      auto [rc2, out2, err2] = run(args);
      EXPECT_EQ(rc2, 0) << err2;
      EXPECT_EQ(out2, base) << jobs << (monitored ? " --monitor" : "");
    }
  }
  std::remove(v3.c_str());
}

TEST_F(EiotraceTest, DiagnoseIsByteIdenticalAcrossJobsAndFormats) {
  // diagnose has no --jobs flag; its scanner takes EIO_JOBS. Folded in
  // place at 1 worker and merged from per-chunk partials at 2 and 4,
  // the findings must not move — nor between a TSV trace and its v3
  // conversion. One trace passes the default reservoir capacity; on
  // the other every rule fires, so each rule's numbers are compared.
  const std::string past = write_past_capacity();
  const std::string rules = write_diagnosable();
  const char* saved = std::getenv("EIO_JOBS");
  const std::string restore = saved != nullptr ? saved : "";
  for (const std::string& source : {past, rules}) {
    const std::string tsv = testutil::temp_path("-copy.tsv");
    const std::string v3 = testutil::temp_path("-copy.v3");
    // Convert through TSV first, so both copies hold the same values.
    for (const auto& [from, to, fmt] :
         {std::tuple{source, tsv, "tsv"}, std::tuple{tsv, v3, "v3"}}) {
      auto [rc, out, err] =
          run({"convert", from, to, std::string("--format=") + fmt});
      ASSERT_EQ(rc, 0) << err;
    }
    const std::vector<std::string> args{"--ost-count=8",
                                        "--fair-share-mibs=1.6", "--json"};
    std::string base;
    for (const auto& [file, jobs] :
         {std::pair{tsv, "1"}, {v3, "1"}, {v3, "2"}, {v3, "4"}}) {
      ::setenv("EIO_JOBS", jobs, 1);
      std::vector<std::string> cmd{"diagnose", file};
      cmd.insert(cmd.end(), args.begin(), args.end());
      auto [rc, out, err] = run(cmd);
      ASSERT_EQ(rc, 0) << err;
      if (base.empty()) base = out;
      EXPECT_EQ(out, base) << file << " EIO_JOBS=" << jobs;
    }
    if (source == rules) {
      for (const char* code :
           {"harmonic-modes", "read-deterioration", "heavy-read-tail",
            "metadata-serialization", "sub-fair-share", "splitting-opportunity",
            "degraded-ost", "straggler-rank"}) {
        EXPECT_NE(base.find(std::string("\"") + code + "\""), std::string::npos)
            << code << " did not fire: " << base;
      }
    }
    std::remove(tsv.c_str());
    std::remove(v3.c_str());
  }
  if (saved != nullptr) {
    ::setenv("EIO_JOBS", restore.c_str(), 1);
  } else {
    ::unsetenv("EIO_JOBS");
  }
  std::remove(past.c_str());
  std::remove(rules.c_str());
}

TEST_F(EiotraceTest, DiagnoseRunsUnderOneRootSpan) {
  // Every command runs under one cli.command span, so --metrics
  // attributes diagnose's wall; its one scan nests inside it.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::string v3 = write_chunked();
  const std::string metrics = testutil::temp_path(".json");
  auto [rc, out, err] = run({"diagnose", v3, "--metrics=" + metrics});
  ASSERT_EQ(rc, 0) << err;
  std::ifstream in(metrics);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  const json::Value& spans = doc.at("spans");
  ASSERT_TRUE(spans.has("cli.command")) << text.str();
  ASSERT_TRUE(spans.has("scan.scan")) << text.str();
  const json::Value& root = spans.at("cli.command");
  EXPECT_EQ(root.at("count").as_number(), 1.0);
  EXPECT_LE(spans.at("scan.scan").at("total_s").as_number(),
            root.at("total_s").as_number());
  std::remove(metrics.c_str());
  std::remove(v3.c_str());
}

TEST_F(EiotraceTest, AnalyzeEmptyFilterFails) {
  auto [rc, out, err] = run({"analyze", path_, "--op=fsync"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("no events"), std::string::npos);
}

TEST_F(EiotraceTest, EveryAnalysisSubcommandScansTheTraceExactlyOnce) {
  // Regression for the histogram extrema+fill double scan (and a guard
  // against any future N-pass analysis): after one subcommand run, the
  // chunks-scanned + chunks-skipped counters must account for every
  // chunk exactly once. The fixture file has 80 events in 16-event
  // chunks, so a second pass would double the tally.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::string v3 = write_chunked();
  const std::size_t chunks = [&] {
    ipm::FileTraceSource source(v3);
    return source.index()->chunks.size();
  }();
  ASSERT_GE(chunks, 5u);

  const std::vector<std::vector<std::string>> commands = {
      {"summary", v3, "--obs"},
      {"summary", v3, "--jobs=2", "--obs"},
      {"histogram", v3, "--op=read", "--obs"},
      {"histogram", v3, "--op=read", "--jobs=2", "--obs"},
      {"modes", v3, "--op=write", "--obs"},
      {"rates", v3, "--obs"},
      {"rates", v3, "--jobs=2", "--obs"},
      {"phases", v3, "--obs"},
      {"analyze", v3, "--obs"},
      {"analyze", v3, "--jobs=4", "--obs"},
      {"diagnose", v3, "--ost-count=8", "--obs"},
      {"patterns", v3, "--obs"},
      {"patterns", v3, "--jobs=2", "--obs"},
      {"report", v3, "--obs"},
      {"diagram", v3, "--obs"},
  };
  for (const auto& cmd : commands) {
    auto [rc, out, err] = run(cmd);
    ASSERT_EQ(rc, 0) << cmd[0] << ": " << err;
    std::uint64_t scanned = 0, skipped = 0;
    for (const obs::CounterValue& c : obs::Registry::instance().snapshot().counters) {
      if (c.name == "scan.chunks_scanned") scanned = c.value;
      if (c.name == "scan.chunks_skipped") skipped = c.value;
    }
    EXPECT_EQ(scanned + skipped, chunks)
        << cmd[0] << (cmd.size() > 3 ? " (parallel)" : "")
        << ": scanned=" << scanned << " skipped=" << skipped;
    EXPECT_GT(scanned, 0u) << cmd[0];
  }
  std::remove(v3.c_str());

  // A TSV file has no chunks to count: tally its full parses instead.
  // The open's validation pass is not one of them (it also folds the
  // span, so rates and analyze need no pre-pass).
  for (const std::string command :
       {"report", "summary", "histogram", "modes", "rates", "diagram", "phases",
        "analyze", "monitor", "diagnose", "patterns"}) {
    auto [rc, out, err] = run({command, path_, "--obs"});
    ASSERT_EQ(rc, 0) << command << ": " << err;
    std::uint64_t passes = 0;
    for (const obs::CounterValue& c :
         obs::Registry::instance().snapshot().counters) {
      if (c.name == "scan.tsv_passes") passes = c.value;
    }
    EXPECT_EQ(passes, 1u) << command << " on TSV";
  }
}

TEST_F(EiotraceTest, PatternsIsByteIdenticalAcrossJobs) {
  const std::string v3 = write_chunked(ipm::Trace::load(path_));
  auto [rc1, j1, err1] = run({"patterns", v3, "--jobs=1"});
  auto [rc4, j4, err4] = run({"patterns", v3, "--jobs=4"});
  ASSERT_EQ(rc1, 0) << err1;
  ASSERT_EQ(rc4, 0) << err4;
  EXPECT_EQ(j1, j4);
  std::remove(v3.c_str());
}

TEST_F(EiotraceTest, DiagnoseCountsAnyThirtyTwoBitRank) {
  // The TSV reader takes any 32-bit rank. Small writes at rank
  // 2^32-1 dominate the run and are named; a large write at rank 3e9
  // rides along.
  ipm::Trace t("stray", 4);
  for (int i = 0; i < 40; ++i) {
    ipm::TraceEvent e;
    e.start = i;
    e.duration = 1.0;
    e.op = OpType::kWrite;
    e.rank = i == 0 ? 3000000000u : kInvalidRank;
    e.file = 1;
    e.bytes = i == 0 ? 2 * MiB : 2 * KiB;
    t.add(e);
  }
  const std::string tsv = testutil::temp_path("-stray.tsv");
  t.save(tsv);
  auto [rc, out, err] = run({"diagnose", tsv, "--ost-count=8"});
  ASSERT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("rank 4294967295 spends"), std::string::npos) << out;
  std::remove(tsv.c_str());
}

TEST_F(EiotraceTest, OneWorkerScanFoldsInPlaceWithoutMerging) {
  // At --jobs=1 every chunk folds into one kernel set: no per-chunk
  // partial is merged. At --jobs=2 each chunk after the first merges
  // once.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::string v3 = write_chunked();
  const std::size_t chunks = [&] {
    ipm::FileTraceSource source(v3);
    return source.index()->chunks.size();
  }();
  ASSERT_GE(chunks, 5u);
  for (auto [jobs, merges] : {std::pair<const char*, std::size_t>{"--jobs=1", 0},
                              {"--jobs=2", chunks - 1}}) {
    auto [rc, out, err] = run({"analyze", v3, jobs, "--monitor", "--obs"});
    ASSERT_EQ(rc, 0) << err;
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    std::uint64_t scanned = 0, merged = 0;
    for (const obs::CounterValue& c : snap.counters) {
      if (c.name == "scan.chunks_scanned") scanned = c.value;
    }
    for (const obs::LatencySummary& l : snap.latency) {
      if (l.name == "scan.merge_partial") merged = l.moments.count;
    }
    EXPECT_EQ(scanned, chunks) << jobs;
    EXPECT_EQ(merged, merges) << jobs;
  }
  std::remove(v3.c_str());
}

}  // namespace
}  // namespace eio::cli
