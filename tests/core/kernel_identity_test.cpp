// The fold–merge identity (statistics contract v2): for every analysis
// kernel, folding a chunk batch into the running state is bit-identical
// to folding it into a fresh partial from the same factory and merging
// that in. A one-thread scan folds in place and a many-thread scan
// merges per-chunk partials, so this identity is what makes the two
// agree byte for byte.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/kernel.h"
#include "core/parallel_analysis.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/columns.h"
#include "ipm/trace_source.h"
#include "ipm/trace_v3.h"
#include "monitor/health.h"
#include "temp_path.h"
#include "workloads/experiment.h"
#include "workloads/scenario.h"

namespace eio::analysis {
namespace {

using posix::OpType;

/// A seeded stream cut into chunk batches. Chunk 0 holds only writes
/// (so the read streams start in a later chunk). Phase labels alternate
/// every 37 events, so each chunk holds several runs of one phase; the
/// pair switches from 0/1 to 2/3 at event 40,000, so phases 2 and 3
/// start after chunk 0. One chunk is exactly kMaxChunkEvents long, and
/// both ops and phases 2 and 3 pass the reservoir capacity mid-stream.
/// OST 3 (files 4, 12, 20) runs slow in the middle third so the health
/// monitor has incidents to open.
class ChunkedStream {
 public:
  ChunkedStream() {
    rng::Stream rng(0x1de7);
    std::vector<std::size_t> sizes{3000};
    while (total(sizes) < 190000) {
      sizes.push_back(sizes.size() == 5 ? ipm::kMaxChunkEvents
                                        : 500 + rng.index(7500));
    }
    std::size_t i = 0;
    for (std::size_t size : sizes) {
      std::vector<ipm::TraceEvent> chunk;
      for (std::size_t k = 0; k < size; ++k, ++i) {
        ipm::TraceEvent e;
        e.start = 1e-3 * static_cast<double>(i);
        const double u = rng.uniform();
        e.op = chunks_.empty() || u < 0.5 ? OpType::kWrite
               : u < 0.95                 ? OpType::kRead
                                          : OpType::kOpen;
        e.rank = static_cast<RankId>(i % 16);
        e.file = 1 + static_cast<FileId>((i * 7) % 24);
        e.bytes = rng.uniform() < 0.8 ? 1 * MiB : 4 * KiB;
        e.phase = static_cast<std::int32_t>((i / 37) % 2 + (i < 40000 ? 0 : 2));
        e.duration = 0.01 * rng.noise(0.3);
        if ((e.file - 1) % 8 == 3 && i > 60000 && i < 120000) e.duration *= 4;
        chunk.push_back(e);
      }
      chunks_.push_back(std::move(chunk));
    }
    scratch_.resize(chunks_.size());
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      batches_.push_back(ipm::shred(chunks_[c], scratch_[c]));
    }
  }

  [[nodiscard]] const std::vector<ipm::ColumnBatch>& batches() const {
    return batches_;
  }

  /// Fold every batch into make(0) in place.
  template <typename Make>
  [[nodiscard]] auto in_place(const Make& make) const {
    auto k = make(std::size_t{0});
    for (const ipm::ColumnBatch& b : batches_) k.add_batch(b);
    return k;
  }

  /// The parallel scan's shape: chunk 0's partial is the result, and
  /// every later batch c folds into a fresh make(c) that is merged in,
  /// in chunk order.
  template <typename Make>
  [[nodiscard]] auto merged(const Make& make) const {
    auto k = make(std::size_t{0});
    k.add_batch(batches_[0]);
    for (std::size_t c = 1; c < batches_.size(); ++c) {
      auto part = make(c);
      part.add_batch(batches_[c]);
      k.merge(std::move(part));
    }
    return k;
  }

 private:
  static std::size_t total(const std::vector<std::size_t>& sizes) {
    std::size_t n = 0;
    for (std::size_t s : sizes) n += s;
    return n;
  }

  std::vector<std::vector<ipm::TraceEvent>> chunks_;
  std::vector<ipm::ColumnScratch> scratch_;
  std::vector<ipm::ColumnBatch> batches_;
};

const ChunkedStream& stream() {
  static const ChunkedStream s;
  return s;
}

void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_identical(const stats::StreamingSummary& a,
                      const stats::StreamingSummary& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.empty()) return;
  expect_same_bits(a.min(), b.min(), "min");
  expect_same_bits(a.max(), b.max(), "max");
  const stats::Moments ma = a.moments(), mb = b.moments();
  expect_same_bits(ma.mean, mb.mean, "mean");
  expect_same_bits(ma.variance, mb.variance, "variance");
  expect_same_bits(ma.skewness, mb.skewness, "skewness");
  expect_same_bits(ma.kurtosis_excess, mb.kurtosis_excess, "kurtosis");
  EXPECT_EQ(a.reservoir().seen(), b.reservoir().seen());
  EXPECT_EQ(a.reservoir().samples(), b.reservoir().samples());
}

void expect_identical(const PhaseSummarySink& a, const PhaseSummarySink& b) {
  ASSERT_EQ(a.by_phase().size(), b.by_phase().size());
  for (const auto& [phase, summary] : a.by_phase()) {
    auto it = b.by_phase().find(phase);
    ASSERT_NE(it, b.by_phase().end()) << "phase " << phase;
    SCOPED_TRACE(::testing::Message() << "phase " << phase);
    expect_identical(summary, it->second);
  }
}

void expect_identical(const HistogramKernel& a, const HistogramKernel& b) {
  const std::optional<stats::Histogram> ha = a.histogram().materialize();
  const std::optional<stats::Histogram> hb = b.histogram().materialize();
  ASSERT_EQ(ha.has_value(), hb.has_value());
  if (!ha) return;
  EXPECT_EQ(ha->counts(), hb->counts());
  expect_same_bits(ha->lo(), hb->lo(), "lo");
  expect_same_bits(ha->hi(), hb->hi(), "hi");
}

void expect_identical(const RateKernel& a, const RateKernel& b) {
  expect_same_bits(a.series().t0, b.series().t0, "t0");
  expect_same_bits(a.series().dt, b.series().dt, "dt");
  EXPECT_EQ(a.series().values, b.series().values);
}

void expect_identical(monitor::HealthKernel& a, monitor::HealthKernel& b) {
  a.finish();
  b.finish();
  EXPECT_EQ(a.events_consumed(), b.events_consumed());
  const monitor::Counts& ca = a.counts();
  const monitor::Counts& cb = b.counts();
  EXPECT_EQ(ca.windows_evaluated, cb.windows_evaluated);
  EXPECT_EQ(ca.phases_evaluated, cb.phases_evaluated);
  EXPECT_EQ(ca.incidents_opened, cb.incidents_opened);
  EXPECT_EQ(ca.incidents_cleared, cb.incidents_cleared);
  EXPECT_EQ(ca.degraded_ost, cb.degraded_ost);
  EXPECT_EQ(ca.straggler_rank, cb.straggler_rank);
  EXPECT_EQ(ca.drift, cb.drift);
  EXPECT_EQ(ca.injected, cb.injected);
  ASSERT_EQ(a.incidents().size(), b.incidents().size());
  for (std::size_t i = 0; i < a.incidents().size(); ++i) {
    const monitor::Incident& x = a.incidents()[i];
    const monitor::Incident& y = b.incidents()[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.subject, y.subject);
    EXPECT_EQ(x.onset_event, y.onset_event);
    EXPECT_EQ(x.clear_event, y.clear_event);
    expect_same_bits(x.onset_time, y.onset_time, "onset_time");
    expect_same_bits(x.clear_time, y.clear_time, "clear_time");
    expect_same_bits(x.severity, y.severity, "severity");
    expect_same_bits(x.statistic, y.statistic, "statistic");
    expect_same_bits(x.threshold, y.threshold, "threshold");
    EXPECT_EQ(x.evidence, y.evidence);
  }
}

/// The options `eiotrace analyze --monitor --ost-count=8` builds.
monitor::HealthOptions monitor_options(bool enabled) {
  monitor::HealthOptions o;
  o.enabled = enabled;
  o.ost_count = 8;
  return o;
}

const EventFilter kWrites{.op = OpType::kWrite};
const EventFilter kReads{.op = OpType::kRead};

TEST(KernelIdentityTest, StreamHasTheShapesTheIdentityMustSurvive) {
  const auto& batches = stream().batches();
  ASSERT_GE(batches.size(), 6u);
  EXPECT_EQ(batches[5].size(), ipm::kMaxChunkEvents);
  const auto reads = stream().in_place([](std::size_t chunk) {
    return SummarySink(kReads, chunk_summary_options({}, chunk));
  });
  const auto writes = stream().in_place([](std::size_t chunk) {
    return SummarySink(kWrites, chunk_summary_options({}, chunk));
  });
  // Chunk 0 holds no read; both streams overflow their reservoirs.
  for (std::size_t i = 0; i < batches[0].size(); ++i) {
    ASSERT_EQ(static_cast<OpType>(batches[0].op[i]), OpType::kWrite);
  }
  EXPECT_FALSE(reads.summary().reservoir().exact());
  EXPECT_FALSE(writes.summary().reservoir().exact());
  const auto phases = stream().in_place([](std::size_t chunk) {
    return PhaseSummarySink({}, chunk_summary_options({}, chunk));
  });
  EXPECT_FALSE(phases.by_phase().at(2).reservoir().exact());
  EXPECT_FALSE(phases.by_phase().at(3).reservoir().exact());
  // Chunk 0 holds several runs of phase 0.
  std::size_t runs = 0;
  for (std::size_t i = 0; i < batches[0].size(); ++i) {
    const bool starts = i == 0 || batches[0].phase[i - 1] != 0;
    if (batches[0].phase[i] == 0 && starts) ++runs;
  }
  EXPECT_GE(runs, 3u);
}

TEST(KernelIdentityTest, SummarySink) {
  for (const EventFilter& filter :
       {kWrites, kReads, EventFilter{.min_bytes = 64 * KiB}}) {
    const auto make = [&](std::size_t chunk) {
      return SummarySink(filter, chunk_summary_options({}, chunk));
    };
    expect_identical(stream().in_place(make).summary(),
                     stream().merged(make).summary());
  }
}

TEST(KernelIdentityTest, PhaseSummarySink) {
  const auto make = [](std::size_t chunk) {
    return PhaseSummarySink({}, chunk_summary_options({}, chunk));
  };
  expect_identical(stream().in_place(make), stream().merged(make));
}

TEST(KernelIdentityTest, HistogramKernel) {
  for (stats::BinScale scale : {stats::BinScale::kLinear, stats::BinScale::kLog10}) {
    const auto make = [&](std::size_t) {
      return HistogramKernel({}, {.scale = scale, .bins = 40});
    };
    expect_identical(stream().in_place(make), stream().merged(make));
  }
}

TEST(KernelIdentityTest, RateKernel) {
  const double span = 200.0;
  const auto make = [&](std::size_t) { return RateKernel({}, span, 100); };
  expect_identical(stream().in_place(make), stream().merged(make));
}

TEST(KernelIdentityTest, HealthKernel) {
  for (bool enabled : {true, false}) {
    const monitor::HealthOptions opt = monitor_options(enabled);
    const auto make = [&](std::size_t chunk) {
      return monitor::HealthKernel(opt, chunk);
    };
    auto a = stream().in_place(make);
    auto b = stream().merged(make);
    expect_identical(a, b);
    if (enabled) {
      EXPECT_FALSE(a.incidents().empty());
    }
  }
}

TEST(KernelIdentityTest, AnalyzeMonitorKernelSet) {
  // The KernelSet `eiotrace analyze --monitor` builds.
  const EventFilter base;
  const monitor::HealthOptions mopt = monitor_options(true);
  const auto make = [&](std::size_t chunk) {
    stats::SummaryOptions opts = chunk_summary_options({}, chunk);
    return KernelSet(SummarySink(kWrites, opts), SummarySink(kReads, opts),
                     PhaseSummarySink(base, opts),
                     HistogramKernel(base, {.bins = 40}),
                     RateKernel(base, 200.0, 100),
                     monitor::HealthKernel(mopt, chunk));
  };
  auto a = stream().in_place(make);
  auto b = stream().merged(make);
  expect_identical(a.get<0>().summary(), b.get<0>().summary());
  expect_identical(a.get<1>().summary(), b.get<1>().summary());
  expect_identical(a.get<2>(), b.get<2>());
  expect_identical(a.get<3>(), b.get<3>());
  expect_identical(a.get<4>(), b.get<4>());
  expect_identical(a.get<5>(), b.get<5>());
}

/// One monitored run of a shipped scenario: the set attached to the
/// live run has folded the monitor's capture batches. Then the same
/// factory scans the run's saved v3 trace at one and two threads, and
/// both results must equal the capture bit for bit. Returns the
/// number of incidents the capture opened.
std::size_t expect_capture_equals_analysis(const std::string& name) {
  SCOPED_TRACE(name);
  const workloads::ScenarioBuilder scenario = workloads::load_scenario(
      std::string(EIO_SOURCE_DIR) + "/examples/scenarios/" + name + ".json");
  workloads::JobSpec job = scenario.job();
  job.capture = ipm::Mode::kBoth;
  monitor::HealthOptions mopt;
  mopt.ost_count = scenario.machine_config().ost_count;
  const auto make = [&mopt](std::size_t chunk) {
    stats::SummaryOptions opts = chunk_summary_options({}, chunk);
    return KernelSet(SummarySink(kWrites, opts), SummarySink(kReads, opts),
                     PhaseSummarySink({}, opts),
                     monitor::HealthKernel(mopt, chunk));
  };
  using Set = decltype(make(std::size_t{0}));
  std::shared_ptr<KernelSink<Set>> sink;
  job.sink_factory = [&sink, &make](std::size_t) {
    sink = std::make_shared<KernelSink<Set>>(make(0));
    return sink;
  };
  const workloads::RunResult run = workloads::run_job(job);
  Set& captured = sink->kernel();

  const std::string path = testutil::temp_path(name + ".v3");
  run.trace.save_binary_v3(path);
  const ipm::FileTraceSource source(path);
  for (std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "--jobs=" << jobs);
    const std::optional<ipm::ParallelTraceScanner> scanner(
        std::in_place, path, ipm::ScanOptions{.jobs = jobs});
    Set analyzed = run_kernels(source, scanner, ipm::ChunkHint{}, make);
    expect_identical(captured.get<0>().summary(), analyzed.get<0>().summary());
    expect_identical(captured.get<1>().summary(), analyzed.get<1>().summary());
    expect_identical(captured.get<2>(), analyzed.get<2>());
    expect_identical(captured.get<3>(), analyzed.get<3>());
  }
  std::remove(path.c_str());
  return captured.get<3>().incidents().size();
}

TEST(KernelIdentityTest, CaptureEqualsAnalysisOnSlowOst) {
  // One capture batch; the faulted OST opens incidents.
  EXPECT_GT(expect_capture_equals_analysis("slow_ost"), 0u);
}

TEST(KernelIdentityTest, CaptureEqualsAnalysisAcrossBatchCuts) {
  // 16,896 calls: four full capture batches and a trailing partial.
  expect_capture_equals_analysis("fig4_madbench_franklin");
}

}  // namespace
}  // namespace eio::analysis
