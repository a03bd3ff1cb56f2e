// Unit tests for the IPM-I/O monitor: interception, phase tagging,
// capture modes, overhead accounting, and the capture sink's batches.
#include "ipm/monitor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.h"
#include "ipm/trace_v3.h"
#include "lustre/filesystem.h"
#include "posix/vfs.h"
#include "sim/run_context.h"
#include "workloads/experiment.h"
#include "workloads/scenario.h"

namespace eio::ipm {
namespace {

lustre::MachineConfig quiet_machine() {
  lustre::MachineConfig m;
  m.nic_bandwidth = 1e9;
  m.ost_count = 2;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = sim::ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.write_absorb_limit = 0;
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.syscall_latency = 0.0;
  return m;
}

struct Env {
  sim::RunContext run{quiet_machine().seed};
  sim::Engine& engine = run.engine();
  lustre::Filesystem fs;
  posix::PosixIo io;

  Env() : fs(run, quiet_machine(), 1), io(run, fs, 4) {}

  void run_small_job(RankId rank = 0) {
    io.open(rank, "f", posix::kCreate, [&, rank](Fd fd) {
      io.write(rank, fd, 10 * MiB, [&, rank, fd](std::int64_t) {
        io.lseek(rank, fd, 0, posix::Whence::kSet, [&, rank, fd](std::int64_t) {
          io.read(rank, fd, 10 * MiB, [&, rank, fd](std::int64_t) {
            io.close(rank, fd, [](int) {});
          });
        });
      });
    });
    engine.run();
  }
};

TEST(MonitorTest, TraceModeRecordsAllCalls) {
  Env env;
  Monitor monitor;
  monitor.attach(env.io);
  env.run_small_job();
  // open, write, seek, read, close.
  EXPECT_EQ(monitor.intercepted(), 5u);
  ASSERT_EQ(monitor.trace().size(), 5u);
  EXPECT_EQ(monitor.trace().events()[1].op, posix::OpType::kWrite);
  EXPECT_EQ(monitor.trace().events()[1].bytes, 10 * MiB);
  EXPECT_EQ(monitor.profile().total(), 0u);  // trace mode only
}

TEST(MonitorTest, ProfileModeKeepsOnlyHistograms) {
  Env env;
  Monitor monitor(Monitor::Config{.mode = Mode::kProfile});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_TRUE(monitor.trace().empty());
  EXPECT_EQ(monitor.profile().total(), 5u);
  EXPECT_EQ(monitor.profile().count(posix::OpType::kWrite), 1u);
}

TEST(MonitorTest, BothModeAgrees) {
  Env env;
  Monitor monitor(Monitor::Config{.mode = Mode::kBoth});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_EQ(monitor.trace().size(), monitor.profile().total());
}

TEST(MonitorTest, MetadataCallsCanBeExcluded) {
  Env env;
  Monitor monitor(Monitor::Config{.record_metadata_calls = false});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_EQ(monitor.trace().size(), 2u);  // write + read only
  EXPECT_EQ(monitor.intercepted(), 5u);   // still intercepted
}

TEST(MonitorTest, PhaseTagsSubsequentEvents) {
  Env env;
  Monitor monitor;
  monitor.attach(env.io);
  monitor.set_phase(0, 42);
  env.run_small_job();
  for (const TraceEvent& e : monitor.trace().events()) {
    EXPECT_EQ(e.phase, 42);
  }
  monitor.set_phase(0, 43);
  env.run_small_job();  // fails open (exists) but records events anyway
  EXPECT_EQ(monitor.trace().events().back().phase, 43);
}

TEST(MonitorTest, PhaseDefaultsToZeroForUntaggedRanks) {
  Env env;
  Monitor monitor;
  monitor.attach(env.io);
  monitor.set_phase(2, 9);  // a different rank
  env.run_small_job(0);
  EXPECT_EQ(monitor.trace().events()[0].phase, 0);
}

TEST(MonitorTest, OverheadAccountingScalesWithEvents) {
  Env env;
  Monitor monitor(Monitor::Config{.per_event_overhead = us(2.0)});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_DOUBLE_EQ(monitor.accounted_overhead(), 5 * us(2.0));
  // The lightweight claim: overhead is negligible next to the job.
  EXPECT_LT(monitor.accounted_overhead(), 0.01 * env.engine.now());
}

TEST(MonitorTest, DetachStopsRecording) {
  Env env;
  Monitor monitor;
  monitor.attach(env.io);
  env.run_small_job();
  std::size_t before = monitor.trace().size();
  monitor.detach();
  env.run_small_job();
  EXPECT_EQ(monitor.trace().size(), before);
}

TEST(MonitorTest, DoubleAttachThrows) {
  Env env;
  Monitor monitor;
  monitor.attach(env.io);
  EXPECT_THROW(monitor.attach(env.io), std::logic_error);
}

TEST(MonitorTest, ProfileMatchesTraceMoments) {
  // The future-work claim: the profile preserves the distribution well
  // enough to analyze. Mean-from-profile must be within one bin width
  // of mean-from-trace.
  Env env;
  Monitor monitor(Monitor::Config{.mode = Mode::kBoth});
  monitor.attach(env.io);
  for (int i = 0; i < 20; ++i) env.run_small_job();
  double trace_mean = 0.0;
  std::size_t n = 0;
  for (const TraceEvent& e : monitor.trace().events()) {
    if (e.op == posix::OpType::kWrite) {
      trace_mean += e.duration;
      ++n;
    }
  }
  trace_mean /= static_cast<double>(n);
  double profile_mean = monitor.profile().approximate_mean(posix::OpType::kWrite);
  EXPECT_GT(profile_mean, trace_mean / 1.35);
  EXPECT_LT(profile_mean, trace_mean * 1.35);
}

/// Keeps every batch the monitor hands it, as its size and its rows.
class RecordingSink final : public EventSink {
 public:
  void add_batch(const ColumnBatch& batch) override {
    sizes.push_back(batch.size());
    EXPECT_EQ(batch.phase.size(), batch.size()) << "every column decoded";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      rows.push_back(batch.event_at(i));
    }
  }

  std::vector<std::size_t> sizes;
  std::vector<TraceEvent> rows;
};

TEST(MonitorTest, SinkSeesChunkAlignedBatchesOfTheCapturedTrace) {
  const std::size_t cut = TraceWriterV3::Options{}.chunk_events;
  auto sink = std::make_shared<RecordingSink>();
  Monitor monitor(Monitor::Config{}, sink);
  for (std::size_t i = 0; i < 2 * cut + 100; ++i) {
    const auto rank = static_cast<RankId>(i % 4);
    monitor.set_phase(rank, static_cast<std::int32_t>(i / 1000));
    monitor.on_call({.rank = rank,
                     .op = i % 3 == 0 ? posix::OpType::kRead
                                      : posix::OpType::kWrite,
                     .file = 1 + static_cast<FileId>(i % 5),
                     .offset = 64 * i,
                     .bytes = 64 + i,
                     .start = 1e-3 * static_cast<double>(i),
                     .duration = 1e-4 * static_cast<double>(1 + i % 7)});
  }
  EXPECT_EQ(sink->sizes, (std::vector<std::size_t>{cut, cut}));
  monitor.finish();
  monitor.finish();  // idempotent: one trailing partial
  EXPECT_EQ(sink->sizes, (std::vector<std::size_t>{cut, cut, 100}));

  const std::vector<TraceEvent>& captured = monitor.trace().events();
  ASSERT_EQ(sink->rows.size(), captured.size());
  for (std::size_t i = 0; i < captured.size(); ++i) {
    const TraceEvent& a = sink->rows[i];
    const TraceEvent& b = captured[i];
    ASSERT_TRUE(a.start == b.start && a.duration == b.duration &&
                a.op == b.op && a.rank == b.rank && a.file == b.file &&
                a.offset == b.offset && a.bytes == b.bytes &&
                a.phase == b.phase)
        << "row " << i;
  }
}

/// Adds the rows it is handed to a counter that outlives it.
class CountingSink final : public EventSink {
 public:
  explicit CountingSink(std::size_t& rows) : rows_(&rows) {}
  void add_batch(const ColumnBatch& batch) override { *rows_ += batch.size(); }

 private:
  std::size_t* rows_;
};

TEST(MonitorTest, RunTornDownMidExecutionFlushesThenFreesItsSink) {
  // A run destroyed before execute() finishes (as when execute()
  // throws) hands its trailing batch to a live sink and only then
  // frees it: the run's monitor owns the sink.
  workloads::ScenarioBuilder scenario;
  scenario.machine("franklin").ior(
      {.tasks = 8, .block_size = 4 * MiB, .segments = 1});
  workloads::JobSpec job = scenario.job();
  std::size_t rows = 0;
  std::uint64_t calls = 0;
  std::weak_ptr<EventSink> watch;
  job.sink_factory = [&rows, &watch](std::size_t) {
    auto sink = std::make_shared<CountingSink>(rows);
    watch = sink;
    return sink;
  };
  {
    workloads::RunInstance run(job);
    run.runtime().start();
    sim::Engine& engine = run.context().engine();
    while (run.monitor().intercepted() < 20 && engine.step()) {
    }
    calls = run.monitor().intercepted();
    ASSERT_GE(calls, 20u);
    EXPECT_EQ(rows, 0u);  // fewer calls than one batch: nothing cut yet
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_EQ(rows, calls);
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace eio::ipm
