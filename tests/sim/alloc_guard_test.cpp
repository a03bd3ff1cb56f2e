// Steady-state allocation guard for the simulator hot path.
//
// This binary replaces global operator new/delete with counting
// versions (which is why it lives in its own test target) and asserts
// the acceptance criterion of the calendar/flow-store overhaul
// directly: after a warm-up pass has grown every slab and heap to its
// working size, Engine::schedule_in/cancel/reschedule/step and the
// FluidNetwork grant/complete paths perform ZERO heap allocations.
//
// The fluid test tolerates exactly one allocation per started flow —
// the test's own FlowSpec::osts stripe vector, built caller-side. Any
// network- or engine-internal allocation pushes the count past that
// and fails the equality.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "lustre/filesystem.h"
#include "posix/vfs.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "sim/run_context.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// The counting operators intentionally pair ::operator new with
// std::free; GCC's pairing heuristic flags that once a caller inlines
// through both.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eio::sim {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

TEST(AllocGuardTest, EngineScheduleCancelStepChurnIsAllocationFree) {
  Engine e;
  // Timeout-heavy shape: schedule a batch, move every event twice (the
  // flow-rate-change shape), cancel most, run the survivors — exercises
  // the freelist, eager heap removal and in-place sifts. The
  // bookkeeping vector is hoisted so that in the counting window the
  // only allocations possible are the engine's.
  std::vector<EventId> batch;
  batch.reserve(64);
  auto churn = [&e, &batch] {
    for (int round = 0; round < 100; ++round) {
      batch.clear();
      for (int i = 0; i < 50; ++i) batch.push_back(e.schedule_in(1.0 + i, [] {}));
      for (int i = 0; i < 50; ++i) {
        e.reschedule(batch[static_cast<std::size_t>(i)], e.now() + 60.0 - i);
      }
      for (EventId id : batch) e.reschedule(id, e.now() + 0.5);  // FIFO ties
      for (std::size_t i = 1; i < batch.size(); ++i) e.cancel(batch[i]);
      while (e.step()) {
      }
    }
  };
  churn();  // warm-up: grows the slot slab and the heap

  std::uint64_t before = allocs();
  churn();
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << "engine schedule/reschedule/cancel/step allocated in steady state";
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(e.events_run(), 200u);
}

TEST(AllocGuardTest, FluidGrantCompletePathIsAllocationFree) {
  Engine e;
  FluidNetwork::Config cfg;
  cfg.nic_capacity = {1000.0, 1000.0};
  cfg.ost_capacity = {100.0, 100.0, 100.0, 100.0};
  cfg.node_policy = ConcurrencyPolicy::fixed(2);  // forces waiting/pump
  FluidNetwork net(e, cfg);

  const std::vector<OstId> stripe{0, 1, 2, 3};
  int completed = 0;
  auto churn = [&]() -> std::size_t {
    std::size_t started = 0;
    for (int round = 0; round < 50; ++round) {
      for (NodeId node = 0; node < 2; ++node) {
        for (int i = 0; i < 6; ++i) {  // 6 > concurrency: queueing happens
          FlowSpec spec;
          spec.node = node;
          spec.bytes = 1000 + static_cast<Bytes>(i) * 100;
          spec.osts = stripe;  // the one caller-side allocation
          spec.on_complete = [&completed](FlowId) { ++completed; };
          net.start_flow(std::move(spec));
          ++started;
        }
      }
      e.run();
    }
    return started;
  };
  churn();  // warm-up: grows flow slab, group slabs, engine calendar

  std::uint64_t before = allocs();
  std::size_t started = churn();
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, started)
      << "expected exactly one (caller-side) allocation per started "
         "flow; the grant/complete path allocated internally";
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(completed, 0);
}

// The full stack above the fluid network: POSIX data ops through the
// Lustre facade. Completion callbacks are InlineFunction end to end
// (SizeCallback -> IoCallback -> FlowCallback -> Action), so in steady
// state the only allocation per op is the caller-side stripe vector
// the filesystem builds for each flow (osts_for_extent).
TEST(AllocGuardTest, LustrePosixDataOpPathIsAllocationFree) {
  lustre::MachineConfig m;
  m.name = "alloc-guard";
  m.tasks_per_node = 4;
  m.nic_bandwidth = 1e9;
  m.ost_count = 4;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.write_absorb_limit = 0;  // no background drains: pure sync path
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.rmw_inflation = 0.0;
  m.lock_latency_per_boundary = 0.0;
  m.syscall_latency = 0.0;

  RunContext run(m.seed);
  lustre::Filesystem fs(run, m, /*node_count=*/1);
  posix::PosixIo posix(run, fs, m.tasks_per_node);

  Fd fd = -1;
  posix.open(0, "f", posix::kCreate | posix::kWrOnly,
             [&fd](Fd got) { fd = got; });
  run.engine().run();
  ASSERT_GE(fd, 0);

  std::size_t completions = 0;
  auto churn = [&]() -> std::size_t {
    std::size_t ops = 0;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 4; ++i) {
        posix.pwrite(0, fd, 4 * MiB, static_cast<Bytes>(i) * 4 * MiB,
                     [&completions](std::int64_t n) {
                       ASSERT_GT(n, 0);
                       ++completions;
                     });
        ++ops;
      }
      run.engine().run();
      for (int i = 0; i < 4; ++i) {
        posix.pread(0, fd, 4 * MiB, static_cast<Bytes>(i) * 4 * MiB,
                    [&completions](std::int64_t n) {
                      ASSERT_GT(n, 0);
                      ++completions;
                    });
        ++ops;
      }
      run.engine().run();
    }
    return ops;
  };
  churn();  // warm-up: grows fd tables, flow slabs, engine calendar

  std::uint64_t before = allocs();
  std::size_t ops = churn();
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, ops)
      << "expected exactly one allocation per data op (the per-flow "
         "stripe vector); the POSIX/Lustre completion chain allocated";
  EXPECT_EQ(completions, 2u * ops);
  EXPECT_EQ(run.engine().live_events(), 0u);
}

}  // namespace
}  // namespace eio::sim
