// Simulator hot-path throughput: the slab/inline-action calendar and
// the slab-backed fluid network, against the pre-overhaul engine.
//
// Rows:
//  * engine_churn          — schedule/cancel-heavy calendar traffic
//    (the flow-reschedule shape: batches scheduled, ~98% cancelled,
//    survivors run) through the current engine;
//  * engine_churn_legacy   — the same traffic through a faithful copy
//    of the pre-overhaul calendar (std::function actions, an
//    unordered_map live table, lazy cancel + compaction), kept here so
//    the speedup is measured against the real predecessor rather than
//    remembered numbers;
//  * engine_schedule_run / engine_schedule_run_legacy — pure
//    schedule-then-drain throughput at pseudorandom times;
//  * flow_churn            — FluidNetwork start→complete throughput on
//    a striped, token-scheduled workload (grant, waiting queue, pump,
//    recompute, completion callbacks);
//  * flow_full_stripe      — every flow stripes over every OST, the
//    full-scan recompute shape of collective I/O;
//  * scenario_ior          — end-to-end runs/sec of a 128-task IOR job
//    assembled by ScenarioBuilder, the figure the ensemble benches
//    actually buy with these micro wins.
//
// Every row runs in a forked child reporting its own VmHWM through a
// pipe (fork resets the child's high-water mark, so rows do not
// inherit earlier footprints). BENCH_sim.json carries build
// provenance, hardware_concurrency, and the measured
// churn_speedup_vs_legacy headline.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "workloads/experiment.h"
#include "workloads/scenario.h"

namespace {

using namespace eio;

long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> value;
      return value;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RowResult {
  double seconds = 0.0;
  double ops_per_sec = 0.0;  ///< row-specific unit; see the row list
  long peak_rss_kib = 0;
  double checksum = 0.0;     ///< keeps work observable / comparable
};

/// Run `fn` in a forked child and collect its RowResult through a pipe.
template <typename Fn>
RowResult measure(const Fn& fn) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    RowResult r = fn();
    r.peak_rss_kib = peak_rss_kib();
    ssize_t wrote = write(fds[1], &r, sizeof r);
    _exit(wrote == static_cast<ssize_t>(sizeof r) ? 0 : 1);
  }
  close(fds[1]);
  RowResult r{};
  ssize_t got = read(fds[0], &r, sizeof r);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof r) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "measurement child failed\n");
    std::exit(1);
  }
  return r;
}

// ---------------------------------------------------------------------------
// The pre-overhaul calendar, verbatim in structure: std::function
// actions (heap-allocated captures), an unordered_map live table
// probed on every schedule/cancel/step, lazy cancellation and
// dead-majority compaction. The baseline the slab engine's rows are
// compared against.
class LegacyCalendar {
 public:
  using Action = std::function<void()>;

  std::uint64_t schedule_at(double when, Action action) {
    std::uint64_t id = ++next_id_;
    live_.emplace(id, std::move(action));
    heap_.push_back(Entry{when, id});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return id;
  }

  bool cancel(std::uint64_t id) {
    if (live_.erase(id) == 0) return false;
    maybe_compact();
    return true;
  }

  bool step() {
    while (!heap_.empty()) {
      Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
      auto it = live_.find(top.id);
      if (it == live_.end()) continue;
      now_ = top.when;
      Action action = std::move(it->second);
      live_.erase(it);
      ++events_run_;
      action();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t events_run() const { return events_run_; }

 private:
  struct Entry {
    double when;
    std::uint64_t id;
    [[nodiscard]] bool operator>(const Entry& o) const noexcept {
      if (when != o.when) return when > o.when;
      return id > o.id;
    }
  };

  void maybe_compact() {
    if (heap_.size() < 64) return;
    if (heap_.size() - live_.size() <= live_.size()) return;
    std::erase_if(heap_,
                  [this](const Entry& e) { return live_.count(e.id) == 0; });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  double now_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::uint64_t events_run_ = 0;
  std::vector<Entry> heap_;
  std::unordered_map<std::uint64_t, Action> live_;
};

/// schedule/cancel churn: per round, schedule a batch, cancel all but
/// one, drain. `ops` = schedules + cancels + executed events.
template <typename Calendar>
RowResult run_engine_churn(std::size_t rounds, std::size_t batch) {
  Calendar cal;
  std::vector<std::uint64_t> doomed;
  doomed.reserve(batch);
  std::uint64_t sink = 0;
  double base = 1e6;
  double t0 = now_seconds();
  std::size_t ops = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    doomed.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      std::uint64_t id = cal.schedule_at(
          base + static_cast<double>(round * batch + i),
          [&sink, round, i] { sink += round * 31 + i; });
      if (i > 0) doomed.push_back(id);
    }
    for (std::uint64_t id : doomed) cal.cancel(id);
    while (cal.step()) {
    }
    ops += batch + doomed.size() + 1;
  }
  RowResult r;
  r.seconds = now_seconds() - t0;
  r.ops_per_sec = static_cast<double>(ops) / r.seconds;
  r.checksum = static_cast<double>(sink);
  if (cal.events_run() != rounds) std::abort();
  return r;
}

/// Pure schedule-then-drain at pseudorandom times (no cancels).
template <typename Calendar>
RowResult run_engine_schedule_run(std::size_t events) {
  Calendar cal;
  std::uint64_t sink = 0;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  double t0 = now_seconds();
  for (std::size_t i = 0; i < events; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double when = static_cast<double>(state % 1000000) / 10.0;
    cal.schedule_at(when, [&sink, i] { sink += i; });
  }
  cal.run();
  RowResult r;
  r.seconds = now_seconds() - t0;
  r.ops_per_sec = static_cast<double>(events) / r.seconds;
  r.checksum = static_cast<double>(sink);
  if (cal.events_run() != events) std::abort();
  return r;
}

/// FluidNetwork start→complete throughput. `stripe_all` = every flow
/// stripes over every OST (the collective full-scan recompute shape);
/// otherwise flows stripe over 4 of 16 OSTs round-robin.
RowResult run_flow_churn(std::size_t rounds, bool stripe_all) {
  sim::Engine engine;
  sim::FluidNetwork::Config cfg;
  cfg.nic_capacity.assign(8, 1000.0);
  cfg.ost_capacity.assign(16, 100.0);
  cfg.node_policy = sim::ConcurrencyPolicy::franklin_mix();
  sim::FluidNetwork net(engine, cfg);

  std::size_t completed = 0;
  std::vector<OstId> stripe;
  double t0 = now_seconds();
  std::size_t started = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (NodeId node = 0; node < 8; ++node) {
      for (int s = 0; s < 6; ++s) {
        stripe.clear();
        if (stripe_all) {
          for (OstId o = 0; o < 16; ++o) stripe.push_back(o);
        } else {
          for (OstId o = 0; o < 4; ++o) {
            stripe.push_back((node * 4 + static_cast<OstId>(s) + o) % 16);
          }
        }
        sim::FlowSpec spec;
        spec.node = node;
        spec.bytes = 64 << 20;
        spec.osts = stripe;
        spec.on_complete = [&completed](sim::FlowId) { ++completed; };
        net.start_flow(std::move(spec));
        ++started;
      }
    }
    engine.run();
  }
  RowResult r;
  r.seconds = now_seconds() - t0;
  r.ops_per_sec = static_cast<double>(started) / r.seconds;
  r.checksum = static_cast<double>(completed);
  if (completed != started) std::abort();
  return r;
}

/// End-to-end: runs/sec of a 128-task IOR job (the ensemble unit of
/// work every ROADMAP item multiplies).
RowResult run_scenario_ior(std::size_t runs) {
  workloads::IorConfig cfg;
  cfg.tasks = 128;
  cfg.segments = 2;
  workloads::JobSpec job =
      workloads::ScenarioBuilder().machine("franklin").ior(cfg).job();
  double t0 = now_seconds();
  auto results = workloads::run_ensemble(job, runs, /*jobs=*/1);
  RowResult r;
  r.seconds = now_seconds() - t0;
  r.ops_per_sec = static_cast<double>(runs) / r.seconds;
  double total = 0.0;
  for (const auto& res : results) total += res.job_time;
  r.checksum = total;
  if (results.size() != runs) std::abort();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  eio::bench::ObsFlags obs = eio::bench::obs_flags(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t churn_rounds = quick ? 2'000 : 20'000;
  const std::size_t churn_batch = 50;
  const std::size_t drain_events = quick ? 100'000 : 1'000'000;
  const std::size_t flow_rounds = quick ? 200 : 2'000;
  const std::size_t scenario_runs = quick ? 2 : 8;

  std::printf("micro_sim: simulator hot-path throughput\n");
  std::printf("%26s %8s %16s %14s\n", "row", "unit", "ops/sec",
              "peak RSS KiB");

  const std::size_t cores = std::thread::hardware_concurrency();

  struct Row {
    std::string name;
    const char* unit;
    RowResult result;
  };
  std::vector<Row> rows;
  auto emit = [&rows](std::string name, const char* unit, RowResult r) {
    std::printf("%26s %8s %16.0f %14ld\n", name.c_str(), unit, r.ops_per_sec,
                r.peak_rss_kib);
    rows.push_back({std::move(name), unit, r});
  };

  RowResult churn = measure([&] {
    return run_engine_churn<eio::sim::Engine>(churn_rounds, churn_batch);
  });
  emit("engine_churn", "events", churn);
  RowResult churn_legacy = measure([&] {
    return run_engine_churn<LegacyCalendar>(churn_rounds, churn_batch);
  });
  emit("engine_churn_legacy", "events", churn_legacy);
  if (churn.checksum != churn_legacy.checksum) {
    std::fprintf(stderr, "churn checksums disagree across engines\n");
    return 1;
  }
  double churn_speedup = churn.ops_per_sec / churn_legacy.ops_per_sec;
  std::printf("%26s %8s %15.2fx\n", "churn_speedup", "", churn_speedup);

  RowResult drain = measure(
      [&] { return run_engine_schedule_run<eio::sim::Engine>(drain_events); });
  emit("engine_schedule_run", "events", drain);
  RowResult drain_legacy = measure(
      [&] { return run_engine_schedule_run<LegacyCalendar>(drain_events); });
  emit("engine_schedule_run_legacy", "events", drain_legacy);
  if (drain.checksum != drain_legacy.checksum) {
    std::fprintf(stderr, "drain checksums disagree across engines\n");
    return 1;
  }

  RowResult flows = measure(
      [&] { return run_flow_churn(flow_rounds, /*stripe_all=*/false); });
  emit("flow_churn", "flows", flows);
  RowResult full_stripe = measure(
      [&] { return run_flow_churn(flow_rounds, /*stripe_all=*/true); });
  emit("flow_full_stripe", "flows", full_stripe);

  RowResult scenario = measure([&] { return run_scenario_ior(scenario_runs); });
  emit("scenario_ior", "runs", scenario);

  eio::bench::write_bench_json(
      "BENCH_sim.json", "micro_sim", [&](eio::json::Writer& w) {
        w.kv("note",
             "each row measured in a forked child, so "
             "peak_rss_kib is per-row VmHWM; engine rows count calendar "
             "operations (schedules + cancels + executed events for churn, "
             "executed events for schedule_run), flow rows count completed "
             "flows, scenario_ior counts whole simulated runs; *_legacy "
             "rows drive an in-bench copy of the pre-overhaul calendar "
             "(std::function actions + unordered_map live table) over "
             "identical traffic, and churn_speedup_vs_legacy is the "
             "current/legacy ratio of the churn rows");
        w.kv("hardware_concurrency", cores)
            .kv("churn_speedup_vs_legacy", churn_speedup)
            .key("rows")
            .begin_array();
        for (const Row& r : rows) {
          w.begin_object()
              .kv("row", r.name)
              .kv("unit", r.unit)
              .kv("ops_per_sec", r.result.ops_per_sec)
              .kv("seconds", r.result.seconds)
              .kv("peak_rss_kib", r.result.peak_rss_kib)
              .end_object();
        }
        w.end_array();
      });
  eio::bench::finish_obs(obs);
  return 0;
}
