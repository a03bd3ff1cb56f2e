// Campaign throughput: the same sweep sharded across 1 vs N worker
// processes, with the byte-identity contract checked in-process (the
// consolidated campaign.jsonl must be identical for every worker
// count, or the rows are meaningless). Writes BENCH_campaign.json.
//
// The bench binary is its own worker: the dispatcher execs
// /proc/self/exe with argv[1] = "campaign-worker", and main() routes
// that straight into the CLI library — the same path the installed
// eiotrace binary takes.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "campaign/campaign.h"
#include "cli/eiotrace.h"

namespace {

using eio::campaign::CampaignOptions;
using eio::campaign::run_campaign;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One campaign execution; returns wall seconds.
double time_campaign(const std::string& manifest, const std::string& out_dir,
                     std::size_t workers) {
  CampaignOptions opt;
  opt.manifest = manifest;
  opt.out_dir = out_dir;
  opt.workers = workers;
  std::ostringstream sink;
  auto t0 = std::chrono::steady_clock::now();
  int rc = run_campaign(opt, sink, sink);
  auto t1 = std::chrono::steady_clock::now();
  if (rc != 0) {
    std::fprintf(stderr, "campaign failed (rc %d):\n%s", rc,
                 sink.str().c_str());
    std::exit(1);
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: the dispatcher exec'd this binary back on itself.
  if (argc > 1 && std::strcmp(argv[1], "campaign-worker") == 0) {
    std::vector<std::string> args(argv + 1, argv + argc);
    return eio::cli::run_eiotrace(args, std::cout, std::cerr);
  }

  eio::bench::ObsFlags obs = eio::bench::obs_flags(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  namespace fs = std::filesystem;
  const fs::path work = "bench_campaign_tmp";
  fs::remove_all(work);
  fs::create_directories(work);

  // The sweep: a grid over seed x tasks x ensemble size on an inline
  // IOR base, expanded identically by every worker-count row.
  const int seeds = quick ? 4 : 8;
  const std::string manifest_path = (work / "sweep.json").string();
  {
    std::ofstream manifest(manifest_path);
    eio::json::Writer w(manifest);
    w.begin_object()
        .kv("schema_version", 1)
        .kv("name", "bench")
        .key("base")
        .begin_object()
        .kv("schema_version", 1)
        .kv("name", "bench-base")
        .kv("machine", "franklin")
        .kv("runs", 1)
        .key("workload")
        .begin_object()
        .kv("kind", "ior")
        .kv("tasks", 32)
        .kv("block_mib", 64)
        .kv("segments", 2)
        .end_object()
        .end_object()
        .key("sweep")
        .begin_object()
        .kv("mode", "grid")
        .key("axes")
        .begin_object()
        .key("seed")
        .begin_array();
    for (int s = 1; s <= seeds; ++s) w.value(s);
    w.end_array()
        .key("workload.tasks")
        .begin_array()
        .value(16)
        .value(32)
        .end_array()
        .key("runs")
        .begin_array()
        .value(1)
        .value(2)
        .end_array()
        .end_object()
        .end_object()
        .end_object();
    manifest << '\n';
  }
  const std::size_t run_count = static_cast<std::size_t>(seeds) * 2 * 2;

  const std::size_t hw = std::thread::hardware_concurrency();
  std::vector<std::size_t> worker_counts{1, 2};
  if (!quick) worker_counts.push_back(4);

  std::printf("bench_campaign: %zu-run sweep, workers 1 vs N\n", run_count);
  std::printf("%9s %12s %12s %10s\n", "workers", "seconds", "runs/sec",
              "speedup");

  struct Row {
    std::size_t workers;
    double seconds;
  };
  std::vector<Row> rows;
  std::string reference_store;
  bool identical = true;
  for (std::size_t w : worker_counts) {
    std::string dir_name = "w";
    dir_name += std::to_string(w);
    const std::string out_dir = (work / dir_name).string();
    double secs = time_campaign(manifest_path, out_dir, w);
    std::string store = slurp(out_dir + "/campaign.jsonl");
    if (reference_store.empty()) {
      reference_store = store;
    } else if (store != reference_store) {
      identical = false;
    }
    // The speedup column is a scaling claim; with scarce cores it is
    // suppressed, not printed-then-disclaimed.
    char speedup[32] = "-";
    if (w > 1 && !eio::bench::cores_scarce(w)) {
      std::snprintf(speedup, sizeof speedup, "x%.2f",
                    rows.front().seconds / secs);
    } else if (w > 1) {
      std::snprintf(speedup, sizeof speedup, "[cores scarce]");
    }
    std::printf("%9zu %12.2f %12.2f %10s\n", w, secs,
                static_cast<double>(run_count) / secs, speedup);
    rows.push_back({w, secs});
  }
  if (reference_store.empty()) {
    std::fprintf(stderr, "empty consolidated store\n");
    return 1;
  }
  std::printf("  consolidated stores byte-identical across worker counts: "
              "%s\n", identical ? "yes" : "NO");

  eio::bench::write_bench_json(
      "BENCH_campaign.json", "bench_campaign", [&](eio::json::Writer& w) {
        w.kv("sweep_runs", run_count).kv("hardware_concurrency", hw);
        eio::bench::write_scaling_note(w, worker_counts.back());
        w.kv("stores_byte_identical", identical).key("rows").begin_array();
        for (const Row& r : rows) {
          w.begin_object()
              .kv("workers", r.workers)
              .kv("seconds", r.seconds)
              .kv("runs_per_sec", static_cast<double>(run_count) / r.seconds)
              .kv("meaningful",
                  r.workers == 1 || !eio::bench::cores_scarce(r.workers))
              .end_object();
        }
        w.end_array();
      });

  fs::remove_all(work);
  eio::bench::finish_obs(obs);
  return identical ? 0 : 1;
}
