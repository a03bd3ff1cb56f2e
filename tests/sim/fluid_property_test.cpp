// Randomized property tests for the fluid network: under arbitrary
// (seeded) arrival patterns, policies, and topologies, the core
// invariants must hold — every flow completes, every byte is
// accounted, no resource is left occupied, runs are reproducible, and
// the cached OST/group shares never drift from a fresh recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/fluid.h"

namespace eio::sim {

/// White-box access for the share-cache properties: recomputes OST
/// slices, group shares and flow rates from the live topology alone
/// (client counts, group sizes, capacities), ignoring every cache.
class FluidNetworkTestPeer {
 public:
  /// Empty if every cached node_slice and group share equals its
  /// recomputed value bit for bit; else names the first mismatch.
  static std::string stale_share(const FluidNetwork& net) {
    std::ostringstream why;
    for (std::size_t o = 0; o < net.osts_.size(); ++o) {
      const FluidNetwork::Ost& ost = net.osts_[o];
      if (ost.order.empty()) continue;
      double slice = recomputed_slice(net, ost);
      if (ost.node_slice != slice) {
        why << "ost " << o << " node_slice " << ost.node_slice << " != " << slice;
        return why.str();
      }
      for (std::uint32_t gi : ost.order) {
        const FluidNetwork::Group& g = ost.groups[gi];
        double share = slice / static_cast<double>(g.ids.size());
        if (g.share != share) {
          why << "ost " << o << " node " << g.node << " share " << g.share
              << " != " << share;
          return why.str();
        }
      }
    }
    return {};
  }

  /// Granted flows, in creation order.
  static std::vector<FlowId> granted_flows(const FluidNetwork& net) {
    std::vector<FlowId> out;
    for (std::uint32_t s = net.active_head_; s != FluidNetwork::kNoIndex;
         s = net.flow_slots_[s].next) {
      const FluidNetwork::Flow& f = net.flow_slots_[s].f;
      if (f.granted) out.push_back(f.id);
    }
    return out;
  }

  /// min(NIC share, Σ OST shares × ost_efficiency, cap) for a granted
  /// flow, with each OST's group found by node rather than through the
  /// flow's cached group index.
  static Rate recomputed_rate(const FluidNetwork& net, FlowId id) {
    const FluidNetwork::Flow& f = net.flow_slots_[FluidNetwork::slot_of(id)].f;
    const FluidNetwork::Node& n = net.nodes_[f.node];
    Rate nic = n.nic_capacity / static_cast<double>(n.granted.size());
    Rate ost_total = 0.0;
    for (OstId o : f.osts) {
      const FluidNetwork::Ost& ost = net.osts_[o];
      for (std::uint32_t gi : ost.order) {
        const FluidNetwork::Group& g = ost.groups[gi];
        if (g.node != f.node) continue;
        ost_total += recomputed_slice(net, ost) / static_cast<double>(g.ids.size());
      }
    }
    ost_total *= f.ost_efficiency;
    return std::min({nic, ost_total, f.cap});
  }

 private:
  static double recomputed_slice(const FluidNetwork& net, const FluidNetwork::Ost& ost) {
    std::size_t clients = ost.order.size();
    double eff = net.contention_.efficiency(static_cast<std::uint32_t>(clients));
    return ost.capacity * eff / static_cast<double>(clients);
  }
};

namespace {

struct FuzzCase {
  std::uint64_t seed;
  std::uint32_t nodes;
  std::uint32_t osts;
  std::uint32_t flows;
  ConcurrencyPolicy policy;
  ContentionModel contention;
};

class FluidFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidFuzzTest, InvariantsHoldUnderRandomTraffic) {
  rng::Stream fuzz(GetParam());
  FuzzCase c;
  c.seed = GetParam();
  c.nodes = 1 + static_cast<std::uint32_t>(fuzz.index(24));
  c.osts = 1 + static_cast<std::uint32_t>(fuzz.index(12));
  c.flows = 50 + static_cast<std::uint32_t>(fuzz.index(300));
  switch (fuzz.index(4)) {
    case 0: c.policy = ConcurrencyPolicy::fixed(1); break;
    case 1: c.policy = ConcurrencyPolicy::fixed(2); break;
    case 2: c.policy = ConcurrencyPolicy::fixed(4); break;
    default: c.policy = ConcurrencyPolicy::franklin_mix(); break;
  }
  if (fuzz.chance(0.5)) {
    c.contention = {.alpha = fuzz.uniform(0.01, 0.5),
                    .knee = static_cast<std::uint32_t>(fuzz.index(8))};
  }

  Engine engine;
  FluidNetwork net(engine,
                   {.nic_capacity = std::vector<Rate>(c.nodes, 1e6),
                    .ost_capacity = std::vector<Rate>(c.osts, 1e4),
                    .node_policy = c.policy,
                    .contention = c.contention,
                    .seed = c.seed});

  Bytes total = 0;
  std::size_t completed = 0;
  std::vector<double> completion_times;
  // Staged specs outlive their launch actions (a FlowSpec no longer
  // fits an inline Action capture; reserve keeps pointers stable).
  std::vector<FlowSpec> staged;
  staged.reserve(c.flows);
  // Arrivals staggered over time, random sizes/targets/caps.
  double t = 0.0;
  for (std::uint32_t i = 0; i < c.flows; ++i) {
    t += fuzz.exponential(0.05);
    Bytes bytes = 1 + fuzz.index(200'000);
    total += bytes;
    std::vector<OstId> osts;
    std::uint32_t fan = 1 + static_cast<std::uint32_t>(fuzz.index(c.osts));
    for (std::uint32_t o = 0; o < fan; ++o) {
      osts.push_back(static_cast<OstId>(fuzz.index(c.osts)));
    }
    FlowSpec spec;
    spec.node = static_cast<NodeId>(fuzz.index(c.nodes));
    spec.bytes = bytes;
    spec.osts = std::move(osts);
    spec.scheduled = !fuzz.chance(0.1);
    if (fuzz.chance(0.2)) spec.cap = fuzz.uniform(100.0, 5000.0);
    spec.on_complete = [&completed, &completion_times, &engine](FlowId) {
      ++completed;
      completion_times.push_back(engine.now());
    };
    staged.push_back(std::move(spec));
    FlowSpec* sp = &staged.back();
    engine.schedule_at(t, [&net, sp] { net.start_flow(std::move(*sp)); });
  }
  engine.run();

  // Invariant 1: every flow completed and every byte is accounted.
  EXPECT_EQ(completed, c.flows);
  EXPECT_EQ(net.bytes_completed(), total);
  // Invariant 2: no residual occupancy anywhere.
  EXPECT_EQ(net.active_flows(), 0u);
  for (std::uint32_t n = 0; n < c.nodes; ++n) {
    EXPECT_EQ(net.node_granted(n), 0u);
    EXPECT_EQ(net.node_waiting(n), 0u);
  }
  for (std::uint32_t o = 0; o < c.osts; ++o) {
    EXPECT_EQ(net.ost_flow_count(o), 0u);
    EXPECT_EQ(net.ost_client_count(o), 0u);
  }
  // Invariant 3: completion times are sane (finite, non-negative).
  for (double ct : completion_times) {
    EXPECT_GE(ct, 0.0);
    EXPECT_LT(ct, 1e7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(FluidFuzzTest, IdenticalSeedsProduceIdenticalSchedules) {
  auto run_once = [](std::uint64_t seed) {
    Engine engine;
    FluidNetwork net(engine,
                     {.nic_capacity = std::vector<Rate>(8, 1e6),
                      .ost_capacity = std::vector<Rate>(4, 1e4),
                      .node_policy = ConcurrencyPolicy::franklin_mix(),
                      .seed = seed});
    std::vector<double> times;
    rng::Stream fuzz(seed * 31);
    for (int i = 0; i < 100; ++i) {
      FlowSpec spec;
      spec.node = static_cast<NodeId>(fuzz.index(8));
      spec.bytes = 1000 + fuzz.index(50'000);
      spec.osts = {static_cast<OstId>(fuzz.index(4))};
      spec.on_complete = [&times, &engine](FlowId) {
        times.push_back(engine.now());
      };
      net.start_flow(std::move(spec));
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

/// Seeded random traffic for the share-cache properties: staggered
/// arrivals with random sizes, caps and read penalties, plus
/// set_ost_capacity windows that slow an OST and later restore it.
/// `full_stripe` makes every flow stripe over every OST.
struct CacheScript {
  CacheScript(std::uint64_t seed, bool full_stripe)
      : fuzz(seed),
        nodes(1 + static_cast<std::uint32_t>(fuzz.index(12))),
        osts(1 + static_cast<std::uint32_t>(fuzz.index(8))),
        net(engine, {.nic_capacity = std::vector<Rate>(nodes, 1e6),
                     .ost_capacity = std::vector<Rate>(osts, 1e4),
                     .node_policy = ConcurrencyPolicy::franklin_mix(),
                     .contention = {.alpha = fuzz.uniform(0.01, 0.5),
                                    .knee = static_cast<std::uint32_t>(
                                        fuzz.index(4))},
                     .seed = seed}) {
    std::uint32_t flows = 100 + static_cast<std::uint32_t>(fuzz.index(200));
    staged.reserve(flows);
    double t = 0.0;
    for (std::uint32_t i = 0; i < flows; ++i) {
      t += fuzz.exponential(0.05);
      FlowSpec spec;
      spec.node = static_cast<NodeId>(fuzz.index(nodes));
      spec.bytes = 1 + fuzz.index(100'000);
      std::uint32_t fan =
          full_stripe ? osts : 1 + static_cast<std::uint32_t>(fuzz.index(osts));
      for (std::uint32_t o = 0; o < fan; ++o) {
        spec.osts.push_back(full_stripe ? o
                                        : static_cast<OstId>(fuzz.index(osts)));
      }
      spec.scheduled = !fuzz.chance(0.1);
      if (fuzz.chance(0.2)) spec.cap = fuzz.uniform(100.0, 5000.0);
      if (fuzz.chance(0.2)) spec.ost_efficiency = fuzz.uniform(0.3, 1.0);
      staged.push_back(std::move(spec));
      FlowSpec* sp = &staged.back();
      engine.schedule_at(t, [this, sp] { net.start_flow(std::move(*sp)); });
    }
    for (int w = 0; w < 4; ++w) {
      auto o = static_cast<OstId>(fuzz.index(osts));
      double begin = fuzz.uniform(0.0, t);
      double slow = fuzz.uniform(0.05, 0.9) * 1e4;
      engine.schedule_at(begin, [this, o, slow] { net.set_ost_capacity(o, slow); });
      engine.schedule_at(begin + fuzz.exponential(2.0),
                         [this, o] { net.set_ost_capacity(o, 1e4); });
    }
  }

  rng::Stream fuzz;
  std::uint32_t nodes;
  std::uint32_t osts;
  Engine engine;
  FluidNetwork net;
  std::vector<FlowSpec> staged;
};

class FluidShareCacheTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidShareCacheTest, CachedSharesMatchScratchAfterEveryStep) {
  CacheScript script(GetParam(), /*full_stripe=*/false);
  std::size_t steps = 0;
  while (script.engine.step()) {
    ++steps;
    std::string stale = FluidNetworkTestPeer::stale_share(script.net);
    ASSERT_TRUE(stale.empty()) << "step " << steps << ": " << stale;
  }
  EXPECT_EQ(script.net.active_flows(), 0u);
  EXPECT_GT(steps, script.staged.size());
}

TEST_P(FluidShareCacheTest, FullStripeRatesMatchScratchAfterEveryStep) {
  // Full-stripe only: with partial stripes a pumped flow can land on
  // OSTs outside the completing flow's stripe, and flows of other nodes
  // there keep a stale rate until a later recompute reaches them.
  CacheScript script(GetParam(), /*full_stripe=*/true);
  std::size_t steps = 0;
  std::size_t checked = 0;
  while (script.engine.step()) {
    ++steps;
    for (FlowId id : FluidNetworkTestPeer::granted_flows(script.net)) {
      ASSERT_EQ(script.net.flow_rate(id),
                FluidNetworkTestPeer::recomputed_rate(script.net, id))
          << "step " << steps << " flow " << id;
      ++checked;
    }
  }
  EXPECT_EQ(script.net.active_flows(), 0u);
  EXPECT_GT(checked, steps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidShareCacheTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace eio::sim
