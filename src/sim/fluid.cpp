#include "sim/fluid.h"

#include <algorithm>
#include <cmath>

#include "obs/registry.h"

namespace eio::sim {

ConcurrencyPolicy::ConcurrencyPolicy(std::vector<Choice> cs)
    : choices(std::move(cs)) {
  EIO_CHECK_MSG(!choices.empty(), "empty concurrency policy");
  cumulative.reserve(choices.size());
  // The partial sums must be the exact sequence the old per-sample
  // accumulation produced, so draws stay bit-identical.
  double acc = 0.0;
  for (const Choice& c : choices) {
    EIO_CHECK_MSG(c.probability > 0.0,
                  "concurrency probability must be positive, got "
                      << c.probability << " for streams=" << c.streams);
    acc += c.probability;
    cumulative.push_back(acc);
  }
  EIO_CHECK_MSG(std::abs(acc - 1.0) <= 1e-9,
                "concurrency probabilities sum to " << acc << ", expected 1");
}

std::uint32_t ConcurrencyPolicy::sample(rng::Stream& s) const {
  EIO_CHECK_MSG(!choices.empty(), "empty concurrency policy");
  double u = s.uniform();
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (u < cumulative[i]) return choices[i].streams;
  }
  // Unreachable for valid policies (sum == 1) unless u lands in the
  // rounding sliver at the top; keep the historical fallback.
  return choices.back().streams;
}

FluidNetwork::FluidNetwork(Engine& engine, Config config)
    : engine_(engine),
      contention_(config.contention),
      policy_(std::move(config.node_policy)) {
  EIO_CHECK(!config.nic_capacity.empty());
  EIO_CHECK(!config.ost_capacity.empty());
  rng::StreamFactory factory(config.seed);
  nodes_.resize(config.nic_capacity.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].nic_capacity = config.nic_capacity[i];
    nodes_[i].rng = rng::make_stream(factory, rng::StreamKind::kNodeScheduler, i);
    EIO_CHECK(nodes_[i].nic_capacity > 0.0);
  }
  osts_.resize(config.ost_capacity.size());
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    osts_[i].capacity = config.ost_capacity[i];
    EIO_CHECK(osts_[i].capacity > 0.0);
  }
}

std::uint32_t FluidNetwork::acquire_flow_slot() {
  std::uint32_t slot;
  if (flow_free_head_ != kNoIndex) {
    slot = flow_free_head_;
    flow_free_head_ = flow_slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(flow_slots_.size());
    flow_slots_.emplace_back();
  }
  FlowSlot& s = flow_slots_[slot];
  s.prev = active_tail_;
  s.next = kNoIndex;
  if (active_tail_ != kNoIndex) {
    flow_slots_[active_tail_].next = slot;
  } else {
    active_head_ = slot;
  }
  active_tail_ = slot;
  ++active_count_;
  return slot;
}

void FluidNetwork::unlink_active(std::uint32_t slot) {
  FlowSlot& s = flow_slots_[slot];
  if (s.prev != kNoIndex) {
    flow_slots_[s.prev].next = s.next;
  } else {
    active_head_ = s.next;
  }
  if (s.next != kNoIndex) {
    flow_slots_[s.next].prev = s.prev;
  } else {
    active_tail_ = s.prev;
  }
  s.prev = s.next = kNoIndex;
  --active_count_;
}

void FluidNetwork::release_flow_slot(std::uint32_t slot) {
  FlowSlot& s = flow_slots_[slot];
  ++s.generation;
  s.next_free = flow_free_head_;
  flow_free_head_ = slot;
}

FlowId FluidNetwork::start_flow(FlowSpec spec) {
  EIO_CHECK_MSG(spec.node < nodes_.size(), "bad node id " << spec.node);
  for (OstId o : spec.osts) EIO_CHECK_MSG(o < osts_.size(), "bad ost id " << o);
  EIO_CHECK_MSG(!spec.osts.empty(), "flow must touch at least one OST");

  std::uint32_t slot = acquire_flow_slot();
  FlowSlot& cell = flow_slots_[slot];
  FlowId id = pack(slot, cell.generation);
  Flow& f = cell.f;
  f.id = id;
  f.node = spec.node;
  // Copy into the slot's retained buffer (steady state: no growth)
  // rather than adopting the spec's allocation.
  f.osts.assign(spec.osts.begin(), spec.osts.end());
  // De-duplicate the OST set; shares are computed per unique OST.
  std::sort(f.osts.begin(), f.osts.end());
  f.osts.erase(std::unique(f.osts.begin(), f.osts.end()), f.osts.end());
  f.group_idx.clear();
  f.group_idx.reserve(f.osts.size());
  f.total_bytes = spec.bytes;
  f.remaining = static_cast<double>(spec.bytes);
  f.cap = spec.cap;
  f.ost_efficiency = spec.ost_efficiency;
  f.scheduled = spec.scheduled;
  f.granted = false;
  f.rate = 0.0;
  f.last_update = engine_.now();
  f.visit_epoch = 0;
  f.completion = kInvalidEvent;
  f.on_complete = std::move(spec.on_complete);

  if (f.remaining <= 0.0) {
    // Zero-byte transfer: complete on the next event boundary so the
    // caller's callback never runs re-entrantly inside start_flow. The
    // slot is returned immediately — the id was only minted so the
    // callback has a (now-dead) handle.
    auto cb = std::move(f.on_complete);
    unlink_active(slot);
    release_flow_slot(slot);
    engine_.schedule_in(0.0, [cb = std::move(cb), id]() mutable {
      if (cb) cb(id);
    });
    return id;
  }

  Node& n = nodes_[f.node];
  maybe_start_burst(n);

  bool can_grant = !f.scheduled || n.granted.size() < n.concurrency;
  if (can_grant) {
    grant(f);
    recompute_touching(f.node, f.osts);
  } else {
    n.waiting.push_back(id);
  }
  return id;
}

void FluidNetwork::maybe_start_burst(Node& n) {
  if (n.granted.empty() && n.waiting.empty()) {
    n.concurrency = policy_.sample(n.rng);
    EIO_CHECK(n.concurrency >= 1);
  }
}

std::uint32_t FluidNetwork::find_or_make_group(Ost& ost, NodeId node) {
  auto it = std::lower_bound(
      ost.order.begin(), ost.order.end(), node,
      [&ost](std::uint32_t gi, NodeId n) { return ost.groups[gi].node < n; });
  if (it != ost.order.end() && ost.groups[*it].node == node) return *it;
  std::uint32_t gi;
  if (ost.free_head != kNoIndex) {
    gi = ost.free_head;
    ost.free_head = ost.groups[gi].next_free;
  } else {
    gi = static_cast<std::uint32_t>(ost.groups.size());
    ost.groups.emplace_back();
  }
  Group& g = ost.groups[gi];
  g.node = node;
  g.ids.clear();  // reused cells keep their capacity
  ost.order.insert(it, gi);
  return gi;
}

void FluidNetwork::refresh_ost_shares(Ost& ost) {
  std::size_t clients = ost.order.size();
  if (clients == 0) return;
  double eff = contention_.efficiency(static_cast<std::uint32_t>(clients));
  ost.node_slice = ost.capacity * eff / static_cast<double>(clients);
  for (std::uint32_t gi : ost.order) refresh_group_share(ost, ost.groups[gi]);
}

void FluidNetwork::grant(Flow& f) {
  EIO_CHECK(!f.granted);
  f.granted = true;
  ++granted_count_;
  Node& n = nodes_[f.node];
  n.granted.push_back(f.id);
  f.group_idx.clear();
  f.group_idx.reserve(f.osts.size());
  for (OstId o : f.osts) {
    Ost& ost = osts_[o];
    std::size_t clients = ost.order.size();
    std::uint32_t gi = find_or_make_group(ost, f.node);
    Group& g = ost.groups[gi];
    g.ids.push_back(f.id);
    if (ost.order.size() != clients) {
      refresh_ost_shares(ost);  // a new client re-slices the OST
    } else {
      refresh_group_share(ost, g);
    }
    f.group_idx.push_back(gi);
    ++ost.flow_count;
  }
}

void FluidNetwork::release_resources(Flow& f) {
  Node& n = nodes_[f.node];
  if (f.granted) {
    --granted_count_;
    auto it = std::find(n.granted.begin(), n.granted.end(), f.id);
    EIO_CHECK(it != n.granted.end());
    n.granted.erase(it);
    for (std::size_t i = 0; i < f.osts.size(); ++i) {
      Ost& ost = osts_[f.osts[i]];
      std::uint32_t gi = f.group_idx[i];
      Group& g = ost.groups[gi];
      auto fit = std::find(g.ids.begin(), g.ids.end(), f.id);
      EIO_CHECK(fit != g.ids.end());
      g.ids.erase(fit);
      if (g.ids.empty()) {
        auto oit = std::lower_bound(
            ost.order.begin(), ost.order.end(), g.node,
            [&ost](std::uint32_t o, NodeId nn) { return ost.groups[o].node < nn; });
        EIO_CHECK(oit != ost.order.end() && *oit == gi);
        ost.order.erase(oit);
        g.next_free = ost.free_head;
        ost.free_head = gi;
        refresh_ost_shares(ost);  // one client fewer re-slices the OST
      } else {
        refresh_group_share(ost, g);
      }
      --ost.flow_count;
    }
    f.group_idx.clear();
  } else {
    auto it = std::find(n.waiting.begin(), n.waiting.end(), f.id);
    EIO_CHECK(it != n.waiting.end());
    n.waiting.erase(it);
  }
  f.granted = false;
}

void FluidNetwork::pump_waiting(Node& n) {
  while (!n.waiting.empty() && n.granted.size() < n.concurrency) {
    // Random grant order: scheduler luck is redrawn per stream, which
    // averages out over a task's successive calls (LLN, Figure 2).
    std::size_t pick = static_cast<std::size_t>(n.rng.index(n.waiting.size()));
    FlowId id = n.waiting[pick];
    n.waiting.erase(n.waiting.begin() + static_cast<std::ptrdiff_t>(pick));
    grant(resolve(id));
  }
}

void FluidNetwork::settle(Flow& f) {
  Seconds now = engine_.now();
  double dt = now - f.last_update;
  if (dt > 0.0 && f.rate > 0.0) {
    f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
  f.last_update = now;
}

Rate FluidNetwork::compute_rate(const Flow& f) const {
  if (!f.granted) return 0.0;
  const Node& n = nodes_[f.node];
  EIO_DCHECK(!n.granted.empty());
  Rate nic_share = n.nic_capacity / static_cast<double>(n.granted.size());

  Rate ost_total = 0.0;
  for (std::size_t i = 0; i < f.osts.size(); ++i) {
    const Group& g = osts_[f.osts[i]].groups[f.group_idx[i]];
    EIO_DCHECK(!g.ids.empty());
    ost_total += g.share;
  }
  ost_total *= f.ost_efficiency;

  return std::min({nic_share, ost_total, f.cap});
}

void FluidNetwork::reschedule(Flow& f) {
  if (f.rate <= 0.0) {  // waiting flows have no completion event
    engine_.cancel(f.completion);
    f.completion = kInvalidEvent;
    return;
  }
  // Moving the pending completion takes a fresh seq, as cancel +
  // schedule_at would, so equal-time completions keep their FIFO order.
  Seconds when = engine_.now() + f.remaining / f.rate;
  if (engine_.reschedule(f.completion, when)) return;
  FlowId id = f.id;
  f.completion = engine_.schedule_at(when, [this, id] { complete_flow(id); });
}

bool FluidNetwork::refresh(Flow& f) {
  settle(f);
  Rate rate = compute_rate(f);
  // If the rate is unchanged, the pending completion event is still
  // exact (settle advanced last_update by exactly rate*dt), so the
  // reschedule can be skipped.
  if (rate == f.rate && f.completion != kInvalidEvent) return false;
  f.rate = rate;
  reschedule(f);
  return true;
}

void FluidNetwork::count_refreshes(std::uint64_t refreshed, std::uint64_t changed) {
  OBS_COUNTER_ADD("sim.flow_refreshes", refreshed);
  OBS_COUNTER_ADD("sim.flow_rate_changes", changed);
}

void FluidNetwork::recompute_touching(NodeId node, const std::vector<OstId>& osts) {
  // When the touched resources cover most granted flows (typical for
  // full-stripe transfers where every flow uses every OST), a direct
  // scan is cheaper than gathering per-resource lists.
  std::size_t touched = nodes_[node].granted.size();
  for (OstId o : osts) touched += osts_[o].flow_count;
  std::uint64_t refreshed = 0;
  std::uint64_t changed = 0;
  if (touched >= granted_count_) {
    // Canonical refresh order: flow creation order, i.e. the active
    // list front to back. The order flows are refreshed in fixes the
    // FIFO sequence of any completion events rescheduled to equal
    // times, so it is part of the determinism contract — it must be a
    // defined order, not an accident of hash-map iteration.
    for (std::uint32_t s = active_head_; s != kNoIndex; s = flow_slots_[s].next) {
      Flow& f = flow_slots_[s].f;
      if (!f.granted) continue;
      ++refreshed;
      changed += refresh(f) ? 1 : 0;
    }
    count_refreshes(refreshed, changed);
    return;
  }

  ++epoch_;
  auto visit = [this, &refreshed, &changed](FlowId id) {
    Flow& f = resolve(id);
    if (f.visit_epoch == epoch_) return;
    f.visit_epoch = epoch_;
    ++refreshed;
    changed += refresh(f) ? 1 : 0;
  };
  for (FlowId id : nodes_[node].granted) visit(id);
  // Per-OST groups visited in ascending node order (the `order` index
  // is sorted by node) — the same canonical-order argument as the full
  // scan above.
  for (OstId o : osts) {
    const Ost& ost = osts_[o];
    for (std::uint32_t gi : ost.order) {
      for (FlowId id : ost.groups[gi].ids) visit(id);
    }
  }
  count_refreshes(refreshed, changed);
}

void FluidNetwork::complete_flow(FlowId id) {
  std::uint32_t slot = slot_of(id);
  EIO_CHECK(slot < flow_slots_.size() &&
            flow_slots_[slot].generation == gen_of(id));
  Flow& f = flow_slots_[slot].f;
  settle(f);
  // The completion event fires exactly at remaining/rate; any residue
  // is floating-point noise.
  EIO_DCHECK(f.remaining < 1.0);
  bytes_completed_ += f.total_bytes;

  NodeId node = f.node;
  FlowCallback on_complete = std::move(f.on_complete);

  release_resources(f);
  // Off the active list before recomputing, so the full scan no longer
  // sees the completing flow; the slot itself (and f.osts) stays alive
  // until after the recompute, which still needs the OST list.
  unlink_active(slot);

  Node& n = nodes_[node];
  pump_waiting(n);
  recompute_touching(node, f.osts);

  // No start_flow can have happened since unlinking (grant/refresh
  // never re-enter user code), so the slot is still ours to return.
  release_flow_slot(slot);
  if (on_complete) on_complete(id);
}

Rate FluidNetwork::flow_rate(FlowId id) const {
  if (!flow_active(id)) return 0.0;
  return flow_slots_[slot_of(id)].f.rate;
}

std::size_t FluidNetwork::ost_flow_count(OstId ost) const {
  EIO_CHECK(ost < osts_.size());
  return osts_[ost].flow_count;
}

std::size_t FluidNetwork::ost_client_count(OstId ost) const {
  EIO_CHECK(ost < osts_.size());
  return osts_[ost].order.size();
}

std::size_t FluidNetwork::node_granted(NodeId node) const {
  EIO_CHECK(node < nodes_.size());
  return nodes_[node].granted.size();
}

std::size_t FluidNetwork::node_waiting(NodeId node) const {
  EIO_CHECK(node < nodes_.size());
  return nodes_[node].waiting.size();
}

void FluidNetwork::set_ost_capacity(OstId ost, Rate capacity) {
  EIO_CHECK(ost < osts_.size());
  EIO_CHECK(capacity > 0.0);
  osts_[ost].capacity = capacity;
  refresh_ost_shares(osts_[ost]);
  recompute_touching_ost(ost);
}

void FluidNetwork::recompute_touching_ost(OstId ost) {
  // Only flows granted on this OST can see a rate change; a flow
  // appears in exactly one node group, so no visit dedup is needed and
  // no other flow is settled (touching an unrelated flow would perturb
  // its floating-point remaining-bytes trajectory). Groups come out in
  // ascending node order — the canonical order.
  const Ost& o = osts_[ost];
  std::uint64_t changed = 0;
  for (std::uint32_t gi : o.order) {
    for (FlowId id : o.groups[gi].ids) {
      changed += refresh(resolve(id)) ? 1 : 0;
    }
  }
  count_refreshes(o.flow_count, changed);
}

}  // namespace eio::sim
