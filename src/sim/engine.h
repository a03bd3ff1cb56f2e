// Discrete-event simulation engine.
//
// An indexed binary-heap calendar of cancellable events, built for
// zero heap allocations per event in steady state:
//
//  - Actions are InlineFunction (fixed-size in-place captures; a
//    too-large capture is a compile error, never a hidden allocation).
//  - Live actions sit in a slot slab with a free list. An EventId
//    packs (generation << 32) | (slot + 1); pending is an O(1) bounds
//    + generation check, so a recycled slot never answers to an old id.
//  - Each heap entry carries its slot, and each slot records its
//    entry's heap position, so cancel() removes the entry eagerly and
//    reschedule() moves it in place (one O(log n) sift each). The heap
//    holds exactly the live events: no dead entries, no compaction.
//
// Events at equal times fire in scheduling order (FIFO tie-break via a
// monotone sequence number carried in the heap entry — recycled
// EventIds are not monotone). reschedule() takes a fresh sequence
// number exactly as cancel + schedule_at would, so pop order — the
// strict (when, seq) order — is the same under either; this keeps runs
// deterministic.
//
// Generation counters are 32-bit and wrap modularly: an id could alias
// a later event in the same slot only after 2^32 reuses of that slot
// while the stale id is still held, which no simulation approaches.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "obs/registry.h"
#include "sim/inline_function.h"

namespace eio::sim {

/// Handle to a scheduled event; used for cancellation. Packs
/// (generation << 32) | (slot index + 1), so 0 stays the sentinel.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class EngineTestPeer;

/// The event calendar and simulation clock.
class Engine {
 public:
  /// Inline capture budget for scheduled actions. Sized for the
  /// largest hot-path caller (lustre sync-write launch closures and
  /// deferred FlowSpec captures); growing a capture past this is a
  /// static_assert in InlineFunction, not a silent heap fallback.
  static constexpr std::size_t kActionCapacity = 256;

  using Action = InlineFunction<void(), kActionCapacity>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time.
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  /// Schedule `action` to run at absolute time `when` (>= now).
  /// Returns a handle that can be passed to cancel().
  EventId schedule_at(Seconds when, Action action) {
    EIO_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                                                  << " now=" << now_);
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.action = std::move(action);
    EventId id = pack(slot, s.generation);
    heap_.push_back(Entry{when, ++next_seq_, slot});
    sift_up(heap_.size() - 1);
    return id;
  }

  /// Schedule `action` to run `delay` seconds from now.
  EventId schedule_in(Seconds delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancel a previously scheduled event, removing its calendar entry.
  /// Returns true if the event was still pending (false if it already
  /// ran or was cancelled).
  bool cancel(EventId id) {
    if (!pending(id)) return false;
    std::uint32_t slot = slot_of(id);
    remove_entry(slots_[slot].pos);
    release_slot(slot);
    return true;
  }

  /// Move a pending event to absolute time `when` (>= now), keeping its
  /// id and action. It takes a fresh sequence number, so it fires
  /// exactly when cancel + schedule_at(when, same action) would have
  /// fired it. Returns false (and changes nothing) if `id` is not
  /// pending.
  bool reschedule(EventId id, Seconds when) {
    if (!pending(id)) return false;
    EIO_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                                                  << " now=" << now_);
    std::size_t pos = slots_[slot_of(id)].pos;
    Entry& e = heap_[pos];
    // The fresh seq is the largest yet, so only an earlier time can
    // make the key smaller.
    bool earlier = when < e.when;
    e.when = when;
    e.seq = ++next_seq_;
    if (earlier) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
    return true;
  }

  /// True if an event is still pending. O(1): bounds + generation
  /// check (only ids returned by schedule_* are meaningful here).
  [[nodiscard]] bool pending(EventId id) const {
    if (id == kInvalidEvent) return false;
    std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].generation == gen_of(id);
  }

  /// Number of live (not-yet-run, not-cancelled) events.
  [[nodiscard]] std::size_t live_events() const noexcept { return heap_.size(); }

  /// Number of calendar entries. Cancel removes its entry eagerly, so
  /// this always equals live_events().
  [[nodiscard]] std::size_t calendar_entries() const noexcept {
    return heap_.size();
  }

  /// Run a single event. Returns false if the calendar is empty.
  bool step() {
    if (heap_.empty()) return false;
    const Entry top = heap_.front();
    remove_entry(0);
    now_ = top.when;
    // Move the action out and free the slot *before* invoking: the
    // action may schedule (possibly reusing this slot or growing the
    // slab) and the slot reference would not survive that.
    Action action = std::move(slots_[top.slot].action);
    release_slot(top.slot);
    ++events_run_;
    action();
    return true;
  }

  /// Run until the calendar drains. Returns the final time.
  Seconds run() {
    OBS_SPAN("sim.run");
    std::uint64_t before = events_run_;
    while (step()) {
    }
    OBS_COUNTER_ADD("sim.events_run", events_run_ - before);
    return now_;
  }

  /// Run until the calendar drains or the clock passes `deadline`.
  Seconds run_until(Seconds deadline) {
    while (!heap_.empty() && heap_.front().when <= deadline) step();
    if (now_ < deadline) now_ = deadline;
    return now_;
  }

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t events_run() const noexcept { return events_run_; }

 private:
  friend class EngineTestPeer;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    Action action;
    std::uint32_t generation = 0;  ///< matches live ids; bumped on release
    std::uint32_t next_free = kNoSlot;
    std::uint32_t pos = 0;         ///< heap_ index of this slot's entry while live
  };

  struct Entry {
    Seconds when;
    std::uint64_t seq;   ///< monotone schedule order (FIFO tie-break)
    std::uint32_t slot;  ///< owning slot; its `pos` points back here
    // Min-heap by (time, schedule order); seq is unique, so the order
    // is strict and independent of the heap's shape.
    [[nodiscard]] bool operator<(const Entry& o) const noexcept {
      if (when != o.when) return when < o.when;
      return seq < o.seq;
    }
  };

  [[nodiscard]] static constexpr EventId pack(std::uint32_t slot,
                                              std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(slot + 1);
  }
  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  [[nodiscard]] static constexpr std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Return a slot to the free list; the generation bump invalidates
  /// every outstanding id pointing at it.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.action.reset();
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Write `e` at heap index `pos` and point its slot back at it.
  void place(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(pos);
  }

  /// Move the entry at `pos` toward the root until its parent is
  /// smaller (hole-based: one write per level).
  void sift_up(std::size_t pos) {
    const Entry e = heap_[pos];
    while (pos > 0) {
      std::size_t parent = (pos - 1) / 2;
      if (!(e < heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  /// Move the entry at `pos` toward the leaves until both children are
  /// larger.
  void sift_down(std::size_t pos) {
    const Entry e = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < e)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, e);
  }

  /// Remove the entry at heap index `pos`: the last entry fills the
  /// hole and sifts whichever way restores the heap.
  void remove_entry(std::size_t pos) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    heap_[pos] = last;
    if (pos > 0 && last < heap_[(pos - 1) / 2]) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::vector<Entry> heap_;  ///< min-heap of exactly the live events
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace eio::sim
