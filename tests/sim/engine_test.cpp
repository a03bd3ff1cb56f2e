// Unit tests for the discrete-event engine.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace eio::sim {

/// White-box access for slot-recycling tests: lets a test fast-forward
/// a free slot's generation counter to exercise wraparound without
/// 2^32 schedule/cancel cycles.
class EngineTestPeer {
 public:
  static std::uint32_t slot_index(EventId id) { return Engine::slot_of(id); }
  static std::uint32_t generation(EventId id) { return Engine::gen_of(id); }
  static void set_slot_generation(Engine& e, std::uint32_t slot,
                                  std::uint32_t gen) {
    e.slots_[slot].generation = gen;
  }
};

namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_run(), 0u);
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(EngineTest, EqualTimesRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, ScheduleInIsRelative) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(5.0, [&] {
    e.schedule_in(2.5, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  EventId id = e.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(e.pending(id));
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.pending(id));
  e.run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, CancelTwiceReturnsFalse) {
  Engine e;
  EventId id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(EngineTest, CancelAfterRunReturnsFalse) {
  Engine e;
  EventId id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(EngineTest, StepRunsExactlyOneEvent) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<double> seen;
  e.schedule_at(1.0, [&] { seen.push_back(1.0); });
  e.schedule_at(5.0, [&] { seen.push_back(5.0); });
  e.run_until(3.0);
  EXPECT_EQ(seen, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  e.run();
  EXPECT_EQ(seen.size(), 2u);
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_in(1.0, recurse);
  };
  e.schedule_in(1.0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(e.now(), 100.0);
}

TEST(EngineTest, SchedulingIntoThePastThrows) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), std::logic_error);
}

TEST(EngineTest, LiveEventCountTracksCancellation) {
  Engine e;
  EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.live_events(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.live_events(), 1u);
  e.run();
  EXPECT_EQ(e.live_events(), 0u);
}

TEST(EngineTest, CancelledEventsDoNotAdvanceClock) {
  Engine e;
  EventId id = e.schedule_at(10.0, [] {});
  e.schedule_at(1.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(EngineTest, EventsRunCountsOnlyExecuted) {
  Engine e;
  EventId id = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.events_run(), 1u);
}

TEST(EngineTest, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  double when = -1.0;
  e.schedule_at(4.0, [&] {
    e.schedule_in(0.0, [&] { when = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(when, 4.0);
}

TEST(EngineTest, CalendarStaysBoundedUnderScheduleCancelChurn) {
  // Cancelled events must not let heap entries accumulate: the
  // timeout-heavy protocols (readahead timers, retry guards) schedule
  // and cancel constantly. Eager removal keeps the calendar at exactly
  // the live set, well inside this historical bound.
  Engine e;
  for (int round = 0; round < 200; ++round) {
    std::vector<EventId> doomed;
    for (int i = 0; i < 50; ++i) {
      EventId id = e.schedule_at(1e6 + round * 50.0 + i, [] {});
      if (i > 0) doomed.push_back(id);  // one survivor per round
    }
    // Cancel 49 of the 50 — ~98% churn.
    for (EventId id : doomed) e.cancel(id);
    EXPECT_LE(e.calendar_entries(), 2 * e.live_events() + 64)
        << "round " << round;
  }
  EXPECT_EQ(e.live_events(), 200u);  // one survivor per round
  e.run();
  EXPECT_EQ(e.calendar_entries(), 0u);
}

TEST(EngineTest, CompactionPreservesOrderAndFifo) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave survivors with a large doomed population, so eager
  // removal reshapes the heap many times, then check ordering
  // semantics survive it.
  for (int i = 0; i < 500; ++i) {
    doomed.push_back(e.schedule_at(2.0, [] {}));
  }
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(11); });  // FIFO tie-break
  for (EventId id : doomed) e.cancel(id);
  EXPECT_LE(e.calendar_entries(), 2 * e.live_events() + 64);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 3}));
}

TEST(EngineTest, ManyEventsStressOrdering) {
  Engine e;
  std::vector<double> times;
  // Deterministic pseudo-random times.
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    double t = static_cast<double>(x % 100000) / 100.0;
    e.schedule_at(t, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 2000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST(EngineTest, CancelAfterFireOnRecycledSlotStaysFalse) {
  // After an event fires, its slot goes back on the free list and the
  // next schedule reuses it. A stale cancel with the old id must not
  // kill the new tenant.
  Engine e;
  EventId a = e.schedule_in(1.0, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.pending(a));
  EXPECT_FALSE(e.cancel(a));

  bool b_ran = false;
  EventId b = e.schedule_in(1.0, [&] { b_ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(b), EngineTestPeer::slot_index(a))
      << "expected the freed slot to be recycled";
  EXPECT_NE(a, b);  // generation differs
  EXPECT_FALSE(e.cancel(a)) << "stale id cancelled the recycled slot";
  EXPECT_TRUE(e.pending(b));
  e.run();
  EXPECT_TRUE(b_ran);
}

TEST(EngineTest, PendingOnRecycledIdDistinguishesGenerations) {
  Engine e;
  EventId a = e.schedule_in(1.0, [] {});
  EXPECT_TRUE(e.cancel(a));
  EventId b = e.schedule_in(2.0, [] {});
  ASSERT_EQ(EngineTestPeer::slot_index(b), EngineTestPeer::slot_index(a));
  EXPECT_FALSE(e.pending(a));
  EXPECT_TRUE(e.pending(b));
  EXPECT_FALSE(e.pending(kInvalidEvent));
}

TEST(EngineTest, SlotGenerationWraparoundIsModular) {
  // Generations are 32-bit and wrap; the contract is modular equality,
  // so an id one generation behind must read dead across the wrap too.
  Engine e;
  EventId a = e.schedule_in(1.0, [] {});
  EXPECT_TRUE(e.cancel(a));
  std::uint32_t slot = EngineTestPeer::slot_index(a);
  EngineTestPeer::set_slot_generation(e, slot, 0xffffffffu);

  bool b_ran = false;
  EventId b = e.schedule_in(1.0, [&] { b_ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(b), slot);
  EXPECT_EQ(EngineTestPeer::generation(b), 0xffffffffu);
  EXPECT_TRUE(e.pending(b));
  EXPECT_TRUE(e.cancel(b));  // release wraps the generation to 0

  bool c_ran = false;
  EventId c = e.schedule_in(1.0, [&] { c_ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(c), slot);
  EXPECT_EQ(EngineTestPeer::generation(c), 0u);
  EXPECT_FALSE(e.pending(b)) << "pre-wrap id alive after the wrap";
  EXPECT_TRUE(e.pending(c));
  e.run();
  EXPECT_FALSE(b_ran);
  EXPECT_TRUE(c_ran);
}

TEST(EngineTest, CalendarHoldsOnlyLiveEntries) {
  // Cancel removes its entry and reschedule moves it, so the calendar
  // never holds a dead entry, whatever the mix of operations.
  Engine e;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  std::vector<EventId> ids;
  for (int op = 0; op < 20000; ++op) {
    std::uint64_t r = next();
    switch (r % 5) {
      case 0:
      case 1:
        ids.push_back(
            e.schedule_at(e.now() + static_cast<double>(next() % 1000), [] {}));
        break;
      case 2:
        if (!ids.empty()) e.cancel(ids[next() % ids.size()]);
        break;
      case 3:
        if (!ids.empty()) {
          e.reschedule(ids[next() % ids.size()],
                       e.now() + static_cast<double>(next() % 1000));
        }
        break;
      default:
        e.step();
        break;
    }
    ASSERT_EQ(e.calendar_entries(), e.live_events()) << "op " << op;
  }
  std::size_t live = 0;
  for (EventId id : ids) live += e.pending(id) ? 1 : 0;
  EXPECT_EQ(e.live_events(), live);
  e.run();
  EXPECT_EQ(e.calendar_entries(), 0u);
}

TEST(EngineTest, RescheduleEarlierRunsSooner) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(2.0, [&] { order.push_back(2); });
  EventId id = e.schedule_at(5.0, [&] { order.push_back(5); });
  EXPECT_TRUE(e.reschedule(id, 1.0));
  EXPECT_TRUE(e.pending(id));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{5, 2}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(EngineTest, RescheduleLaterRunsAfter) {
  Engine e;
  std::vector<double> seen;
  EventId id = e.schedule_at(1.0, [&] { seen.push_back(e.now()); });
  e.schedule_at(2.0, [&] { seen.push_back(e.now()); });
  EXPECT_TRUE(e.reschedule(id, 3.0));
  e.run();
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(e.events_run(), 2u);
}

TEST(EngineTest, RescheduleToEqualTimeTakesAFreshFifoPlace) {
  // Moving an event to a time other events already hold queues it
  // behind them, exactly as cancel + schedule_at would — even when the
  // time does not change at all.
  Engine e;
  std::vector<int> order;
  EventId a = e.schedule_at(1.0, [&] { order.push_back(0); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  EventId c = e.schedule_at(4.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_TRUE(e.reschedule(a, 1.0));  // same time: to the back
  EXPECT_TRUE(e.reschedule(c, 1.0));  // earlier: behind a
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
}

TEST(EngineTest, RescheduleOfStaleOrFiredIdReturnsFalse) {
  Engine e;
  EventId fired = e.schedule_at(1.0, [] {});
  EventId cancelled = e.schedule_at(2.0, [] {});
  EXPECT_TRUE(e.cancel(cancelled));
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.reschedule(fired, 3.0));
  EXPECT_FALSE(e.reschedule(cancelled, 3.0));
  EXPECT_FALSE(e.reschedule(kInvalidEvent, 3.0));
  // A stale id must not move the slot's new tenant.
  bool ran = false;
  EventId tenant = e.schedule_at(5.0, [&] { ran = true; });
  ASSERT_EQ(EngineTestPeer::slot_index(tenant),
            EngineTestPeer::slot_index(fired));
  EXPECT_FALSE(e.reschedule(fired, 9.0));
  EXPECT_EQ(e.live_events(), 1u);
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(EngineTest, RescheduleIntoThePastThrows) {
  Engine e;
  EventId id = e.schedule_at(5.0, [] {});
  e.run_until(2.0);
  EXPECT_THROW(e.reschedule(id, 1.0), std::logic_error);
  EXPECT_TRUE(e.pending(id));
}

TEST(EngineTest, RescheduleMatchesCancelPlusScheduleAt) {
  // Differential: two engines see the same seeded script of schedules,
  // moves, cancels and steps; one moves events with reschedule, the
  // other with cancel + schedule_at of the same action. Both must pop
  // the same (time, action) sequence. Coarse times force many ties, so
  // the FIFO sequence numbers are exercised as well as the times.
  using Log = std::vector<std::pair<double, int>>;
  struct Side {
    Engine e;
    Log log;
    std::vector<EventId> ids;  ///< by action tag
  };
  Side by_move;
  Side by_cancel;
  auto action = [](Side& d, int tag) {
    return [&d, tag] { d.log.emplace_back(d.e.now(), tag); };
  };
  std::uint64_t x = 99;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  int tags = 0;
  for (int op = 0; op < 5000; ++op) {
    std::uint64_t r = next() % 8;
    double when = by_move.e.now() + static_cast<double>(next() % 16);
    if (r < 3 || tags == 0) {
      by_move.ids.push_back(by_move.e.schedule_at(when, action(by_move, tags)));
      by_cancel.ids.push_back(
          by_cancel.e.schedule_at(when, action(by_cancel, tags)));
      ++tags;
    } else if (r < 6) {
      auto tag = static_cast<int>(next() % static_cast<std::uint64_t>(tags));
      auto t = static_cast<std::size_t>(tag);
      bool moved = by_move.e.reschedule(by_move.ids[t], when);
      bool live = by_cancel.e.cancel(by_cancel.ids[t]);
      ASSERT_EQ(moved, live) << "op " << op;
      if (live) {
        by_cancel.ids[t] = by_cancel.e.schedule_at(when, action(by_cancel, tag));
      }
    } else if (r < 7) {
      auto t = static_cast<std::size_t>(next() % static_cast<std::uint64_t>(tags));
      ASSERT_EQ(by_move.e.cancel(by_move.ids[t]), by_cancel.e.cancel(by_cancel.ids[t]));
    } else {
      ASSERT_EQ(by_move.e.step(), by_cancel.e.step());
    }
  }
  by_move.e.run();
  by_cancel.e.run();
  ASSERT_GT(by_move.log.size(), 1000u);
  EXPECT_EQ(by_move.log, by_cancel.log);
}

}  // namespace
}  // namespace eio::sim
