// The kernel's fast paths, pinned as exact: an update-phase notification
// that nothing can hear is not queued, and clock edges that are alone at
// their instant are applied at the time advance. Each test checks what a
// process would observe differently if a fast path were taken where it
// must not be.

#include "sim/sim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ahbp::sim {
namespace {

TEST(FastPath, DeltaNotifyThenSubscribeInSameEvaluationWakes) {
  Kernel k;
  Module top(nullptr, "top");
  Event ev(&top, "ev");
  // `producer` runs first in the initial evaluation phase and notifies
  // an event nobody waits on yet; `late` subscribes later in that phase.
  Method producer(&top, "producer", [&] { ev.notify_delta(); });
  std::vector<std::uint64_t> woke;
  Thread late(&top, "late", [&]() -> Task {
    co_await wait(ev);
    woke.push_back(k.delta_count());
  });
  k.run();
  ASSERT_EQ(woke.size(), 1u);
  EXPECT_EQ(woke[0], 1u);
  EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(FastPath, SignalChangeWakesWaiterThatSubscribedAfterTheWrite) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  Method writer(&top, "writer", [&] { s.write(7); });
  int seen = -1;
  Thread late(&top, "late", [&]() -> Task {
    co_await wait(s.value_changed_event());
    seen = s.read();
  });
  k.run();
  EXPECT_EQ(seen, 7);
}

TEST(FastPath, LastTriggeredAdvancesForUnobservedChange) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<bool> s(&top, "s", false);
  Thread writer(&top, "writer", [&]() -> Task {
    co_await wait(SimTime::ns(5));
    s.write(true);
    co_await wait(SimTime::ns(5));
    s.write(false);
  });
  k.run();
  EXPECT_EQ(s.value_changed_event().last_triggered(), SimTime::ns(10));
  EXPECT_EQ(s.posedge_event().last_triggered(), SimTime::ns(5));
  EXPECT_EQ(s.negedge_event().last_triggered(), SimTime::ns(10));
  EXPECT_FALSE(s.value_changed_event().pending());
  EXPECT_FALSE(s.posedge_event().pending());
  EXPECT_FALSE(s.negedge_event().pending());
}

TEST(FastPath, DeltaNotifyOverridesPendingTimedWithoutListener) {
  Kernel k;
  Module top(nullptr, "top");
  Signal<int> s(&top, "s", 0);
  Event& ev = s.value_changed_event();
  Method writer(&top, "writer", [&] { s.write(1); });
  ev.notify(SimTime::ns(10));  // pending, and nobody listens
  k.run();
  // The change at t=0 notifies a delta, which overrides the pending
  // timed notification: the event fires at 0 and never at 10 ns.
  EXPECT_EQ(ev.last_triggered(), SimTime::zero());
  EXPECT_EQ(k.stats().timed_notifications, 0u);
  EXPECT_FALSE(ev.pending());
}

TEST(FastPath, TimedWaitAtClockEdgeReadsPreEdgeLevel) {
  Kernel k;
  Module top(nullptr, "top");
  // Rises at 10, 20, 30 ns; falls at 15, 25 ns.
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  std::vector<bool> timed_reads;
  Thread sampler(&top, "sampler", [&]() -> Task {
    co_await wait(SimTime::ns(20));  // shares the 20 ns rising edge
    timed_reads.push_back(clk.read());
    co_await wait(SimTime::ns(5));  // shares the 25 ns falling edge
    timed_reads.push_back(clk.read());
  });
  struct Seen {
    SimTime t;
    bool level;
    bool event;
  };
  std::vector<Seen> at_posedge;
  Method edge(&top, "edge", [&] {
    at_posedge.push_back({k.now(), clk.read(), clk.signal().event()});
  });
  edge.sensitive(clk.posedge_event()).dont_initialize();
  k.run(SimTime::ns(30));

  // IEEE 1666: a process woken by a timed notification at an edge's
  // instant runs before the clock's update, so it reads the old level.
  EXPECT_EQ(timed_reads, (std::vector<bool>{false, true}));
  // Edge processes see the new level and Signal::event() whether the
  // edge was applied at the advance (10, 30 ns) or in a delta (20 ns).
  ASSERT_EQ(at_posedge.size(), 3u);
  for (std::size_t i = 0; i < at_posedge.size(); ++i) {
    EXPECT_EQ(at_posedge[i].t, SimTime::ns(10 * (static_cast<std::int64_t>(i) + 1)));
    EXPECT_TRUE(at_posedge[i].level);
    EXPECT_TRUE(at_posedge[i].event);
  }
}

TEST(FastPath, LoneClockEdgesRunTheirProcessesInTheFirstDelta) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  int rises = 0;
  Method edge(&top, "edge", [&] { ++rises; });
  edge.sensitive(clk.posedge_event()).dont_initialize();
  k.run(SimTime::ns(100));
  EXPECT_EQ(rises, 10);
  // One delta at t=0 (the clock's initial run), then one per rising
  // edge; the unheard falling edges take none. With each edge applied in
  // a delta of its own this was 1 + 2 * 10 + 9 = 30.
  EXPECT_EQ(k.delta_count(), 11u);
  // The clock driver still counts once per edge: 1 + 10 + 9, plus the
  // ten `edge` runs.
  EXPECT_EQ(k.stats().processes_executed, 30u);
}

TEST(FastPath, MaxEventsHoldsWhenOnlyClockEdgesRun) {
  Kernel k;
  Module top(nullptr, "top");
  Clock clk(&top, "clk", SimTime::ns(10), 0.5, SimTime::ns(10));
  // max_cycles only backstops the run if max_events were not enforced.
  k.set_budget(RunBudget{.max_cycles = 1000, .max_events = 100});
  try {
    k.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& e) {
    EXPECT_NE(std::string(e.what()).find("max-event budget"), std::string::npos)
        << e.what();
  }
  // The driver's run at each advance counts as an activation and the
  // budget is checked right there: the run stops exactly at the limit.
  EXPECT_EQ(k.stats().processes_executed, 100u);
  EXPECT_EQ(k.stats().time_advances, 99u);
}

}  // namespace
}  // namespace ahbp::sim
