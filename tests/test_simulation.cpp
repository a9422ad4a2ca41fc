#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/periodic_task.hpp"

namespace smarth::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, "test", [&] { order.push_back(3); });
  sim.schedule_at(10, "test", [&] { order.push_back(1); });
  sim.schedule_at(20, "test", [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, SameTimeIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, "test", [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, "test", [&] {
    sim.schedule_after(50, "test", [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(10, "test", [&] {
    sim.schedule_after(-5, "test", [&] { fired = true; });
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulation, SchedulingIntoThePastThrows) {
  Simulation sim;
  sim.schedule_at(10, "test", [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, "test", [] {}), std::logic_error);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle handle = sim.schedule_at(10, "test", [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // double-cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  EventHandle handle = sim.schedule_at(1, "test", [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  std::vector<SimTime> fired;
  for (SimTime t = 10; t <= 50; t += 10) {
    sim.schedule_at(t, "test", [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_TRUE(sim.run_until(30));
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(fired.size(), 5u);
}

TEST(Simulation, RunStepsBounded) {
  Simulation sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, "test", [&] { ++count; });
  EXPECT_EQ(sim.run_steps(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.run_steps(100), 6u);
}

TEST(Simulation, EventLimitThrows) {
  Simulation sim;
  sim.set_event_limit(100);
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { sim.schedule_after(1, "test", loop); };
  sim.schedule_at(0, "test", loop);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, RunUntilDoneStopsAtFirstSliceBoundaryWhereDone) {
  Simulation sim;
  // A heartbeat keeps the queue alive, as in every cluster.
  PeriodicTask heartbeat(sim, milliseconds(100), "test", [] {});
  heartbeat.start();
  bool done = false;
  sim.schedule_at(milliseconds(600), "test", [&] { done = true; });
  int polls = 0;
  EXPECT_TRUE(sim.run_until_done(
      [&] {
        ++polls;
        return done;
      },
      seconds(10)));
  // Slices end at 250, 500 and 750 ms; done first holds after the third.
  EXPECT_EQ(sim.now(), milliseconds(750));
  EXPECT_EQ(polls, 5);  // one per slice boundary, plus the start and return
}

TEST(Simulation, RunUntilDoneGivesUpAtDeadline) {
  Simulation sim;
  PeriodicTask heartbeat(sim, milliseconds(100), "test", [] {});
  heartbeat.start();
  const SimTime deadline = seconds(1) + milliseconds(100);
  EXPECT_FALSE(sim.run_until_done([] { return false; }, deadline));
  EXPECT_GE(sim.now(), deadline);
  EXPECT_EQ(sim.now(), milliseconds(1250));
}

TEST(Simulation, RunUntilDoneRunsNothingWhenAlreadyDone) {
  Simulation sim;
  sim.schedule_at(0, "test", [] {});
  EXPECT_TRUE(sim.run_until_done([] { return true; }, seconds(10)));
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, RunUntilDoneThrowsAtEventLimit) {
  Simulation sim;
  sim.set_event_limit(10);
  PeriodicTask heartbeat(sim, milliseconds(10), "test", [] {});
  heartbeat.start();
  // The tenth event fires at 100 ms, inside the first slice.
  EXPECT_THROW(sim.run_until_done([] { return false; }, seconds(10)),
               std::logic_error);
  EXPECT_LT(sim.now(), Simulation::kDoneSlice);
}

TEST(Simulation, CountersTrackActivity) {
  Simulation sim;
  sim.schedule_at(1, "test", [] {});
  sim.schedule_at(2, "test", [] {});
  sim.run();
  EXPECT_EQ(sim.events_scheduled(), 2u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulation, RngIsSeedStable) {
  Simulation a(99);
  Simulation b(99);
  EXPECT_EQ(a.rng().next(), b.rng().next());
}

// --- In-place callbacks -----------------------------------------------------
// A callable is built once, in its pooled event record, and invoked there.

/// Counts the moves of a callable, the calls of it, and the destructions of
/// the one instance that owns its state (moved-from shells do not count).
struct Counts {
  int moves = 0;
  int calls = 0;
  int destroyed = 0;
};

template <std::size_t Padding>
struct Tracked {
  explicit Tracked(Counts* c) : counts(c) {}
  Tracked(Tracked&& other) noexcept : counts(other.counts), owner(other.owner) {
    other.owner = false;
    ++counts->moves;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (owner) ++counts->destroyed;
  }
  void operator()() { ++counts->calls; }

  Counts* counts;
  bool owner = true;
  std::array<char, Padding> padding{};
};

using Small = Tracked<8>;
using Oversized = Tracked<128>;
static_assert(sizeof(Small) <= 64, "must fit the inline buffer");
static_assert(sizeof(Oversized) > 64, "must take the heap fallback");

TEST(InPlaceCallbacks, CaptureIsNeverRelocatedBeforeItRuns) {
  // One move builds the callable in its record; none follows, however the
  // queue reorganizes around it.
  Simulation sim;
  std::array<Counts, 6> counts;
  sim.post_at(2'000, "test", Small(&counts[0]));
  sim.post_after(2'500, "test", Small(&counts[1]));
  sim.post_now("test", Small(&counts[2]));
  EventHandle a = sim.schedule_at(3'000, "test", Small(&counts[3]));
  EventHandle b = sim.schedule_after(3'500, "test", Small(&counts[4]));
  EventHandle c = sim.schedule_now("test", Small(&counts[5]));
  for (int i = 0; i < 2'000; ++i) sim.post_at(i * 3, "test", [] {});
  EXPECT_TRUE(a.pending() && b.pending() && c.pending());
  for (const Counts& n : counts) EXPECT_EQ(n.moves, 1);
  sim.run();
  for (const Counts& n : counts) {
    EXPECT_EQ(n.moves, 1);
    EXPECT_EQ(n.calls, 1);
    EXPECT_EQ(n.destroyed, 1);
  }
}

TEST(InPlaceCallbacks, OversizedCaptureIsFreedExactlyOnce) {
  Counts ran;
  Counts cancelled;
  Counts abandoned;
  {
    Simulation sim;
    sim.post_after(10, "test", Oversized(&ran));
    EventHandle handle = sim.schedule_after(20, "test", Oversized(&cancelled));
    sim.run_until(15);
    EXPECT_EQ(ran.calls, 1);
    EXPECT_EQ(ran.destroyed, 1);
    EXPECT_TRUE(handle.cancel());
    EXPECT_EQ(cancelled.destroyed, 1);
    sim.post_after(30, "test", Oversized(&abandoned));
    sim.run_until(20);
    EXPECT_EQ(abandoned.destroyed, 0);
  }  // destroyed with `abandoned` still pending
  EXPECT_EQ(ran.destroyed, 1);
  EXPECT_EQ(cancelled.calls, 0);
  EXPECT_EQ(cancelled.destroyed, 1);
  EXPECT_EQ(abandoned.calls, 0);
  EXPECT_EQ(abandoned.destroyed, 1);
}

TEST(InPlaceCallbacks, NullCallbackIsRefusedBeforeARecordIsTaken) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(5, "first", [&] { order.push_back(1); });
  auto expect_refused = [](const std::function<void()>& schedule) {
    try {
      schedule();
      ADD_FAILURE() << "a null callback was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("null event callback"),
                std::string::npos)
          << e.what();
    }
  };
  expect_refused([&] { sim.post_at(5, "null", Simulation::Callback{}); });
  expect_refused([&] { sim.post_now("null", Simulation::Callback{}); });
  expect_refused(
      [&] { sim.schedule_after(0, "null", std::function<void()>{}); });
  expect_refused([&] { sim.schedule_now("null", std::function<void()>{}); });
  EXPECT_EQ(sim.events_scheduled(), 1u);
  sim.schedule_at(5, "second", [&] { order.push_back(2); });
  EXPECT_EQ(sim.pending_category_summary(), "first×1, second×1");
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sim.empty());
}

TEST(InPlaceCallbacks, ThrowingConstructionLeavesNothingQueued) {
  struct ThrowsOnMove {
    ThrowsOnMove() = default;
    ThrowsOnMove(ThrowsOnMove&&) { throw std::runtime_error("move"); }
    void operator()() {}
  };
  Simulation sim;
  EXPECT_THROW(sim.post_at(5, "test", ThrowsOnMove{}), std::runtime_error);
  EXPECT_EQ(sim.events_scheduled(), 0u);
  EXPECT_TRUE(sim.empty());
  bool fired = false;
  sim.schedule_at(5, "test", [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(InPlaceCallbacks, HandleReadsNotPendingInsideItsOwnCallback) {
  Simulation sim;
  EventHandle handle;
  bool pending_inside = true;
  bool cancelled_inside = true;
  handle = sim.schedule_at(7, "test", [&] {
    pending_inside = handle.pending();
    cancelled_inside = handle.cancel();
  });
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancelled_inside);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulation sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 100, "test", [&] { fires.push_back(sim.now()); });
  task.start();
  // Stop strictly after the 10th fire; a stop scheduled exactly at t=1000
  // would run first (earlier insertion seq) and cancel that fire.
  sim.schedule_at(1050, "test", [&] { task.stop(); });
  sim.run();
  ASSERT_EQ(fires.size(), 10u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i], static_cast<SimTime>((i + 1) * 100));
  }
}

TEST(PeriodicTask, InitialDelayOverride) {
  Simulation sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 100, "test", [&] { fires.push_back(sim.now()); });
  task.start_with_delay(5);
  sim.schedule_at(300, "test", [&] { task.stop(); });
  sim.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{5, 105, 205}));
}

TEST(PeriodicTask, StopFromInsideCallback) {
  Simulation sim;
  int fires = 0;
  PeriodicTask task(sim, 10, "test", [&] {
    if (++fires == 3) task.stop();
  });
  task.start();
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DestructorCancelsCleanly) {
  Simulation sim;
  int fires = 0;
  {
    PeriodicTask task(sim, 10, "test", [&] { ++fires; });
    task.start();
    sim.run_until(35);
  }
  sim.run();  // must not crash or fire further
  EXPECT_EQ(fires, 3);
}

}  // namespace
}  // namespace smarth::sim
