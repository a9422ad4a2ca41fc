// Event-core coverage: differential testing of the ladder queue against the
// pre-refactor reference design (randomized scripts and scripted cases aimed
// at the rung machinery), tombstone accounting, the category dump the event
// limit produces, and the deterministic event-core counters pinned on a fixed
// churn and a short packet-fidelity upload.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "reference_queue.hpp"
#include "sim/simulation.hpp"

namespace smarth::sim {
namespace {

// --- One scheduling vocabulary for both cores ------------------------------
// Each differential case is written once, as a template over the core, and
// run against both Simulation and ReferenceQueue.

using Fn = std::function<void()>;

EventHandle at(Simulation& sim, SimTime t, Fn f) {
  return sim.schedule_at(t, "test", std::move(f));
}
ReferenceQueue::Handle at(ReferenceQueue& ref, SimTime t, Fn f) {
  return ref.schedule_at(t, std::move(f));
}
EventHandle after(Simulation& sim, SimDuration d, Fn f) {
  return sim.schedule_after(d, "test", std::move(f));
}
ReferenceQueue::Handle after(ReferenceQueue& ref, SimDuration d, Fn f) {
  return ref.schedule_after(d, std::move(f));
}
void now(Simulation& sim, Fn f) { sim.post_now("test", std::move(f)); }
void now(ReferenceQueue& ref, Fn f) { ref.schedule_after(0, std::move(f)); }

template <typename Core>
using HandleOf = decltype(at(std::declval<Core&>(), 0, Fn{}));

/// Runs `scenario` on both cores and demands the same execution order.
/// The scenario schedules onto the core and appends ids to the order; it
/// returns nothing, so both runs see exactly the same script.
template <typename Scenario>
void expect_same_order(Scenario scenario) {
  std::vector<int> ladder_order;
  std::vector<int> reference_order;
  {
    Simulation sim;
    scenario(sim, ladder_order);
    sim.run();
    EXPECT_TRUE(sim.empty());
  }
  {
    ReferenceQueue ref;
    scenario(ref, reference_order);
    ref.run();
  }
  ASSERT_FALSE(reference_order.empty());
  EXPECT_EQ(ladder_order, reference_order);
}

// --- Randomized scripts ----------------------------------------------------
// Scripts mix far-future times (bucket spreading and rung-0 rebuilds),
// same-time ties (insertion-order FIFO), zero delays, nested scheduling from
// callbacks, and cancellation of a random live subset. The timer-plus-burst
// mode is the shape that once pinned every event in the heap: a few far
// timers over a dense near-future burst whose events each re-arm a far
// timeout, cancelling the previous one, as a packet-ack watchdog does.

struct Script {
  struct Op {
    SimDuration delay = 0;
    bool cancel_some = false;
    int nested = 0;      ///< events scheduled from inside the callback
    bool rearm = false;  ///< re-arms the shared far timeout when it runs
  };
  std::vector<Op> ops;
};

enum class ScriptMode { kMixed, kTimerPlusBurst };

Script make_script(std::uint64_t seed, int size,
                   ScriptMode mode = ScriptMode::kMixed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<SimDuration> delay(0, 1'000'000);
  std::uniform_int_distribution<SimDuration> near(0, 2'000);
  std::uniform_int_distribution<int> shape(0, 9);
  Script script;
  for (int i = 0; i < size; ++i) {
    Script::Op op;
    const int kind = shape(rng);
    if (mode == ScriptMode::kTimerPlusBurst) {
      if (i % 50 == 0) {
        op.delay = i % 100 == 0 ? 3'000'000'000 : 30'000'000'000;
      } else {
        op.delay = kind == 0 ? 0 : near(rng);
        op.nested = kind >= 5 ? 2 : 0;
        op.rearm = kind >= 3;
      }
      op.cancel_some = kind == 2;
      script.ops.push_back(op);
      continue;
    }
    if (kind == 0) {
      op.delay = 0;  // schedule_now FIFO path
    } else if (kind == 1) {
      op.delay = 777;  // deliberate tie pile-up
    } else {
      op.delay = delay(rng);
    }
    op.cancel_some = kind == 2;
    op.nested = kind >= 8 ? 2 : 0;
    script.ops.push_back(op);
  }
  return script;
}

/// Runs a script against one core; returns the order event ids executed in.
template <typename Core>
std::vector<int> run_script(const Script& script) {
  Core sim;
  std::vector<int> order;
  std::vector<HandleOf<Core>> handles;
  HandleOf<Core> timeout;
  int next_id = 0;
  for (const Script::Op& op : script.ops) {
    const int id = next_id++;
    handles.push_back(after(sim, op.delay, [&, id, op] {
      order.push_back(id);
      for (int n = 0; n < op.nested; ++n) {
        const int nested_id = 1'000'000 + id * 10 + n;
        after(sim, op.delay / 2 + n,
              [&order, nested_id] { order.push_back(nested_id); });
      }
      if (op.rearm) {
        timeout.cancel();
        timeout = after(sim, 1'000'000'000,
                        [&order, id] { order.push_back(2'000'000 + id); });
      }
    }));
    if (op.cancel_some && handles.size() >= 3) {
      handles[handles.size() - 3].cancel();
    }
  }
  sim.run();
  return order;
}

TEST(EngineDifferential, RandomScriptsMatchReferenceCore) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Script script = make_script(seed, 400);
    ASSERT_EQ(run_script<Simulation>(script),
              run_script<ReferenceQueue>(script))
        << "divergence at seed " << seed;
  }
}

TEST(EngineDifferential, LargePendingSetMatches) {
  // Enough simultaneous events to force several rung-0 rebuilds.
  const Script script = make_script(99, 5000);
  EXPECT_EQ(run_script<Simulation>(script), run_script<ReferenceQueue>(script));
}

TEST(EngineDifferential, TimerPlusBurstScriptsMatchReferenceCore) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Script script =
        make_script(seed, 3000, ScriptMode::kTimerPlusBurst);
    ASSERT_EQ(run_script<Simulation>(script),
              run_script<ReferenceQueue>(script))
        << "divergence at seed " << seed;
  }
}

// --- Scripted rung cases ---------------------------------------------------
// The queue spreads its overflow over 256 buckets and splits a bucket that
// holds more than 32 live events at more than one time. These cases are
// shaped with those numbers in mind, but each only demands the reference
// order, so they stay valid whatever the queue's tuning.

/// Schedules two markers whose span gives rung 0 a bucket width of exactly
/// `width`, starting at `base`. Returns `base`, the start of bucket 0.
template <typename Core>
SimTime set_bucket_width(Core& sim, std::vector<int>& order, SimTime base,
                         SimDuration width) {
  at(sim, base, [&order] { order.push_back(-1); });
  at(sim, base + 256 * width - 1, [&order] { order.push_back(-2); });
  return base;
}

/// Fills the bucket [lo, lo + width) with `count` events at distinct times,
/// so that draining it spawns a finer rung. Event j gets id 100 + j and
/// runs `then(j)` after logging itself.
template <typename Core>
void crowd_bucket(Core& sim, std::vector<int>& order, SimTime lo,
                  SimDuration width, int count,
                  std::function<void(int)> then = {}) {
  for (int j = 0; j < count; ++j) {
    const SimTime t = lo + (width - 1) * j / count;
    at(sim, t, [&order, j, then] {
      order.push_back(100 + j);
      if (then) then(j);
    });
  }
}

TEST(EngineRungs, FarTimersPlusDenseBurst) {
  // A few heartbeat- and lease-like timers over a chain of packet events a
  // few hundred nanoseconds apart, each re-arming a 1 s timeout.
  expect_same_order([](auto& sim, std::vector<int>& order) {
    using Core = std::remove_reference_t<decltype(sim)>;
    for (int k = 1; k <= 4; ++k) {
      at(sim, k * 3'000'000'000LL, [&order, k] { order.push_back(-k); });
    }
    at(sim, 30'000'000'000LL, [&order] { order.push_back(-30); });
    auto timeout = std::make_shared<HandleOf<Core>>();
    // Pending events own the chain; the chain itself holds only a weak
    // reference, so it is freed when its last event has run.
    auto step = std::make_shared<std::function<void(int)>>();
    *step = [&sim, &order, timeout,
             self = std::weak_ptr<std::function<void(int)>>(step)](int i) {
      order.push_back(i);
      timeout->cancel();
      *timeout = after(sim, 1'000'000'000,
                       [&order, i] { order.push_back(1'000'000 + i); });
      if (i + 1 == 4000) return;
      const SimDuration gap = 100 + (i * 7919) % 900;
      after(sim, gap, [next = self.lock(), i] { (*next)(i + 1); });
      if (i % 7 == 0) {
        after(sim, gap, [&order, i] { order.push_back(-100 - i); });
      }
    };
    at(sim, 1'000, [step] { (*step)(0); });
  });
}

TEST(EngineRungs, BucketWidthsThatAreNotMultiplesOf256) {
  // A finer rung over a bucket of width w has width ceil(w / 256), so
  // 256 of its buckets reach past the parent bucket unless the rung is cut
  // at the parent's end. Event "late" sits just past the crowded bucket,
  // scheduled first; the last crowded event then schedules "later" a few
  // nanoseconds after it. Both must run in time order, as must an event
  // scheduled into the crowded bucket's last nanosecond.
  for (const SimDuration width : {100, 1000, 1001, 4099, 65537}) {
    SCOPED_TRACE(width);
    expect_same_order([width](auto& sim, std::vector<int>& order) {
      const SimTime base = set_bucket_width(sim, order, 1'000, width);
      const SimTime crowded = base + 3 * width;
      const SimTime next = crowded + width;
      at(sim, next + 5, [&order] { order.push_back(1); });
      crowd_bucket(sim, order, crowded, width, 40, [&](int j) {
        if (j != 39) return;
        at(sim, next + 10, [&order] { order.push_back(2); });
        at(sim, next - 1, [&order] { order.push_back(3); });
        at(sim, next, [&order] { order.push_back(4); });
      });
    });
  }
}

TEST(EngineRungs, SameTimeBurstAboveSplitThreshold) {
  // 100 events at one time stay FIFO whether the bucket is split (one event
  // at a second time) or heapified whole (a single time value).
  for (const bool second_time : {false, true}) {
    expect_same_order([second_time](auto& sim, std::vector<int>& order) {
      const SimTime base = set_bucket_width(sim, order, 1'000, 1'000);
      const SimTime t = base + 5'500;
      for (int j = 0; j < 100; ++j) {
        at(sim, t, [&order, j] { order.push_back(j); });
      }
      if (second_time) at(sim, t + 1, [&order] { order.push_back(1'000); });
    });
  }
}

TEST(EngineRungs, CancelInsideFineRung) {
  // Cancel events of a split bucket both before the run and from callbacks
  // running inside the finer rung; cancelled events must neither run nor
  // count twice.
  std::uint64_t ladder_cancels = 0;
  std::uint64_t reference_cancels = 0;
  expect_same_order([&](auto& sim, std::vector<int>& order) {
    using Core = std::remove_reference_t<decltype(sim)>;
    std::uint64_t& cancels =
        std::is_same_v<Core, Simulation> ? ladder_cancels : reference_cancels;
    const SimTime base = set_bucket_width(sim, order, 1'000, 1'000);
    const SimTime crowded = base + 7 * 1'000;
    auto handles = std::make_shared<std::vector<HandleOf<Core>>>();
    for (std::size_t j = 0; j < 60; ++j) {
      const SimTime t = crowded + 13 * static_cast<SimTime>(j);
      handles->push_back(at(sim, t, [&order, &cancels, handles, j] {
        order.push_back(static_cast<int>(j));
        if (j + 2 < 60 && j % 3 == 0) cancels += (*handles)[j + 2].cancel();
      }));
    }
    for (std::size_t j = 1; j < 60; j += 10) {
      cancels += (*handles)[j].cancel();
    }
  });
  EXPECT_EQ(ladder_cancels, reference_cancels);
  EXPECT_GT(ladder_cancels, 0u);
}

TEST(EngineRungs, ScheduleIntoExhaustedRungRange) {
  // The last event of a split bucket schedules into the part of its rung
  // that no event occupies any more, before the next bucket's events.
  expect_same_order([](auto& sim, std::vector<int>& order) {
    const SimDuration width = 1'000;
    const SimTime base = set_bucket_width(sim, order, 1'000, width);
    const SimTime crowded = base + 2 * width;
    at(sim, crowded + width + 1, [&order] { order.push_back(1); });
    for (int j = 0; j < 40; ++j) {
      at(sim, crowded + j, [&sim, &order, j, crowded, width] {
        order.push_back(100 + j);
        if (j == 39) {
          at(sim, crowded + width / 2, [&order] { order.push_back(2); });
          at(sim, crowded + 40, [&order] { order.push_back(3); });
        }
      });
    }
  });
}

TEST(EngineRungs, ScheduleIntoSpentRungAfterRunUntil) {
  // The same, from outside any callback: run_until stops after the split
  // bucket's last event, with the next bucket already in the heap, and the
  // new events must still run first, in time order.
  Simulation sim;
  std::vector<int> order;
  const SimDuration width = 1'000;
  const SimTime base = set_bucket_width(sim, order, 1'000, width);
  const SimTime crowded = base + 2 * width;
  sim.schedule_at(crowded + width + 1, "test", [&] { order.push_back(1); });
  for (int j = 0; j < 40; ++j) {
    sim.schedule_at(crowded + j, "test",
                    [&order, j] { order.push_back(100 + j); });
  }
  ASSERT_TRUE(sim.run_until(crowded + 100));
  sim.schedule_at(crowded + width / 2, "test", [&] { order.push_back(2); });
  sim.schedule_at(crowded + 101, "test", [&] { order.push_back(3); });
  sim.run();
  std::vector<int> expected = {-1};
  for (int j = 0; j < 40; ++j) expected.push_back(100 + j);
  expected.insert(expected.end(), {3, 2, 1, -2});
  EXPECT_EQ(order, expected);
}

TEST(EngineRungs, PostNowFromCallbacksDuringSplit) {
  // Events of a split bucket post same-time follow-ups (which must run after
  // every already-queued event at that time) and schedule into the next
  // time value of the same bucket.
  expect_same_order([](auto& sim, std::vector<int>& order) {
    const SimTime base = set_bucket_width(sim, order, 1'000, 1'000);
    const SimTime t = base + 4'200;
    for (int j = 0; j < 40; ++j) {
      at(sim, j < 20 ? t : t + 3, [&sim, &order, j, t] {
        order.push_back(j);
        if (j >= 20) return;
        now(sim, [&order, j] { order.push_back(1'000 + j); });
        at(sim, t + 3, [&order, j] { order.push_back(2'000 + j); });
      });
    }
  });
}

// --- Tombstones -------------------------------------------------------------

TEST(EngineCancellation, CancelledCounterTracksTombstones) {
  Simulation sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_at(100 + i, "test", [] {}));
  }
  EXPECT_EQ(sim.events_cancelled(), 0u);
  for (int i = 0; i < 5; ++i) handles[static_cast<size_t>(i)].cancel();
  EXPECT_EQ(sim.events_cancelled(), 5u);
  // Double-cancel is a no-op, not a double count.
  handles[0].cancel();
  EXPECT_EQ(sim.events_cancelled(), 5u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.events_cancelled(), 5u);
}

TEST(EngineCancellation, CancelledEventsDoNotBlockEmpty) {
  // A cancelled record must not keep the simulation "non-empty" forever:
  // run() terminates without executing it even though its time never comes.
  Simulation sim;
  auto handle = sim.schedule_at(1'000'000'000, "test", [] {});
  sim.schedule_at(10, "test", [] {});
  handle.cancel();
  sim.run();
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(sim.empty());
}

// --- Event-limit diagnostics ------------------------------------------------

TEST(EngineLimit, LimitDumpNamesTopPendingCategories) {
  Simulation sim;
  sim.set_event_limit(50);
  // A self-sustaining storm with a distinctive category name, plus a few
  // bystanders in another category.
  std::function<void()> storm = [&] { sim.post_after(1, "storm.tick", storm); };
  for (int i = 0; i < 8; ++i) storm();
  for (int i = 0; i < 3; ++i) sim.post_at(1'000'000, "bystander.later", [] {});
  try {
    sim.run();
    FAIL() << "expected the event limit to throw";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("event limit exceeded"), std::string::npos)
        << message;
    EXPECT_NE(message.find("storm.tick"), std::string::npos) << message;
    EXPECT_NE(message.find("bystander.later"), std::string::npos) << message;
  }
}

// --- In-place events --------------------------------------------------------

TEST(EngineInPlace, CancelledHeapTopIsNotDue) {
  Simulation sim;
  EventHandle doomed;
  bool answer = false;
  sim.post_at(10, "test", [&] {
    doomed.cancel();  // a tombstone now tops the heap, at this instant
    answer = sim.may_run_in_place();
  });
  doomed = sim.schedule_at(10, "test", [] {});
  sim.post_at(11, "test", [] {});
  sim.run();
  EXPECT_TRUE(answer);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
}

TEST(EngineInPlace, LiveEventBelowCancelledTopIsDue) {
  Simulation sim;
  EventHandle doomed;
  bool answer = true;
  sim.post_at(10, "test", [&] {
    doomed.cancel();
    answer = sim.may_run_in_place();
  });
  doomed = sim.schedule_at(10, "test", [] {});
  sim.post_at(10, "test", [] {});
  sim.run();
  EXPECT_FALSE(answer);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EngineInPlace, RunStepsBudgetAndEventLimitRefuse) {
  Simulation sim;
  std::vector<bool> answers;
  for (SimTime t : {10, 20, 30, 40}) {
    sim.post_at(t, "test", [&] { answers.push_back(sim.may_run_in_place()); });
  }
  // 10 spends its step budget; 20 leaves room for one more step; 30 spends
  // it; 40 reaches the event limit.
  EXPECT_EQ(sim.run_steps(1), 1u);
  EXPECT_EQ(sim.run_steps(2), 2u);
  sim.set_event_limit(4);
  EXPECT_TRUE(sim.run_until(40));
  EXPECT_EQ(answers, (std::vector<bool>{false, true, false, false}));
}

TEST(EngineInPlace, InPlaceEventMatchesQueuedOne) {
  // A callback that would post `f` now either posts it or, when allowed,
  // runs it in place as its last act. Order and counters must agree.
  auto scenario = [](bool in_place) {
    Simulation sim;
    std::vector<int> order;
    auto f = [&] {
      order.push_back(2);
      sim.post_now("test", [&] { order.push_back(4); });
    };
    sim.post_at(10, "test", [&] {
      order.push_back(1);
      const bool here = in_place && sim.may_run_in_place();
      if (!here) sim.post_now("test", f);
      sim.post_now("test", [&] { order.push_back(3); });
      if (here) {
        sim.count_in_place();
        f();
      }
    });
    sim.post_at(11, "test", [&] { order.push_back(5); });
    sim.run();
    return std::make_tuple(order, sim.events_executed(),
                           sim.events_scheduled());
  };
  EXPECT_EQ(scenario(true), scenario(false));
  EXPECT_EQ(std::get<0>(scenario(true)),
            (std::vector<int>{1, 2, 3, 4, 5}));
}

// --- Deterministic counters -------------------------------------------------
// The counters depend only on the event sequence, so they are pinned exactly:
// a structural change to the queue (a bucket that stops splitting, a refill
// that gathers too much, an insert that scans a whole same-time group) moves
// them on every host, where a wall-clock ratio would only get noisier.

std::string describe(const EngineCounters& c) {
  std::ostringstream os;
  os << "pops=" << c.pops << " slots_at_pop=" << c.slots_at_pop
     << " slot_inserts=" << c.slot_inserts
     << " slots_scanned=" << c.slots_scanned << " refills=" << c.refills
     << " rungs_opened=" << c.rungs_opened
     << " records_spread=" << c.records_spread << " in_place=" << c.in_place;
  return os.str();
}

TEST(EngineCounters, PinnedOnFixedChurn) {
  // A fixed churn: self-rescheduling chains, each event posting its
  // successor a pseudo-random 100-10100 ns later.
  Simulation sim(1);
  std::uint64_t n = 0;
  std::function<void()> spawn = [&] {
    const SimDuration delay =
        100 + static_cast<SimDuration>((n++ * 2654435761u) % 10'000);
    sim.post_after(delay, "churn", [&] { spawn(); });
  };
  for (int i = 0; i < 4096; ++i) spawn();
  ASSERT_EQ(sim.run_steps(200'000), 200'000u);
  const EngineCounters& c = sim.engine_counters();
  EXPECT_EQ(c.pops, sim.events_executed());
  EXPECT_EQ(describe(c),
            "pops=200000 slots_at_pop=1811330 slot_inserts=0 "
            "slots_scanned=0 refills=42708 rungs_opened=1614 "
            "records_spread=155856 in_place=0");
}

TEST(EngineCounters, PinnedOnPacketFidelityUpload) {
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.block_size = 8 * kMiB;
  spec.hdfs.fidelity = hdfs::DataFidelity::kPacket;
  cluster::Cluster cluster(spec);
  const hdfs::StreamStats stats = cluster.run_upload(
      "/data/counters.bin", 32 * kMiB, cluster::Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  const sim::Simulation& sim = cluster.sim();
  EXPECT_EQ(sim.events_executed(), 19'236u);
  EXPECT_EQ(describe(sim.engine_counters()),
            "pops=15324 slots_at_pop=129927 slot_inserts=15226 "
            "slots_scanned=40042 refills=13 rungs_opened=1 records_spread=14 "
            "in_place=3912");
}

TEST(EngineCounters, SameTimeBurstMatchesReferenceAndScansLittle) {
  // 100k events at one instant, each posting a successor at now and one at
  // now + 1. A marker far ahead widens rung 0's buckets, so the burst's
  // bucket holds one time only and is sorted whole, and both successors
  // land in its slots. Appending to an instant's FIFO must not walk the
  // instant's records: inserts pass at most one earlier slot on average.
  constexpr int kBurst = 100'000;
  constexpr SimTime kAt = 1'000;
  auto burst = [](auto& core, std::vector<int>& order) {
    for (int j = 0; j < kBurst; ++j) {
      at(core, kAt, [&core, &order, j] {
        order.push_back(j);
        now(core, [&order, j] { order.push_back(kBurst + j); });
        after(core, 1, [&order, j] { order.push_back(2 * kBurst + j); });
      });
    }
    at(core, kAt + 1'000'000'000, [&order] { order.push_back(-1); });
  };
  std::vector<int> ladder_order;
  std::vector<int> reference_order;
  Simulation sim;
  burst(sim, ladder_order);
  sim.run();
  ReferenceQueue ref;
  burst(ref, reference_order);
  ref.run();
  ASSERT_EQ(ladder_order.size(), 3u * kBurst + 1);
  EXPECT_EQ(ladder_order, reference_order);
  const EngineCounters& c = sim.engine_counters();
  EXPECT_EQ(c.slot_inserts, 2u * kBurst);
  EXPECT_LE(c.slots_scanned, c.slot_inserts);
  EXPECT_LE(c.slots_at_pop, 2 * c.pops);
}

TEST(EngineLimit, CategorySummaryCountsPending) {
  Simulation sim;
  for (int i = 0; i < 4; ++i) sim.post_at(100, "a.lot", [] {});
  sim.post_at(100, "a.little", [] {});
  const std::string summary = sim.pending_category_summary();
  // Sorted by count: the bigger category leads.
  EXPECT_LT(summary.find("a.lot"), summary.find("a.little"));
  EXPECT_NE(summary.find("4"), std::string::npos);
}

}  // namespace
}  // namespace smarth::sim
