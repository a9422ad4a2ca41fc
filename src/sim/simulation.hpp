// The discrete-event simulation kernel. Single-threaded, deterministic:
// events execute in (time, insertion sequence) order, so two runs with the
// same seed and configuration are bit-for-bit identical. All model components
// (links, disks, datanodes, clients, the namenode) are driven exclusively by
// callbacks scheduled here.
//
// Internally the queue is a multi-rung ladder over pooled, freelist-recycled
// event records (DESIGN.md §10). The events of the bucket being drained sit
// sorted in a short vector of time slots, latest first: one slot per
// distinct time, each the FIFO of that instant's records. A new event holds
// the largest pending sequence number, so it joins the tail of its time's
// FIFO without comparing one, and a pop takes the head of the earliest
// slot. (A binary heap did this before; its sift compared sequence numbers
// at every level.) Everything later sits unsorted in the finest rung of 256
// time buckets whose range contains it, or in an overflow list beyond the
// coarsest rung. A bucket that holds more than a few events at more than
// one time is split into a finer rung over exactly its own range, instead
// of being sorted into slots. Each event's callback is constructed in place
// in its pooled record and invoked there. The observable contract is that
// of the original binary-heap core (`sim::ReferenceQueue`): strict
// (time, seq) pop order, schedule_now FIFO among same-time events, and
// cancellation via EventHandle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/small_fn.hpp"

namespace smarth::sim {

namespace detail {
class EventPool;

/// One pooled event. Records live in slabs owned by the EventPool and are
/// recycled through a freelist; `gen` is bumped on every recycle so stale
/// EventHandles read as not-pending instead of aliasing the new occupant.
/// `next` links the record into the freelist while it is free, and into its
/// ladder bucket, the overflow list or its time slot's FIFO while it is
/// pending.
struct EventRecord {
  enum class State : std::uint8_t { kFree, kPending, kCancelled, kFiring };

  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint64_t gen = 0;
  const char* category = nullptr;
  EventRecord* next = nullptr;
  State state = State::kFree;
  /// Event callbacks live inline in the record; captures up to 64 bytes (a
  /// couple of pointers plus a moved-in std::function) never touch the heap.
  SmallFn<64> callback;
};

/// Non-atomic intrusive refcount on the event pool. The simulation is
/// single-threaded (parallel sweeps run one Simulation per thread and never
/// share handles), so a plain counter avoids the two atomic RMWs per handle
/// that shared_ptr would charge the scheduling hot path.
class PoolRef {
 public:
  PoolRef() = default;
  explicit PoolRef(EventPool* pool);
  PoolRef(const PoolRef& other);
  PoolRef& operator=(const PoolRef& other);
  PoolRef(PoolRef&& other) noexcept : pool_(other.pool_) {
    other.pool_ = nullptr;
  }
  PoolRef& operator=(PoolRef&& other) noexcept;
  ~PoolRef();

  EventPool* get() const { return pool_; }
  EventPool* operator->() const { return pool_; }
  explicit operator bool() const { return pool_ != nullptr; }

 private:
  EventPool* pool_ = nullptr;
};
}  // namespace detail

/// Deterministic event-core counters: plain increments, identical for the
/// same seed and configuration on any host, so a structural regression (a
/// bucket that stops splitting, inserts that scan a whole same-time group)
/// shows as a changed count, not a noisy wall-clock ratio.
struct EngineCounters {
  std::uint64_t pops = 0;           ///< records taken from the slots
  std::uint64_t slots_at_pop = 0;   ///< sum of the slot count at each pop
  std::uint64_t slot_inserts = 0;   ///< new records put straight in a slot
  std::uint64_t slots_scanned = 0;  ///< sum of earlier slots each passed
  std::uint64_t refills = 0;        ///< buckets sorted into the slots
  std::uint64_t rungs_opened = 0;
  std::uint64_t records_spread = 0;  ///< records linked into opened rungs
  std::uint64_t in_place = 0;        ///< in-place hand-offs (count_in_place)
};

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Liveness is tracked with a generation counter on the
/// pooled record (not shared_ptr identity): a handle whose record has been
/// recycled simply reads as not-pending. The handle keeps the pool itself
/// alive, so it stays safe to query even after the Simulation is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;
  /// Cancels the event if still pending; returns whether it was cancelled.
  /// Cancellation releases the captured callback state immediately; the
  /// record itself is reclaimed by the queue's next sweep over its bucket.
  bool cancel();

 private:
  friend class Simulation;
  EventHandle(detail::PoolRef pool, detail::EventRecord* rec,
              std::uint64_t gen)
      : pool_(std::move(pool)), rec_(rec), gen_(gen) {}

  detail::PoolRef pool_;
  detail::EventRecord* rec_ = nullptr;
  std::uint64_t gen_ = 0;
};

class Simulation {
 public:
  /// The callback type stored in every event record.
  using Callback = SmallFn<64>;

  explicit Simulation(std::uint64_t seed = 0x5eed);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time. Valid inside and outside event callbacks.
  SimTime now() const { return now_; }

  /// The simulation-owned RNG; all model randomness must come from here.
  Rng& rng() { return rng_; }

  /// Schedules `f` (any void() callable, a Callback or a std::function) at
  /// absolute time `t`, which must be >= now(). The callable is moved (or
  /// copied) from `f` once, into the pooled event record, and invoked there.
  /// `category` (a string literal) labels the event for the runaway-model
  /// diagnostic dump; it is not copied, so it must outlive the simulation.
  template <typename F>
  EventHandle schedule_at(SimTime t, const char* category, F&& f) {
    return handle_for(emplace(t, category, std::forward<F>(f)));
  }
  /// Schedules `f` after `delay` (clamped at >= 0).
  template <typename F>
  EventHandle schedule_after(SimDuration delay, const char* category, F&& f) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), category,
                       std::forward<F>(f));
  }
  /// Schedules `f` to run after all currently queued events at now().
  template <typename F>
  EventHandle schedule_now(const char* category, F&& f) {
    return schedule_at(now_, category, std::forward<F>(f));
  }

  /// Fire-and-forget variants for hot paths: identical ordering semantics,
  /// but no EventHandle is materialized (skips the pool keep-alive refcount).
  template <typename F>
  void post_at(SimTime t, const char* category, F&& f) {
    emplace(t, category, std::forward<F>(f));
  }
  template <typename F>
  void post_after(SimDuration delay, const char* category, F&& f) {
    emplace(now_ + (delay < 0 ? 0 : delay), category, std::forward<F>(f));
  }
  template <typename F>
  void post_now(const char* category, F&& f) {
    emplace(now_, category, std::forward<F>(f));
  }

  /// Runs until the event queue drains. Throws if the event limit is hit
  /// (runaway-model backstop); the exception message includes the top pending
  /// event categories so diverging models can be diagnosed without a rebuild.
  void run();
  /// Runs events with time <= `t`, then sets now() = t.
  /// Returns false if the event limit was reached with events still pending.
  bool run_until(SimTime t);
  /// Executes at most `n` events; returns the number executed.
  std::size_t run_steps(std::size_t n);
  /// Runs run_until slices of kDoneSlice while `done()` is false and
  /// now() < `deadline`, and returns done(); a slice that hits the event
  /// limit throws. Drivers poll this way because heartbeats keep a
  /// cluster's queue alive forever, so it never drains. The slice is fixed,
  /// not a parameter: a run stops at the first slice boundary where done()
  /// holds, and whatever follows (a read-back, a "recovered after" time)
  /// starts from that now(), so the slice is part of every simulated result.
  bool run_until_done(const std::function<bool()>& done, SimTime deadline);
  static constexpr SimDuration kDoneSlice = milliseconds(250);

  /// In-place events. Where a callback would `post_now(category, f)`, it may
  /// ask may_run_in_place() instead; if true, it posts nothing, carries on,
  /// and ends with count_in_place() and `f()`. True when no other live event
  /// is due at now() (judged from the earliest time slot alone; the slots
  /// hold every event due before the drained bucket's end) and the running
  /// loop may execute one more event (event limit, run_steps budget): the
  /// posted event would then run right after this callback, ahead of
  /// anything the callback posts after it, so running it as the callback's
  /// last act keeps the (time, seq) order.
  bool may_run_in_place();
  /// Accounts the in-place event as scheduled and executed and consumes
  /// its sequence number, so every counter reads as if it had been queued.
  void count_in_place();

  bool empty() const;
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return scheduled_; }
  /// Events cancelled before firing (via EventHandle::cancel()).
  std::uint64_t events_cancelled() const;
  const EngineCounters& engine_counters() const;

  /// Backstop against runaway models; 0 disables. Default: 4e9.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// "category×count" summary of the top-N pending event categories, most
  /// numerous first (diagnostics; also embedded in the event-limit error).
  std::string pending_category_summary(std::size_t top_n = 8) const;

 private:
  /// True for a callable that tests false (a null Callback, std::function
  /// or function pointer), which must never reach the queue.
  template <typename F>
  static bool is_null_callable(const F& f) {
    if constexpr (std::is_constructible_v<bool, const F&>) {
      return !static_cast<bool>(f);
    } else {
      return false;
    }
  }

  /// Builds `f` in a fresh record and queues it. A null callable is refused
  /// before a record or a sequence number is taken.
  template <typename F>
  detail::EventRecord* emplace(SimTime t, const char* category, F&& f) {
    if (is_null_callable(f)) throw_null_callback();
    detail::EventRecord* rec = acquire(t);
    try {
      rec->callback = std::forward<F>(f);
    } catch (...) {
      discard(rec);
      throw;
    }
    commit(rec, category);
    return rec;
  }

  /// A free record for an event at `t` (checked >= now()).
  detail::EventRecord* acquire(SimTime t);
  /// Stamps the sequence number and category and queues the record.
  void commit(detail::EventRecord* rec, const char* category);
  /// Returns a record whose callable could not be built.
  void discard(detail::EventRecord* rec);
  EventHandle handle_for(detail::EventRecord* rec);
  bool execute_one();
  [[noreturn]] static void throw_null_callback();
  [[noreturn]] void throw_event_limit();

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t event_limit_ = 4'000'000'000ULL;
  /// executed_ at which run_steps stops (no limit in run and run_until).
  std::uint64_t steps_end_ = ~std::uint64_t{0};
  Rng rng_;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smarth::sim
