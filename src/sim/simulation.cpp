#include "sim/simulation.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/slab_pool.hpp"

namespace smarth::sim {

namespace detail {

/// EventRecords on a SlabPool, so record pointers stay valid for the pool's
/// lifetime. The pool is shared between the Simulation and any outstanding
/// EventHandles, so a handle can outlive the simulation safely. Pending-event
/// and cancellation counters live here (not on the Simulation) for the same
/// reason: EventHandle::cancel() must work without a Simulation back-pointer.
class EventPool {
 public:
  static constexpr std::size_t kSlabRecords = 512;

  EventRecord* acquire() {
    EventRecord* rec = records_.acquire();
    rec->state = EventRecord::State::kPending;
    return rec;
  }

  /// Recycles a record (fired, discarded, or swept tombstone). Destroys any
  /// remaining callback state and invalidates outstanding handles via the
  /// generation.
  void release(EventRecord* rec) {
    rec->callback = nullptr;
    rec->state = EventRecord::State::kFree;
    ++rec->gen;
    records_.release(rec);
  }

  std::uint64_t live = 0;       ///< pending (scheduled, not fired/cancelled)
  std::uint64_t cancelled = 0;  ///< total successful cancellations
  std::uint64_t refs = 0;       ///< PoolRef intrusive refcount

 private:
  SlabPool<EventRecord, kSlabRecords> records_;
};

PoolRef::PoolRef(EventPool* pool) : pool_(pool) {
  if (pool_ != nullptr) ++pool_->refs;
}

PoolRef::PoolRef(const PoolRef& other) : pool_(other.pool_) {
  if (pool_ != nullptr) ++pool_->refs;
}

PoolRef& PoolRef::operator=(const PoolRef& other) {
  if (this != &other) {
    PoolRef tmp(other);
    std::swap(pool_, tmp.pool_);
  }
  return *this;
}

PoolRef& PoolRef::operator=(PoolRef&& other) noexcept {
  if (this != &other) {
    this->~PoolRef();
    pool_ = other.pool_;
    other.pool_ = nullptr;
  }
  return *this;
}

PoolRef::~PoolRef() {
  if (pool_ != nullptr && --pool_->refs == 0) delete pool_;
}

}  // namespace detail

using detail::EventPool;
using detail::EventRecord;
using detail::PoolRef;

bool EventHandle::pending() const {
  return rec_ != nullptr && rec_->gen == gen_ &&
         rec_->state == EventRecord::State::kPending;
}

bool EventHandle::cancel() {
  if (!pending()) return false;
  rec_->state = EventRecord::State::kCancelled;
  rec_->callback = nullptr;  // release captured state promptly
  ++pool_->cancelled;
  --pool_->live;
  return true;
}

namespace {

/// One live record of a drained bucket, with its time copied beside it, so
/// the refill sort reads this vector alone and touches the pooled records
/// only to break a tie on seq.
struct Gathered {
  SimTime time;
  EventRecord* rec;
};

/// Refill sort order: true when `a` fires after `b` in (time, seq) order,
/// so std::sort puts the latest record first, the time slots' own order.
struct FiresLater {
  bool operator()(const Gathered& a, const Gathered& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.rec->seq > b.rec->seq;
  }
};

}  // namespace

/// Multi-rung ladder queue, after Tang, Goh & Thng's Ladder Queue (ACM
/// TOMACS 2005). Three tiers, every event in exactly one:
///
///  - `slots`, every event with time < active_end (the bucket being
///    drained), sorted: one slot per distinct time, latest first, so
///    back() is the earliest. A slot is the FIFO of its instant's records,
///    linked through EventRecord::next in seq order;
///  - rungs of kBuckets buckets each, coarsest first. A bucket is an
///    unsorted intrusive list through EventRecord::next, so inserting costs
///    O(1) and no comparison. Each deeper rung covers exactly one bucket of
///    the rung above it (the one being drained) at a finer width;
///  - `overflow`, an unsorted list of the events at or beyond the end of
///    rung 0, spread into a new rung 0 once every rung has drained.
///
/// A new event goes to the slots if it is due before active_end, else into
/// the finest rung whose range contains it, else into overflow. A new event
/// carries the largest pending seq, so it joins the tail of its time's FIFO:
/// an insert scans from back() past the earlier slots and compares no seq.
/// A pop takes the head of back()'s FIFO. When the slots drain, the finest
/// rung's next non-empty bucket is taken: with more than kSplitThreshold
/// live events at more than one time it becomes a new, finer rung over
/// exactly its range; otherwise its events are sorted once into slots.
///
/// Straddle invariant: a rung ends exactly where its parent bucket ends, so
/// a finer rung's last bucket may be narrower than its width. Were it to
/// reach past that end, it could capture events due after an earlier event
/// already waiting in the parent's next bucket, and pop them out of order.
/// With it, every unvisited bucket starts at or after active_end, and the
/// head of back()'s FIFO is the global (time, seq) minimum.
struct Simulation::Impl {
  static constexpr std::size_t kBuckets = 256;
  static constexpr std::size_t kSplitThreshold = 32;

  struct Rung {
    SimTime start = 0;       ///< start of bucket 0
    SimTime end = 0;         ///< exclusive end of the rung's range
    SimDuration width = 1;   ///< bucket width; the last bucket may be cut
    std::size_t cursor = 0;  ///< next bucket to drain; earlier ones are empty
    std::size_t count = 0;   ///< records in the buckets, tombstones included
    std::array<EventRecord*, kBuckets> heads{};
  };

  /// The records due at one instant, oldest (lowest seq) first.
  struct Slot {
    SimTime time;
    EventRecord* first;
    EventRecord* last;
  };

  PoolRef pool{new EventPool};

  std::vector<Slot> slots;  ///< the events < active_end, latest time first
  SimTime active_end = 0;

  std::vector<Rung> rungs;  ///< [0, depth) in use; deeper ones kept empty
  std::size_t depth = 0;

  EventRecord* overflow = nullptr;  ///< events at or beyond rungs[0].end

  /// Scratch for refill: the live records of the bucket being drained.
  std::vector<Gathered> gathered;

  EngineCounters counters;

  void push(EventRecord* rec) {
    const SimTime t = rec->time;
    if (t < active_end) {
      insert_slot(rec);
      return;
    }
    for (std::size_t d = depth; d-- > 0;) {
      if (t < rungs[d].end) {
        link(rungs[d], rec);
        return;
      }
    }
    rec->next = overflow;
    overflow = rec;
  }

  /// Appends `rec`, the newest pending record, to the FIFO of its time,
  /// opening a slot for that time if there is none.
  void insert_slot(EventRecord* rec) {
    const SimTime t = rec->time;
    rec->next = nullptr;
    std::size_t i = slots.size();
    while (i > 0 && slots[i - 1].time < t) --i;
    ++counters.slot_inserts;
    counters.slots_scanned += slots.size() - i;
    if (i > 0 && slots[i - 1].time == t) {
      Slot& slot = slots[i - 1];
      SMARTH_DCHECK(slot.last->next == nullptr && slot.last->seq < rec->seq);
      slot.last->next = rec;
      slot.last = rec;
      return;
    }
    slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(i),
                 Slot{t, rec, rec});
  }

  /// Links `rec` into the bucket of `rung` whose range contains its time.
  void link(Rung& rung, EventRecord* rec) {
    const SimTime t = rec->time;
    const auto idx = static_cast<std::size_t>((t - rung.start) / rung.width);
    SMARTH_DCHECK(t >= rung.start && t < rung.end && idx < kBuckets &&
                  idx >= rung.cursor &&
                  rung.start + static_cast<SimDuration>(idx) * rung.width >=
                      active_end);
    rec->next = rung.heads[idx];
    rung.heads[idx] = rec;
    ++rung.count;
  }

  /// Earliest live (non-cancelled) record, or nullptr when drained.
  /// Tombstones met at the front of the slots or while a bucket or the
  /// overflow list is drained are recycled on the spot.
  EventRecord* peek_live() {
    for (;;) {
      drop_cancelled_top();
      if (!slots.empty()) return slots.back().first;
      if (!refill()) return nullptr;
    }
  }

  /// Recycles the tombstones at the front, so the front (if any) is live.
  void drop_cancelled_top() {
    while (!slots.empty() &&
           slots.back().first->state == EventRecord::State::kCancelled) {
      pool->release(pop());
    }
  }

  /// True when a live event is due at or before `t`, judged from the slots
  /// alone: they are never refilled. Every event due before active_end is
  /// in a slot, so the answer is exact for t < active_end; beyond that it
  /// conservatively reads true.
  bool live_due_by(SimTime t) {
    drop_cancelled_top();
    if (slots.empty()) return t >= active_end;
    return slots.back().time <= t;
  }

  /// Takes the head of the earliest slot's FIFO; drops the slot once empty.
  EventRecord* pop() {
    ++counters.pops;
    counters.slots_at_pop += slots.size();
    Slot& slot = slots.back();
    EventRecord* top = slot.first;
    slot.first = top->next;
    if (slot.first == nullptr) {
      slots.pop_back();
    } else {
      SMARTH_DCHECK(slot.first->time == slot.time &&
                    slot.first->seq > top->seq);
    }
    return top;
  }

  /// Refills the drained slots from the next non-empty bucket, splitting
  /// crowded buckets into finer rungs and rebuilding rung 0 from overflow
  /// when every rung is spent. False when nothing is pending.
  bool refill() {
    SMARTH_DCHECK(slots.empty());
    for (;;) {
      if (depth == 0) {
        if (overflow == nullptr) return false;
        SimTime min_t = 0;
        SimTime max_t = 0;
        gather(std::exchange(overflow, nullptr), min_t, max_t);
        if (gathered.empty()) continue;  // the list held only tombstones
        // The narrowest width whose 256 buckets cover [min_t, max_t].
        const SimDuration width =
            (max_t - min_t) / static_cast<SimDuration>(kBuckets) + 1;
        const std::uint64_t end = static_cast<std::uint64_t>(min_t) +
                                  static_cast<std::uint64_t>(width) * kBuckets;
        open_rung(min_t,
                  static_cast<SimTime>(std::min<std::uint64_t>(
                      end, std::numeric_limits<SimTime>::max())),
                  width);
        continue;
      }
      Rung& rung = rungs[depth - 1];
      if (rung.count == 0) {
        // Spent: the parent's (or overflow's) range resumes at its end.
        active_end = rung.end;
        --depth;
        continue;
      }
      while (rung.heads[rung.cursor] == nullptr) ++rung.cursor;
      const std::size_t idx = rung.cursor++;
      const SimTime lo =
          rung.start + static_cast<SimDuration>(idx) * rung.width;
      const SimTime hi =
          rung.end - lo <= rung.width ? rung.end : lo + rung.width;
      EventRecord* list = std::exchange(rung.heads[idx], nullptr);
      SimTime min_t = 0;
      SimTime max_t = 0;
      rung.count -= gather(list, min_t, max_t);
      if (gathered.size() > kSplitThreshold && min_t != max_t) {
        const SimDuration span = hi - lo;
        open_rung(lo, hi,
                  (span + static_cast<SimDuration>(kBuckets) - 1) /
                      static_cast<SimDuration>(kBuckets));
        continue;
      }
      active_end = hi;
      if (gathered.empty()) continue;  // the bucket held only tombstones
      fill_slots();
      return true;
    }
  }

  /// Moves the live records of `list` into the (empty) gathered vector,
  /// unsorted, and recycles its tombstones. Returns how many records the
  /// list held; `min_t` and `max_t` bound the live ones' times.
  std::size_t gather(EventRecord* list, SimTime& min_t, SimTime& max_t) {
    std::size_t records = 0;
    for (EventRecord* rec = list; rec != nullptr; ++records) {
      EventRecord* next = rec->next;
      if (rec->state == EventRecord::State::kCancelled) {
        pool->release(rec);
      } else {
        if (gathered.empty() || rec->time < min_t) min_t = rec->time;
        if (gathered.empty() || rec->time > max_t) max_t = rec->time;
        gathered.push_back({rec->time, rec});
      }
      rec = next;
    }
    return records;
  }

  /// Sorts the gathered records latest first and builds the slots from
  /// them. Walking latest first meets each time's records in falling seq,
  /// so each is pushed at its FIFO's head.
  void fill_slots() {
    std::sort(gathered.begin(), gathered.end(), FiresLater{});
    for (const Gathered& entry : gathered) {
      EventRecord* rec = entry.rec;
      if (!slots.empty() && slots.back().time == entry.time) {
        rec->next = slots.back().first;
        slots.back().first = rec;
      } else {
        rec->next = nullptr;
        slots.push_back({entry.time, rec, rec});
      }
    }
    gathered.clear();
    ++counters.refills;
    SMARTH_DCHECK(slots_well_formed());
  }

  /// The slots' invariant: times strictly fall toward back() and lie before
  /// active_end; no FIFO is empty; each FIFO holds its time's records in
  /// rising seq and ends at `last`.
  bool slots_well_formed() const {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      if (slot.time >= active_end) return false;
      if (i > 0 && slots[i - 1].time <= slot.time) return false;
      if (slot.first == nullptr || slot.last->next != nullptr) return false;
      for (const EventRecord* rec = slot.first; rec != nullptr;
           rec = rec->next) {
        if (rec->time != slot.time) return false;
        if (rec->next != nullptr && rec->next->seq <= rec->seq) return false;
        if (rec->next == nullptr && rec != slot.last) return false;
      }
    }
    return true;
  }

  /// Opens a rung one level finer over [start, end) and spreads the
  /// gathered records into it.
  void open_rung(SimTime start, SimTime end, SimDuration width) {
    SMARTH_DCHECK(start >= active_end && start < end && width > 0);
    if (depth == rungs.size()) rungs.emplace_back();
    Rung& rung = rungs[depth++];
    SMARTH_DCHECK(rung.count == 0);
    rung.start = start;
    rung.end = end;
    rung.width = width;
    rung.cursor = 0;
    active_end = start;
    for (const Gathered& entry : gathered) link(rung, entry.rec);
    ++counters.rungs_opened;
    counters.records_spread += gathered.size();
    gathered.clear();
  }

  /// Pending category histogram, for the event-limit diagnostic.
  std::map<std::string, std::uint64_t> category_counts() const {
    std::map<std::string, std::uint64_t> counts;
    auto tally_list = [&counts](const EventRecord* rec) {
      for (; rec != nullptr; rec = rec->next) {
        if (rec->state != EventRecord::State::kPending) continue;
        counts[rec->category != nullptr ? rec->category : "event"] += 1;
      }
    };
    for (const Slot& slot : slots) tally_list(slot.first);
    for (std::size_t d = 0; d < depth; ++d) {
      for (const EventRecord* head : rungs[d].heads) tally_list(head);
    }
    tally_list(overflow);
    return counts;
  }
};

Simulation::Simulation(std::uint64_t seed)
    : rng_(seed), impl_(std::make_unique<Impl>()) {}

Simulation::~Simulation() {
  // Destroy pending callbacks in deterministic (time, seq) order rather than
  // slab order, in case captured destructors have observable effects.
  while (EventRecord* rec = impl_->peek_live()) {
    impl_->pop();
    --impl_->pool->live;
    impl_->pool->release(rec);
  }
}

EventRecord* Simulation::acquire(SimTime t) {
  SMARTH_CHECK_MSG(t >= now_, "scheduling into the past: t="
                                  << t << " now=" << now_);
  EventRecord* rec = impl_->pool->acquire();
  rec->time = t;
  return rec;
}

void Simulation::commit(EventRecord* rec, const char* category) {
  rec->seq = seq_++;
  rec->category = category;
  impl_->push(rec);
  ++scheduled_;
  ++impl_->pool->live;
}

void Simulation::discard(EventRecord* rec) { impl_->pool->release(rec); }

EventHandle Simulation::handle_for(EventRecord* rec) {
  return EventHandle{impl_->pool, rec, rec->gen};
}

void Simulation::throw_null_callback() {
  check_failed("callback", __FILE__, __LINE__, "null event callback");
}

bool Simulation::execute_one() {
  EventRecord* rec = impl_->peek_live();
  if (rec == nullptr) return false;
  impl_->pop();
  SMARTH_DCHECK(rec->time >= now_);
  now_ = rec->time;
  ++executed_;
  EventPool* pool = impl_->pool.get();
  --pool->live;
  // The callback runs in place, where it was built. Out of the queue and
  // marked firing, the record reads not-pending to its handles during the
  // call; it is recycled afterwards, also when the callback throws.
  rec->state = EventRecord::State::kFiring;
  struct Recycle {
    EventPool* pool;
    EventRecord* rec;
    ~Recycle() { pool->release(rec); }
  } recycle{pool, rec};
  rec->callback();
  return true;
}

bool Simulation::may_run_in_place() {
  if (executed_ >= steps_end_) return false;
  if (event_limit_ != 0 && executed_ >= event_limit_) return false;
  return !impl_->live_due_by(now_);
}

void Simulation::count_in_place() {
  ++seq_;
  ++scheduled_;
  ++executed_;
  ++impl_->counters.in_place;
}

void Simulation::run() {
  steps_end_ = std::numeric_limits<std::uint64_t>::max();
  while (execute_one()) {
    if (event_limit_ != 0 && executed_ >= event_limit_) throw_event_limit();
  }
}

bool Simulation::run_until(SimTime t) {
  SMARTH_CHECK(t >= now_);
  steps_end_ = std::numeric_limits<std::uint64_t>::max();
  for (;;) {
    EventRecord* top = impl_->peek_live();
    if (top == nullptr || top->time > t) break;
    if (event_limit_ != 0 && executed_ >= event_limit_) return false;
    execute_one();
  }
  now_ = t;
  return true;
}

bool Simulation::run_until_done(const std::function<bool()>& done,
                                SimTime deadline) {
  while (!done() && now_ < deadline) {
    if (!run_until(now_ + kDoneSlice)) throw_event_limit();
  }
  return done();
}

std::size_t Simulation::run_steps(std::size_t n) {
  // Counted in executed events, so an event run in place counts as a step.
  const std::uint64_t start = executed_;
  steps_end_ = start + std::min<std::uint64_t>(
                           n, std::numeric_limits<std::uint64_t>::max() - start);
  while (executed_ < steps_end_ && execute_one()) {
  }
  return static_cast<std::size_t>(executed_ - start);
}

bool Simulation::empty() const { return impl_->pool->live == 0; }

std::uint64_t Simulation::events_cancelled() const {
  return impl_->pool->cancelled;
}

const EngineCounters& Simulation::engine_counters() const {
  return impl_->counters;
}

std::string Simulation::pending_category_summary(std::size_t top_n) const {
  const auto counts = impl_->category_counts();
  std::vector<std::pair<std::uint64_t, std::string>> ranked;
  ranked.reserve(counts.size());
  for (const auto& [name, count] : counts) ranked.emplace_back(count, name);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::ostringstream os;
  for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    if (i > 0) os << ", ";
    os << ranked[i].second << "×" << ranked[i].first;
  }
  if (ranked.size() > top_n) os << ", …";
  return os.str();
}

void Simulation::throw_event_limit() {
  std::ostringstream os;
  os << "event limit exceeded after " << executed_
     << " events — model likely diverges; top pending categories: ";
  const std::string summary = pending_category_summary();
  os << (summary.empty() ? "(none pending)" : summary);
  throw std::logic_error(os.str());
}

}  // namespace smarth::sim
