#include "sim/simulation.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "sim/slab_pool.hpp"

namespace smarth::sim {

namespace detail {

/// One pooled event. Records live in slabs owned by the EventPool and are
/// recycled through a freelist; `gen` is bumped on every recycle so stale
/// EventHandles read as not-pending instead of aliasing the new occupant.
struct EventRecord {
  enum class State : std::uint8_t { kFree, kPending, kCancelled };

  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint64_t gen = 0;
  const char* category = nullptr;
  EventRecord* next = nullptr;  ///< freelist link while free
  State state = State::kFree;
  Simulation::Callback callback;
};

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

  /// Recycles a record (fired, or swept tombstone). Destroys any remaining
  /// callback state and invalidates outstanding handles via the generation.
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

/// Heap comparator: true when `a` fires after `b`, so std::push_heap keeps
/// the earliest (time, seq) at the front — FIFO among same-time events.
struct FiresLater {
  bool operator()(const EventRecord* a, const EventRecord* b) const {
    if (a->time != b->time) return a->time > b->time;
    return a->seq > b->seq;
  }
};

}  // namespace

/// Two-tier calendar ("ladder") queue. The near future — events with
/// time < active_end — sits in a small binary heap; the farther future is
/// bucketed by time into kBuckets unsorted vectors (O(1) insertion, no
/// comparisons), and everything beyond the ladder span lands in an unsorted
/// overflow list. Buckets are heapified only when the active heap drains, so
/// the heap stays small and pop order is still a strict total (time, seq)
/// order: a bucket is only activated once every earlier event has fired.
struct Simulation::Impl {
  static constexpr std::size_t kBuckets = 256;

  PoolRef pool{new EventPool};

  std::vector<EventRecord*> active;  ///< min-heap, events < active_end
  SimTime active_end = 0;            ///< exclusive upper bound of the heap

  std::vector<std::vector<EventRecord*>> buckets{kBuckets};
  SimTime ladder_base = 0;       ///< start time of bucket 0's range
  SimDuration bucket_width = 0;  ///< 0 => ladder not built
  std::size_t cursor = 0;        ///< next bucket to activate
  std::size_t ladder_count = 0;  ///< records across all buckets

  std::vector<EventRecord*> overflow;  ///< events beyond the ladder span
  std::vector<EventRecord*> rebuild_scratch;  ///< rebuild_ladder's work list

  void push(EventRecord* rec) {
    if (rec->time < active_end) {
      active.push_back(rec);
      std::push_heap(active.begin(), active.end(), FiresLater{});
      return;
    }
    if (bucket_width > 0) {
      const auto idx = static_cast<std::size_t>(
          (rec->time - ladder_base) / bucket_width);
      if (idx < kBuckets) {
        buckets[idx].push_back(rec);
        ++ladder_count;
        return;
      }
    }
    overflow.push_back(rec);
  }

  /// Earliest live (non-cancelled) record, or nullptr when drained.
  /// Tombstones encountered at the heap top, during bucket activation, or
  /// during an overflow rebuild are recycled on the spot.
  EventRecord* peek_live() {
    for (;;) {
      while (!active.empty()) {
        EventRecord* top = active.front();
        if (top->state != EventRecord::State::kCancelled) return top;
        std::pop_heap(active.begin(), active.end(), FiresLater{});
        active.pop_back();
        pool->release(top);
      }
      if (ladder_count > 0) {
        activate_next_bucket();
        continue;
      }
      if (!overflow.empty()) {
        rebuild_ladder();
        continue;
      }
      return nullptr;
    }
  }

  EventRecord* pop() {
    EventRecord* top = active.front();
    std::pop_heap(active.begin(), active.end(), FiresLater{});
    active.pop_back();
    return top;
  }

  void activate_next_bucket() {
    while (cursor < kBuckets && buckets[cursor].empty()) ++cursor;
    SMARTH_DCHECK(cursor < kBuckets);
    std::vector<EventRecord*>& bucket = buckets[cursor];
    ladder_count -= bucket.size();
    for (EventRecord* rec : bucket) {
      if (rec->state == EventRecord::State::kCancelled) {
        pool->release(rec);  // bucket-sweep tombstone drop
      } else {
        active.push_back(rec);
      }
    }
    bucket.clear();
    ++cursor;
    active_end = ladder_base + static_cast<SimDuration>(cursor) * bucket_width;
    std::make_heap(active.begin(), active.end(), FiresLater{});
  }

  /// Rebuilds the ladder over the overflow list's time span. Only reached
  /// when both the heap and all buckets have drained, so redistribution
  /// cannot reorder anything that could fire earlier.
  void rebuild_ladder() {
    SimTime min_t = 0;
    SimTime max_t = 0;
    std::size_t live_count = 0;
    for (EventRecord* rec : overflow) {
      if (rec->state == EventRecord::State::kCancelled) continue;
      if (live_count == 0 || rec->time < min_t) min_t = rec->time;
      if (live_count == 0 || rec->time > max_t) max_t = rec->time;
      ++live_count;
    }
    // Swap rather than move, so both vectors keep their capacity and later
    // overflow pushes do not allocate.
    std::vector<EventRecord*>& pending = rebuild_scratch;
    pending.swap(overflow);
    if (live_count == 0) {
      for (EventRecord* rec : pending) pool->release(rec);
      pending.clear();
      return;
    }
    if (live_count <= 32 || min_t == max_t) {
      // Too few events to spread: heapify directly.
      bucket_width = 0;
      cursor = kBuckets;
      active_end = max_t + 1;
      for (EventRecord* rec : pending) {
        if (rec->state == EventRecord::State::kCancelled) {
          pool->release(rec);
        } else {
          active.push_back(rec);
        }
      }
      std::make_heap(active.begin(), active.end(), FiresLater{});
      pending.clear();
      return;
    }
    ladder_base = min_t;
    bucket_width = (max_t - min_t) / static_cast<SimDuration>(kBuckets) + 1;
    cursor = 0;
    active_end = ladder_base;
    for (EventRecord* rec : pending) {
      if (rec->state == EventRecord::State::kCancelled) {
        pool->release(rec);
        continue;
      }
      const auto idx = static_cast<std::size_t>(
          (rec->time - ladder_base) / bucket_width);
      SMARTH_DCHECK(idx < kBuckets);
      buckets[idx].push_back(rec);
      ++ladder_count;
    }
    pending.clear();
  }

  /// Pending category histogram, for the event-limit diagnostic.
  std::map<std::string, std::uint64_t> category_counts() const {
    std::map<std::string, std::uint64_t> counts;
    auto tally = [&counts](const EventRecord* rec) {
      if (rec->state != EventRecord::State::kPending) return;
      counts[rec->category != nullptr ? rec->category : "event"] += 1;
    };
    for (const EventRecord* rec : active) tally(rec);
    for (const auto& bucket : buckets) {
      for (const EventRecord* rec : bucket) tally(rec);
    }
    for (const EventRecord* rec : overflow) tally(rec);
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

EventRecord* Simulation::enqueue(SimTime t, const char* category,
                                 Callback cb) {
  SMARTH_CHECK_MSG(t >= now_, "scheduling into the past: t="
                                  << t << " now=" << now_);
  SMARTH_CHECK_MSG(static_cast<bool>(cb), "null event callback");
  EventRecord* rec = impl_->pool->acquire();
  rec->time = t;
  rec->seq = seq_++;
  rec->category = category;
  rec->callback = std::move(cb);
  impl_->push(rec);
  ++scheduled_;
  ++impl_->pool->live;
  return rec;
}

EventHandle Simulation::schedule_at(SimTime t, Callback cb) {
  return schedule_at(t, nullptr, std::move(cb));
}

EventHandle Simulation::schedule_at(SimTime t, const char* category,
                                    Callback cb) {
  EventRecord* rec = enqueue(t, category, std::move(cb));
  return EventHandle{impl_->pool, rec, rec->gen};
}

EventHandle Simulation::schedule_after(SimDuration delay, Callback cb) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, nullptr, std::move(cb));
}

EventHandle Simulation::schedule_after(SimDuration delay, const char* category,
                                       Callback cb) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, category, std::move(cb));
}

void Simulation::post_at(SimTime t, const char* category, Callback cb) {
  enqueue(t, category, std::move(cb));
}

void Simulation::post_after(SimDuration delay, const char* category,
                            Callback cb) {
  if (delay < 0) delay = 0;
  enqueue(now_ + delay, category, std::move(cb));
}

bool Simulation::execute_one() {
  EventRecord* rec = impl_->peek_live();
  if (rec == nullptr) return false;
  impl_->pop();
  SMARTH_DCHECK(rec->time >= now_);
  now_ = rec->time;
  ++executed_;
  --impl_->pool->live;
  // Move the callback out and recycle the record *before* invoking, so the
  // slot is immediately reusable by whatever the callback schedules (hot
  // cache) and a handle to this event reads not-pending during the callback.
  Callback cb = std::move(rec->callback);
  impl_->pool->release(rec);
  cb();
  return true;
}

void Simulation::run() {
  while (execute_one()) {
    if (event_limit_ != 0 && executed_ >= event_limit_) throw_event_limit();
  }
}

bool Simulation::run_until(SimTime t) {
  SMARTH_CHECK(t >= now_);
  for (;;) {
    EventRecord* top = impl_->peek_live();
    if (top == nullptr || top->time > t) break;
    if (event_limit_ != 0 && executed_ >= event_limit_) return false;
    execute_one();
  }
  now_ = t;
  return true;
}

std::size_t Simulation::run_steps(std::size_t n) {
  std::size_t done = 0;
  while (done < n && execute_one()) ++done;
  return done;
}

bool Simulation::empty() const { return impl_->pool->live == 0; }

std::uint64_t Simulation::events_cancelled() const {
  return impl_->pool->cancelled;
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
