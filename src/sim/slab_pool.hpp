// Slab allocator with an intrusive freelist, for the fixed-type records the
// simulator churns on its hot paths: event records, in-flight network
// messages, queued disk requests.
//
// Records are carved from slabs of `SlabRecords` that never move or shrink,
// so a record pointer stays valid for the pool's lifetime. A released record
// is reused before a new one is carved, so once a pool has grown to its peak
// live population, acquire() and release() never touch the heap. An idle pool
// owns no slab at all.
//
// `T` must be default-constructible and have a `T* next` member: the pool
// threads its freelist through it while a record is free, and the record's
// user may use it (e.g. as a queue link) while the record is live.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace smarth::sim {

template <typename T, std::size_t SlabRecords>
class SlabPool {
  static_assert(SlabRecords > 0, "a slab must hold at least one record");

 public:
  /// A free record: recycled if one is available, else carved from the
  /// current slab (a new slab once it is used up). Its `next` is null; every
  /// other field keeps whatever its previous user left there.
  T* acquire() {
    T* rec = free_head_;
    if (rec != nullptr) {
      free_head_ = rec->next;
    } else {
      if (bump_index_ == SlabRecords) {
        slabs_.push_back(std::make_unique<T[]>(SlabRecords));
        bump_index_ = 0;
      }
      rec = &slabs_.back()[bump_index_++];
    }
    rec->next = nullptr;
    return rec;
  }

  /// Returns `rec` to the freelist. The caller resets any state the record
  /// owns (callbacks) first; the pool only relinks it.
  void release(T* rec) {
    rec->next = free_head_;
    free_head_ = rec;
  }

 private:
  std::vector<std::unique_ptr<T[]>> slabs_;
  T* free_head_ = nullptr;
  std::size_t bump_index_ = SlabRecords;
};

}  // namespace smarth::sim
