// Reference-counted pooled records, for multi-stage work whose record is held
// by several pending callbacks at once (an RPC call: its request message, its
// service-queue slot, its response message, its retry timeout).
//
// A record type `T` derives from Pooled<T> and provides `void clear()`, which
// destroys whatever the record owns (callbacks, a reply) so the record can be
// reused. RefPool<T>::make() takes a record from the pool's freelist and
// returns a Ref<T>, a non-atomic intrusive handle: copying one bumps the
// record's count, and the last one to go clears the record and puts it back
// on the freelist. Once the pool has grown to its peak live population,
// make() and the last release never touch the heap.
//
// Unlike sim::SlabPool, a RefPool allocates each record on its own: its
// populations are small, and slabs of them, placed wherever the heap was when
// a record type was first used mid-run, fragmented it enough to raise
// perfbench bulk_write's peak RSS by 0.7 MiB (5%).
//
// Records are often held by callbacks in queues that other objects own (the
// event core, the network, a service queue), and those may be destroyed after
// the pool's owner. So an owner never deletes its pool: it calls disown(), and
// the pool frees itself then, or with the last live record if any remain.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace smarth::sim {

template <typename T>
class RefPool;

/// The pool bookkeeping every pooled record carries: its freelist link, the
/// number of Refs holding it, and the pool it returns to.
template <typename T>
struct Pooled {
  T* next = nullptr;
  std::uint32_t refs = 0;
  RefPool<T>* pool = nullptr;
};

/// A counted handle to a pooled record. Nothrow to move, so a callback that
/// captures one stays inline in a SmallFn.
template <typename T>
class Ref {
 public:
  Ref() = default;
  /// A new handle to `rec` (counted).
  explicit Ref(T* rec) : rec_(rec) { ++rec_->refs; }
  /// Takes over a count that release() gave up earlier.
  static Ref adopt(T* rec) {
    Ref ref;
    ref.rec_ = rec;
    return ref;
  }

  Ref(const Ref& other) : rec_(other.rec_) {
    if (rec_ != nullptr) ++rec_->refs;
  }
  Ref(Ref&& other) noexcept : rec_(std::exchange(other.rec_, nullptr)) {}
  Ref& operator=(Ref other) noexcept {
    std::swap(rec_, other.rec_);
    return *this;
  }
  ~Ref() {
    if (rec_ != nullptr && --rec_->refs == 0) rec_->pool->release(rec_);
  }

  /// Gives up this handle's count without dropping it, for a holder that
  /// keeps a raw pointer and later hands it back through adopt().
  T* release() { return std::exchange(rec_, nullptr); }

  T* operator->() const { return rec_; }

 private:
  T* rec_ = nullptr;
};

/// The type-independent half of a RefPool, so an owner can keep pools of
/// several record types in one list and disown them all.
class RefPoolBase {
 public:
  RefPoolBase() = default;
  RefPoolBase(const RefPoolBase&) = delete;
  RefPoolBase& operator=(const RefPoolBase&) = delete;

  /// The owner is done with the pool: it frees itself now if no record is
  /// live, else with the last live record.
  void disown() {
    owned_ = false;
    if (live_ == 0) delete this;
  }

 protected:
  virtual ~RefPoolBase() = default;

  std::size_t live_ = 0;
  bool owned_ = true;
};

template <typename T>
class RefPool final : public RefPoolBase {
 public:
  /// A fresh record (default state apart from what its last clear() left),
  /// held by the returned handle alone.
  Ref<T> make() {
    T* rec = free_;
    if (rec != nullptr) {
      free_ = rec->next;
      rec->next = nullptr;
    } else {
      rec = new T();
    }
    rec->pool = this;
    ++live_;
    return Ref<T>(rec);
  }

 private:
  friend class Ref<T>;

  /// Runs once no record is live, so every record is on the freelist.
  ~RefPool() override {
    while (free_ != nullptr) delete std::exchange(free_, free_->next);
  }

  void release(T* rec) {
    // clear() may drop the last handles to other records, of this pool too;
    // this record stays counted live until it is back on the freelist.
    rec->clear();
    rec->next = free_;
    free_ = rec;
    if (--live_ == 0 && !owned_) delete this;
  }

  T* free_ = nullptr;  ///< released records, linked through `next`
};

/// One RefPool per record type, each created on first use and disowned when
/// the set is destroyed.
class RefPools {
 public:
  RefPools() = default;
  RefPools(const RefPools&) = delete;
  RefPools& operator=(const RefPools&) = delete;
  ~RefPools() {
    for (RefPoolBase* pool : pools_) {
      if (pool != nullptr) pool->disown();
    }
  }

  template <typename T>
  RefPool<T>& get() {
    const std::size_t slot = slot_of<T>();
    if (slot >= pools_.size()) pools_.resize(slot + 1, nullptr);
    if (pools_[slot] == nullptr) pools_[slot] = new RefPool<T>();
    return static_cast<RefPool<T>&>(*pools_[slot]);
  }

 private:
  /// A process-wide index per record type (sweep worker threads share it).
  static std::size_t next_slot() {
    static std::atomic<std::size_t> next{0};
    return next++;
  }
  template <typename T>
  static std::size_t slot_of() {
    static const std::size_t slot = next_slot();
    return slot;
  }

  std::vector<RefPoolBase*> pools_;
};

}  // namespace smarth::sim
