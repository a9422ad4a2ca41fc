// A move-only callable with small-buffer storage, used for the callbacks of
// pooled hot-path records (events, in-flight messages, disk requests).
//
// std::function costs a heap allocation for any capture larger than two
// pointers, and the event core schedules tens of millions of callbacks per
// simulated run. SmallFn keeps captures up to `Capacity` bytes inline in the
// pooled record that owns it, falling back to the heap only for oversized or
// throwing-move captures. Event callbacks, network delivery callbacks and disk
// completions are all SmallFn<64>: a packet's transport capture (56 bytes)
// rides in its in-flight message record from send to arrival, and its disk
// completion in the disk's request record (DESIGN.md §10 traces the record
// lifecycle and the measured allocations per event). Move-only by design: a
// callback has exactly one owner (its record) and most useful captures own
// moved-in state anyway.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace smarth::sim {

template <std::size_t Capacity>
class SmallFn {
  static_assert(Capacity >= sizeof(void*), "capacity must hold a pointer");

 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { take_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      take_from(other);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  /// Replaces the target with `f`, constructed directly in this SmallFn's
  /// storage: the pooled-record owners build callbacks in place this way,
  /// with no intermediate SmallFn to relocate.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the target. Precondition: non-null.
  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the target from `src` storage into `dst` storage and
    /// destroys the source — relocation between inline slots.
    void (*relocate)(void* dst, void* src);
    /// Null for a trivially destructible inline target (most captures are
    /// a few pointers), so reset() makes no call for it.
    void (*destroy)(void*);
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<F*>(p))(); },
        [](void* dst, void* src) {
          F* from = static_cast<F*>(src);
          ::new (dst) F(std::move(*from));
          from->~F();
        },
        std::is_trivially_destructible_v<F>
            ? nullptr
            : +[](void* p) { static_cast<F*>(p)->~F(); },
    };
    return &ops;
  }

  template <typename F>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* p) { (**static_cast<F**>(p))(); },
        [](void* dst, void* src) {
          *static_cast<F**>(dst) = *static_cast<F**>(src);
        },
        [](void* p) { delete *static_cast<F**>(p); },
    };
    return &ops;
  }

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = heap_ops<D>();
    }
  }

  void take_from(SmallFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace smarth::sim
