// A deliberately naive event queue mirroring the pre-refactor simulation
// core: one shared_ptr-owned record per event, std::function callbacks and a
// std::priority_queue ordered by (time, seq). It exists as an executable
// specification — the randomized differential test in test_engine_core pits
// the calendar queue against it — and must stay semantically identical to
// Simulation's documented (time, insertion-seq) contract. Not used by any
// model code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace smarth::sim {

class ReferenceQueue {
 public:
  using Callback = std::function<void()>;

  struct Record {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Callback callback;
    bool cancelled = false;
    bool fired = false;
  };

  class Handle {
   public:
    Handle() = default;
    bool pending() const {
      return rec_ && !rec_->cancelled && !rec_->fired;
    }
    bool cancel() {
      if (!pending()) return false;
      rec_->cancelled = true;
      rec_->callback = nullptr;
      return true;
    }

   private:
    friend class ReferenceQueue;
    explicit Handle(std::shared_ptr<Record> rec) : rec_(std::move(rec)) {}
    std::shared_ptr<Record> rec_;
  };

  SimTime now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }

  Handle schedule_at(SimTime t, Callback cb) {
    auto rec = std::make_shared<Record>();
    rec->time = t;
    rec->seq = seq_++;
    rec->callback = std::move(cb);
    queue_.push(rec);
    return Handle{std::move(rec)};
  }

  Handle schedule_after(SimDuration delay, Callback cb) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Executes the earliest live event; returns false when drained.
  bool execute_one() {
    while (!queue_.empty()) {
      std::shared_ptr<Record> rec = queue_.top();
      queue_.pop();
      if (rec->cancelled) continue;
      now_ = rec->time;
      rec->fired = true;
      Callback cb = std::move(rec->callback);
      rec->callback = nullptr;
      ++executed_;
      cb();
      return true;
    }
    return false;
  }

  void run() {
    while (execute_one()) {
    }
  }

 private:
  struct Compare {
    bool operator()(const std::shared_ptr<Record>& a,
                    const std::shared_ptr<Record>& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<std::shared_ptr<Record>,
                      std::vector<std::shared_ptr<Record>>, Compare>
      queue_;
};

}  // namespace smarth::sim
