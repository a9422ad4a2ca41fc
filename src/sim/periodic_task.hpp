// Self-rescheduling periodic task, used for heartbeats and background
// monitors. The callback may stop the task from within itself.
#pragma once

#include <functional>

#include "sim/simulation.hpp"

namespace smarth::sim {

class PeriodicTask {
 public:
  using Callback = std::function<void()>;

  /// `category` labels every fire event (see Simulation::schedule_at).
  PeriodicTask(Simulation& sim, SimDuration period, const char* category,
               Callback cb);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Arms the task: first fire after `initial_delay` (default one period).
  void start();
  void start_with_delay(SimDuration initial_delay);
  /// Disarms; safe to call from inside the callback or when not running.
  void stop();

  bool running() const { return running_; }
  SimDuration period() const { return period_; }
  std::uint64_t fire_count() const { return fires_; }

 private:
  void fire();

  Simulation& sim_;
  SimDuration period_;
  const char* category_;
  Callback callback_;
  EventHandle next_;
  bool running_ = false;
  std::uint64_t fires_ = 0;
};

}  // namespace smarth::sim
