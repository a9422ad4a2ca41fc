#include "sim/periodic_task.hpp"

#include "common/check.hpp"

namespace smarth::sim {

PeriodicTask::PeriodicTask(Simulation& sim, SimDuration period,
                           const char* category, Callback cb)
    : sim_(sim),
      period_(period),
      category_(category),
      callback_(std::move(cb)) {
  SMARTH_CHECK_MSG(period_ > 0, "periodic task period must be positive");
  SMARTH_CHECK(static_cast<bool>(callback_));
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() { start_with_delay(period_); }

void PeriodicTask::start_with_delay(SimDuration initial_delay) {
  SMARTH_CHECK_MSG(!running_, "periodic task already running");
  running_ = true;
  next_ = sim_.schedule_after(initial_delay, category_, [this] { fire(); });
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

void PeriodicTask::fire() {
  if (!running_) return;
  ++fires_;
  // Schedule the successor before invoking the callback so that a callback
  // which stops the task cancels the right event.
  next_ = sim_.schedule_after(period_, category_, [this] { fire(); });
  callback_();
}

}  // namespace smarth::sim
