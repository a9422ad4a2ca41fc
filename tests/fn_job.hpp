// Lambda-backed ServiceQueue jobs, for tests that drive a queue directly
// rather than through the RpcBus (whose pooled call records are the queue's
// jobs in the simulator).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "rpc/service_queue.hpp"

namespace smarth::rpc {

/// A heap job that runs `serve` or `shed` (which may be null) and then frees
/// itself; a discarded one is freed without running either.
class FnJob final : public ServiceQueue::Job {
 public:
  FnJob(std::function<void()> serve, std::function<void()> shed)
      : serve_(std::move(serve)), shed_(std::move(shed)) {}

  void serve() override { run_once(serve_); }
  void shed() override { run_once(shed_); }
  void discard() override { delete this; }

 private:
  void run_once(std::function<void()>& fn) {
    std::function<void()> run = std::move(fn);
    delete this;
    if (run) run();
  }

  std::function<void()> serve_;
  std::function<void()> shed_;
};

/// Submits `serve` / `shed` to `queue` as one FnJob.
inline void submit(ServiceQueue& queue, ServiceClass cls, std::int64_t tenant,
                   std::function<void()> serve, std::function<void()> shed) {
  queue.submit(cls, tenant, new FnJob(std::move(serve), std::move(shed)));
}

}  // namespace smarth::rpc
