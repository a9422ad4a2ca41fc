// Client-side RPC retry: per-attempt timeout, exponential backoff with
// multiplicative jitter, bounded attempts. The simulated RpcBus silently
// drops messages to/from down hosts (like real lost TCP SYNs), so every
// consumer that must make progress through faults wraps its calls here
// instead of waiting forever on a response that will never come.
//
// Duplicate-response hygiene: an attempt that merely timed out may still
// deliver its response later (slow, not lost). The shared `settled` flag
// ensures exactly one of {on_response, on_give_up} runs, exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::rpc {

struct RetryPolicy {
  /// Per-attempt response deadline.
  SimDuration timeout = seconds(2);
  /// Total attempts (first try included). Must be >= 1.
  int max_attempts = 4;
  /// Backoff before attempt k (k >= 2) is base * 2^(k-2), capped at max,
  /// then scaled by a jitter factor in [1-jitter, 1+jitter].
  SimDuration backoff_base = milliseconds(200);
  SimDuration backoff_max = seconds(5);
  double jitter = 0.2;
};

namespace detail {

/// Backoff before the attempt after `attempt`, with multiplicative jitter.
inline SimDuration retry_backoff(const RetryPolicy& policy, int attempt,
                                 sim::Simulation& sim) {
  SimDuration backoff = policy.backoff_base;
  for (int i = 2; i < attempt + 1 && backoff < policy.backoff_max; ++i) {
    backoff *= 2;
  }
  if (backoff > policy.backoff_max) backoff = policy.backoff_max;
  if (policy.jitter > 0.0) {
    const double scale = 1.0 + policy.jitter * (2.0 * sim.rng().uniform() - 1.0);
    backoff = static_cast<SimDuration>(static_cast<double>(backoff) * scale);
  }
  return backoff;
}

}  // namespace detail

/// Issues `bus.call<Resp>(client, server, handler, ...)` with retries.
/// `on_response` receives the first response to arrive; `on_give_up` runs if
/// all attempts time out. `label` names the call in the metrics registry and
/// trace ("rpc.<label>.retries"); every retry and give-up also lands in the
/// global rpc.retries / rpc.give_ups counters, the one place retries are
/// counted.
///
/// `options` / `shed_response` thread through to the bus (service-queue
/// classification and typed shed rejections). `retry_on` (optional) makes a
/// *response* retryable: when it returns true for an arriving response and
/// attempts remain, the call backs off and relaunches instead of settling —
/// this is how clients honor the namenode's typed `overloaded` rejections
/// with the existing backoff machinery. The final attempt's response is
/// always delivered, so callers see the error and can fall back to their own
/// budgeted wait.
template <typename Resp>
void call_with_retry(RpcBus& bus, sim::Simulation& sim,
                     const RetryPolicy& policy, NodeId client, NodeId server,
                     std::function<Resp()> handler,
                     std::function<void(Resp)> on_response,
                     std::function<void()> on_give_up,
                     const char* label = "call", CallOptions options = {},
                     std::function<Resp()> shed_response = nullptr,
                     std::function<bool(const Resp&)> retry_on = nullptr) {
  struct State {
    bool settled = false;
    int attempt = 0;  // attempts issued so far
    /// A retryable response arrived and its backoff relaunch is pending;
    /// suppresses the same attempt's timeout so it cannot double-launch.
    bool response_retry_pending = false;
  };
  auto state = std::make_shared<State>();
  // Recursive attempt launcher, stored in a shared_ptr so the timeout
  // callback can re-enter it. The stored lambda holds only a *weak* ref to
  // itself — the pending timeout/backoff events carry the strong refs — so
  // the launcher dies with its last scheduled event instead of keeping
  // itself alive through a shared_ptr cycle.
  auto launch = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_launch = launch;
  *launch = [&bus, &sim, policy, client, server, handler = std::move(handler),
             on_response = std::move(on_response),
             on_give_up = std::move(on_give_up), state, weak_launch,
             label, options, shed_response = std::move(shed_response),
             retry_on = std::move(retry_on)]() {
    auto self = weak_launch.lock();  // alive: our caller holds a strong ref
    state->response_retry_pending = false;
    const int attempt = ++state->attempt;
    if (attempt > 1) {
      metrics::global_registry().counter("rpc.retries").add();
      metrics::global_registry()
          .counter(std::string("rpc.") + label + ".retries")
          .add();
      if (trace::active()) {
        trace::recorder()->instant(
            trace::Category::kRpc, "rpc", std::string("retry ") + label,
            {{"attempt", std::to_string(attempt)},
             {"client", client.to_string()},
             {"server", server.to_string()}});
      }
    }
    bus.call<Resp>(
        client, server, handler,
        [&sim, policy, attempt, state, self, on_response, retry_on,
         label](Resp resp) {
          if (state->settled) return;  // a slow earlier attempt already won
          if (retry_on && retry_on(resp) && attempt < policy.max_attempts &&
              state->attempt == attempt && !state->response_retry_pending) {
            // Retryable rejection (e.g. overloaded): back off and relaunch.
            state->response_retry_pending = true;
            metrics::global_registry().counter("rpc.overload_retries").add();
            metrics::global_registry()
                .counter(std::string("rpc.") + label + ".overload_retries")
                .add();
            const SimDuration backoff =
                detail::retry_backoff(policy, attempt, sim);
            sim.schedule_after(backoff, [state, self]() {
              if (state->settled) return;
              (*self)();
            });
            return;
          }
          if (retry_on) {
            // A stale rejection from a superseded attempt, or a duplicate
            // while this attempt's backoff relaunch is pending: the in-flight
            // attempt owns the outcome.
            if (state->attempt != attempt && retry_on(resp)) return;
            if (state->response_retry_pending && state->attempt == attempt) {
              return;
            }
          }
          state->settled = true;
          on_response(std::move(resp));
        },
        options, shed_response);
    sim.schedule_after(policy.timeout, [&sim, policy, attempt, state, self,
                                        on_give_up, client, server,
                                        label]() {
      if (state->settled || state->attempt != attempt ||
          state->response_retry_pending) {
        return;
      }
      if (attempt >= policy.max_attempts) {
        state->settled = true;
        metrics::global_registry().counter("rpc.give_ups").add();
        if (trace::active()) {
          trace::recorder()->instant(
              trace::Category::kRpc, "rpc", std::string("give-up ") + label,
              {{"attempts", std::to_string(attempt)},
               {"client", client.to_string()},
               {"server", server.to_string()}});
        }
        on_give_up();
        return;
      }
      const SimDuration backoff = detail::retry_backoff(policy, attempt, sim);
      if (trace::active()) {
        trace::recorder()->instant(
            trace::Category::kRpc, "rpc", std::string("backoff ") + label,
            {{"next_attempt", std::to_string(attempt + 1)},
             {"backoff", format_duration(backoff)},
             {"client", client.to_string()},
             {"server", server.to_string()}});
      }
      sim.schedule_after(backoff, [self]() { (*self)(); });
    });
  };
  (*launch)();
}

}  // namespace smarth::rpc
