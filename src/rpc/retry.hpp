// Client-side RPC deadlines and retry: per-attempt timeout, exponential
// backoff with multiplicative jitter, bounded attempts. The simulated RpcBus
// silently drops messages to/from down hosts (like real lost TCP SYNs), so
// every consumer that must make progress through faults bounds its calls
// here instead of waiting forever on a response that will never come.
//
// Duplicate-response hygiene: an attempt that merely timed out may still
// deliver its response later (slow, not lost). Each logical call's record
// settles once: exactly one outcome runs, exactly once. The records are
// pooled on the bus, like the bus's own call records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/ref_pool.hpp"
#include "sim/simulation.hpp"
#include "sim/small_fn.hpp"
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

/// One logical call under call_with_retry: the pooled record its attempts
/// share, held by the closures of its in-flight attempts, timeouts and
/// backoffs, and freed with the last of them. call_with_retry fills the
/// fields, then launch() issues the first attempt.
template <typename Resp>
struct RetriedCall final : sim::Pooled<RetriedCall<Resp>> {
  /// Capture capacity of the handler: call sites capture their request's
  /// arguments (addBlock: the excluded and deprioritized node lists).
  static constexpr std::size_t kHandlerBytes = 128;

  RpcBus* bus = nullptr;
  sim::Simulation* sim = nullptr;
  RetryPolicy policy;
  NodeId client, server;
  const char* label = nullptr;
  CallOptions options;
  sim::SmallFn<kHandlerBytes, Resp()> handler;
  sim::SmallFn<RpcBus::kFnBytes, void(Resp)> on_response;
  sim::SmallFn<RpcBus::kFnBytes> on_give_up;
  sim::SmallFn<RpcBus::kFnBytes, Resp()> shed_response;
  sim::SmallFn<RpcBus::kFnBytes, bool(const Resp&)> retry_on;
  bool settled = false;  ///< on_response or on_give_up has run
  int attempts = 0;      ///< attempts issued so far
  /// A retryable response arrived and its backoff relaunch is pending;
  /// suppresses the same attempt's timeout so it cannot double-launch.
  bool response_retry_pending = false;

  void clear() {
    handler = nullptr;
    on_response = nullptr;
    on_give_up = nullptr;
    shed_response = nullptr;
    retry_on = nullptr;
    settled = false;
    attempts = 0;
    response_retry_pending = false;
  }

  /// Issues the next attempt and arms its timeout.
  void launch() {
    response_retry_pending = false;
    const int attempt = ++attempts;
    if (attempt > 1) {
      count("retries");
      if (trace::active()) {
        trace_instant("retry", {{"attempt", std::to_string(attempt)}});
      }
    }
    sim::Ref<RetriedCall> self(this);
    sim::SmallFn<RpcBus::kFnBytes, Resp()> shed;
    if (shed_response) shed = [self] { return self->shed_response(); };
    bus->call<Resp>(
        client, server, [self] { return self->handler(); },
        [self, attempt](Resp resp) {
          self->on_attempt_response(attempt, std::move(resp));
        },
        options, std::move(shed));
    sim->schedule_after(policy.timeout, "rpc.timeout", [self, attempt] {
      self->on_attempt_timeout(attempt);
    });
  }

 private:
  void on_attempt_response(int attempt, Resp resp) {
    if (settled) return;  // a slow earlier attempt already won
    if (retry_on && retry_on(resp) && attempt < policy.max_attempts &&
        attempts == attempt && !response_retry_pending) {
      // Retryable rejection (e.g. overloaded): back off and relaunch.
      response_retry_pending = true;
      count("overload_retries");
      sim->schedule_after(backoff(attempt), "rpc.retry_backoff",
                          [self = sim::Ref<RetriedCall>(this)] {
                            if (!self->settled) self->launch();
                          });
      return;
    }
    if (retry_on) {
      // A stale rejection from a superseded attempt, or a duplicate while
      // this attempt's backoff relaunch is pending: the in-flight attempt
      // owns the outcome.
      if (attempts != attempt && retry_on(resp)) return;
      if (response_retry_pending && attempts == attempt) return;
    }
    settled = true;
    on_response(std::move(resp));
  }

  void on_attempt_timeout(int attempt) {
    if (settled || attempts != attempt || response_retry_pending) return;
    if (attempt >= policy.max_attempts) {
      settled = true;
      bus->counter(nullptr, "give_ups").add();
      if (trace::active()) {
        trace_instant("give-up", {{"attempts", std::to_string(attempt)}});
      }
      on_give_up();
      return;
    }
    const SimDuration delay = backoff(attempt);
    if (trace::active()) {
      trace_instant("backoff", {{"next_attempt", std::to_string(attempt + 1)},
                                {"backoff", format_duration(delay)}});
    }
    sim->schedule_after(
        delay, "rpc.retry_backoff",
        [self = sim::Ref<RetriedCall>(this)] { self->launch(); });
  }

  /// Backoff before the attempt after `attempt`, with multiplicative jitter.
  SimDuration backoff(int attempt) {
    SimDuration delay = policy.backoff_base;
    for (int i = 2; i < attempt + 1 && delay < policy.backoff_max; ++i) {
      delay *= 2;
    }
    if (delay > policy.backoff_max) delay = policy.backoff_max;
    if (policy.jitter > 0.0) {
      const double scale =
          1.0 + policy.jitter * (2.0 * sim->rng().uniform() - 1.0);
      delay = static_cast<SimDuration>(static_cast<double>(delay) * scale);
    }
    return delay;
  }

  /// Bumps rpc.<what> and rpc.<label>.<what>.
  void count(const char* what) const {
    bus->counter(nullptr, what).add();
    bus->counter(label, what).add();
  }

  /// Records the rpc trace instant "<what> <label>" with `args` and the
  /// call's endpoints. Only while tracing is active.
  void trace_instant(const char* what, trace::Args args) const {
    args.emplace_back("client", client.to_string());
    args.emplace_back("server", server.to_string());
    trace::recorder()->instant(trace::Category::kRpc, "rpc",
                               std::string(what) + " " + label,
                               std::move(args));
  }
};

/// One call under call_with_deadline: settles once, with the response or
/// the fallback, whichever comes first.
template <typename Resp>
struct DeadlineCall final : sim::Pooled<DeadlineCall<Resp>> {
  bool settled = false;
  sim::SmallFn<RpcBus::kFnBytes, void(Resp)> on_settle;

  void clear() {
    settled = false;
    on_settle = nullptr;
  }
  void settle(Resp resp) {
    if (!std::exchange(settled, true)) on_settle(std::move(resp));
  }
};

}  // namespace detail

/// Issues `bus.call<Resp>(client, server, handler, ...)` with retries.
/// `on_response` receives the first response to arrive; `on_give_up` runs if
/// all attempts time out. `label` (a string literal) names the call in the
/// metrics registry and trace ("rpc.<label>.retries"); every retry and
/// give-up also lands in the global rpc.retries / rpc.give_ups counters, the
/// one place retries are counted.
///
/// `options` / `shed_response` thread through to the bus (service-queue
/// classification and typed shed rejections). `retry_on` (optional, takes a
/// const Resp&) makes a *response* retryable: when it returns true for an
/// arriving response and attempts remain, the call backs off and relaunches
/// instead of settling — this is how clients honor the namenode's typed
/// `overloaded` rejections with the existing backoff machinery. The final
/// attempt's response is always delivered, so callers see the error and can
/// fall back to their own budgeted wait.
template <typename Resp, typename Handler, typename OnResponse,
          typename OnGiveUp, typename Shed = std::nullptr_t,
          typename RetryOn = std::nullptr_t>
void call_with_retry(RpcBus& bus, sim::Simulation& sim,
                     const RetryPolicy& policy, NodeId client, NodeId server,
                     Handler&& handler, OnResponse&& on_response,
                     OnGiveUp&& on_give_up, const char* label = "call",
                     CallOptions options = {}, Shed&& shed_response = nullptr,
                     RetryOn&& retry_on = nullptr) {
  auto call = bus.pool<detail::RetriedCall<Resp>>().make();
  call->bus = &bus;
  call->sim = &sim;
  call->policy = policy;
  call->client = client;
  call->server = server;
  call->label = label;
  call->options = options;
  call->handler = std::forward<Handler>(handler);
  call->on_response = std::forward<OnResponse>(on_response);
  call->on_give_up = std::forward<OnGiveUp>(on_give_up);
  call->shed_response = std::forward<Shed>(shed_response);
  call->retry_on = std::forward<RetryOn>(retry_on);
  call->launch();
}

/// One attempt under a caller-given deadline: `on_settle` receives the
/// response if it arrives within `timeout`, and `fallback` otherwise; a late
/// response is dropped. `handler` is an RpcBus::call handler (returns the
/// response) or an RpcBus::call_async one (takes the respond continuation).
/// The deadline event, scheduled under `category` right after the request,
/// counts nothing: a missed deadline is the caller's verdict on the peer,
/// not an RPC give-up.
template <typename Resp, typename Handler, typename OnSettle>
void call_with_deadline(RpcBus& bus, sim::Simulation& sim, NodeId client,
                        NodeId server, Handler&& handler, SimDuration timeout,
                        const char* category, Resp fallback,
                        OnSettle&& on_settle) {
  auto pending = bus.pool<detail::DeadlineCall<Resp>>().make();
  pending->on_settle = std::forward<OnSettle>(on_settle);
  auto on_response = [pending](Resp resp) { pending->settle(std::move(resp)); };
  if constexpr (std::is_invocable_r_v<Resp, Handler&>) {
    bus.call<Resp>(client, server, std::forward<Handler>(handler),
                   std::move(on_response));
  } else {
    bus.call_async<Resp>(client, server, std::forward<Handler>(handler),
                         std::move(on_response));
  }
  sim.schedule_after(timeout, category,
                     [pending = std::move(pending),
                      fallback = std::move(fallback)]() mutable {
                       pending->settle(std::move(fallback));
                     });
}

}  // namespace smarth::rpc
