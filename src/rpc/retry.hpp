// Client-side RPC deadlines and retry: per-attempt timeout, exponential
// backoff with multiplicative jitter, bounded attempts. The simulated RpcBus
// silently drops messages to/from down hosts (like real lost TCP SYNs), so
// every consumer that must make progress through faults bounds its calls
// here instead of waiting forever on a response that will never come.
//
// Duplicate-response hygiene: an attempt that merely timed out may still
// deliver its response later (slow, not lost). Each logical call's record
// settles once: exactly one outcome runs, exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
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

/// One logical call under call_with_retry: the record its attempts share,
/// kept alive by the closures of its in-flight attempts, timeouts and
/// backoffs, and freed with the last of them.
template <typename Resp>
class RetriedCall : public std::enable_shared_from_this<RetriedCall<Resp>> {
 public:
  RetriedCall(RpcBus& bus, sim::Simulation& sim, const RetryPolicy& policy,
              NodeId client, NodeId server, std::function<Resp()> handler,
              std::function<void(Resp)> on_response,
              std::function<void()> on_give_up, const char* label,
              CallOptions options, std::function<Resp()> shed_response,
              std::function<bool(const Resp&)> retry_on)
      : bus_(bus), sim_(sim), policy_(policy), client_(client),
        server_(server), handler_(std::move(handler)),
        on_response_(std::move(on_response)),
        on_give_up_(std::move(on_give_up)), label_(label), options_(options),
        shed_response_(std::move(shed_response)),
        retry_on_(std::move(retry_on)) {}

  /// Issues the next attempt and arms its timeout.
  void launch() {
    response_retry_pending_ = false;
    const int attempt = ++attempt_;
    if (attempt > 1) {
      count("retries");
      if (trace::active()) {
        trace_instant("retry", {{"attempt", std::to_string(attempt)}});
      }
    }
    auto self = this->shared_from_this();
    bus_.call<Resp>(
        client_, server_, [self] { return self->handler_(); },
        [self, attempt](Resp resp) {
          self->on_attempt_response(attempt, std::move(resp));
        },
        options_, shed_response_);
    sim_.schedule_after(policy_.timeout, "rpc.timeout",
                        [self, attempt] { self->on_attempt_timeout(attempt); });
  }

 private:
  void on_attempt_response(int attempt, Resp resp) {
    if (settled_) return;  // a slow earlier attempt already won
    if (retry_on_ && retry_on_(resp) && attempt < policy_.max_attempts &&
        attempt_ == attempt && !response_retry_pending_) {
      // Retryable rejection (e.g. overloaded): back off and relaunch.
      response_retry_pending_ = true;
      count("overload_retries");
      sim_.schedule_after(backoff(attempt), "rpc.retry_backoff",
                          [self = this->shared_from_this()] {
                            if (!self->settled_) self->launch();
                          });
      return;
    }
    if (retry_on_) {
      // A stale rejection from a superseded attempt, or a duplicate while
      // this attempt's backoff relaunch is pending: the in-flight attempt
      // owns the outcome.
      if (attempt_ != attempt && retry_on_(resp)) return;
      if (response_retry_pending_ && attempt_ == attempt) return;
    }
    settled_ = true;
    on_response_(std::move(resp));
  }

  void on_attempt_timeout(int attempt) {
    if (settled_ || attempt_ != attempt || response_retry_pending_) return;
    if (attempt >= policy_.max_attempts) {
      settled_ = true;
      metrics::global_registry().counter("rpc.give_ups").add();
      if (trace::active()) {
        trace_instant("give-up", {{"attempts", std::to_string(attempt)}});
      }
      on_give_up_();
      return;
    }
    const SimDuration delay = backoff(attempt);
    if (trace::active()) {
      trace_instant("backoff", {{"next_attempt", std::to_string(attempt + 1)},
                                {"backoff", format_duration(delay)}});
    }
    sim_.schedule_after(delay, "rpc.retry_backoff",
                        [self = this->shared_from_this()] { self->launch(); });
  }

  /// Backoff before the attempt after `attempt`, with multiplicative jitter.
  SimDuration backoff(int attempt) {
    SimDuration delay = policy_.backoff_base;
    for (int i = 2; i < attempt + 1 && delay < policy_.backoff_max; ++i) {
      delay *= 2;
    }
    if (delay > policy_.backoff_max) delay = policy_.backoff_max;
    if (policy_.jitter > 0.0) {
      const double scale =
          1.0 + policy_.jitter * (2.0 * sim_.rng().uniform() - 1.0);
      delay = static_cast<SimDuration>(static_cast<double>(delay) * scale);
    }
    return delay;
  }

  /// Bumps rpc.<what> and rpc.<label>.<what>.
  void count(const char* what) const {
    metrics::global_registry().counter(std::string("rpc.") + what).add();
    metrics::global_registry()
        .counter(std::string("rpc.") + label_ + "." + what)
        .add();
  }

  /// Records the rpc trace instant "<what> <label>" with `args` and the
  /// call's endpoints. Only while tracing is active.
  void trace_instant(const char* what, trace::Args args) const {
    args.emplace_back("client", client_.to_string());
    args.emplace_back("server", server_.to_string());
    trace::recorder()->instant(trace::Category::kRpc, "rpc",
                               std::string(what) + " " + label_,
                               std::move(args));
  }

  RpcBus& bus_;
  sim::Simulation& sim_;
  const RetryPolicy policy_;
  const NodeId client_;
  const NodeId server_;
  std::function<Resp()> handler_;
  std::function<void(Resp)> on_response_;
  std::function<void()> on_give_up_;
  const char* label_;
  const CallOptions options_;
  std::function<Resp()> shed_response_;
  std::function<bool(const Resp&)> retry_on_;
  bool settled_ = false;  ///< on_response_ or on_give_up_ has run
  int attempt_ = 0;       ///< attempts issued so far
  /// A retryable response arrived and its backoff relaunch is pending;
  /// suppresses the same attempt's timeout so it cannot double-launch.
  bool response_retry_pending_ = false;
};

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
  std::make_shared<detail::RetriedCall<Resp>>(
      bus, sim, policy, client, server, std::move(handler),
      std::move(on_response), std::move(on_give_up), label, options,
      std::move(shed_response), std::move(retry_on))
      ->launch();
}

/// One attempt under a caller-given deadline: `on_settle` receives the
/// response if it arrives within `timeout`, and `fallback` otherwise; a late
/// response is dropped. `handler` is an RpcBus::call handler (returns the
/// response) or an RpcBus::call_async one (takes the respond continuation).
/// The deadline event, scheduled under `category` right after the request,
/// counts nothing: a missed deadline is the caller's verdict on the peer,
/// not an RPC give-up.
template <typename Resp, typename Handler>
void call_with_deadline(RpcBus& bus, sim::Simulation& sim, NodeId client,
                        NodeId server, Handler handler, SimDuration timeout,
                        const char* category, Resp fallback,
                        std::function<void(Resp)> on_settle) {
  struct Pending {
    bool settled = false;
    std::function<void(Resp)> on_settle;

    void settle(Resp resp) {
      if (!std::exchange(settled, true)) on_settle(std::move(resp));
    }
  };
  auto pending = std::make_shared<Pending>(false, std::move(on_settle));
  auto on_response = [pending](Resp resp) { pending->settle(std::move(resp)); };
  if constexpr (std::is_invocable_r_v<Resp, Handler&>) {
    bus.call<Resp>(client, server, std::move(handler), std::move(on_response));
  } else {
    bus.call_async<Resp>(client, server, std::move(handler),
                         std::move(on_response));
  }
  sim.schedule_after(timeout, category,
                     [pending, fallback = std::move(fallback)]() mutable {
                       pending->settle(std::move(fallback));
                     });
}

}  // namespace smarth::rpc
