// Simulated control plane. An RPC is a small request message over the shared
// network, a server-side service delay, and a small response message back —
// together these realize the paper's per-block namenode communication cost
// `Tn`. RPC messages ride the same NICs as data but, like real small TCP
// flows, are not stuck behind queued bulk packets (control priority).
//
// The bus also hosts the control-plane half of fault injection: calls to or
// from a down host are dropped (and counted, so timeouts are attributable in
// logs), and an optional chaos configuration loses or delays individual
// control messages with seeded randomness.
//
// Each call or notification lives in one pooled record from the request to
// the delivered response (DESIGN.md §3): the handler, the response callback
// and the reply are typed slots in it, and every stage (the request message,
// the service event or queue slot, the response message) holds it through a
// counted sim::Ref. So once the pools have grown, a call allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/network.hpp"
#include "rpc/service_queue.hpp"
#include "sim/ref_pool.hpp"
#include "sim/small_fn.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {

struct RpcConfig {
  static constexpr Bytes request_wire_size = 256;
  static constexpr Bytes response_wire_size = 512;
  /// Server-side processing time per call.
  SimDuration service_time = microseconds(200);
};

/// Fault-injection knobs for the control plane. Loss and delay apply per
/// control message (request and response independently), drawn from the
/// simulation RNG — and only when enabled, so fault-free runs make no extra
/// RNG draws and stay bit-identical to historical traces.
struct RpcChaos {
  double loss_probability = 0.0;   ///< per-message drop probability
  SimDuration delay_mean = 0;      ///< fixed extra latency per message
  SimDuration delay_jitter = 0;    ///< uniform extra in [0, delay_jitter)

  bool enabled() const {
    return loss_probability > 0.0 || delay_mean > 0 || delay_jitter > 0;
  }
};

template <typename Resp>
class Responder;

class RpcBus {
 public:
  /// Inline capture capacity of the callbacks a call record keeps; a larger
  /// capture still works, at one heap allocation.
  static constexpr std::size_t kFnBytes = 64;

  explicit RpcBus(net::Network& network, RpcConfig config = {});
  RpcBus(const RpcBus&) = delete;
  RpcBus& operator=(const RpcBus&) = delete;

  /// Marks a host unreachable: requests to it and responses from it vanish
  /// (callers time out at the protocol layer). Used by fault injection.
  void set_host_down(NodeId node, bool down);
  bool host_down(NodeId node) const;

  /// Installs (or clears, with a default-constructed value) the control-plane
  /// chaos configuration.
  void set_chaos(RpcChaos chaos) { chaos_ = chaos; }
  const RpcChaos& chaos() const { return chaos_; }

  /// Installs a finite-capacity service model for `server`. Calls addressed
  /// to it queue through `queue` (per-class modeled cost, optional admission
  /// control) instead of the flat `service_time`. Pass nullptr to clear. The
  /// queue is owned by the caller and must outlive the bus's use of it.
  void set_service_queue(NodeId server, ServiceQueue* queue);
  ServiceQueue* service_queue(NodeId server) const;

  /// Typed request/response call. `handler` (returns a Resp) runs on the
  /// server after the request arrives plus the service time; its return
  /// value is shipped back and passed to `on_response` (takes a Resp) on the
  /// caller. `options` classify the call for an installed ServiceQueue;
  /// `shed_response` (optional, returns a Resp) is evaluated server-side
  /// when admission control sheds the call, shipping a typed rejection (e.g.
  /// an `overloaded` error) back instead of leaving the caller to time out.
  template <typename Resp, typename Handler, typename OnResponse,
            typename Shed = std::nullptr_t>
  void call(NodeId client, NodeId server, Handler&& handler,
            OnResponse&& on_response, CallOptions options = {},
            Shed&& shed_response = nullptr) {
    auto rec = make_call<Resp>(client, server, options,
                               std::forward<OnResponse>(on_response),
                               std::forward<Shed>(shed_response));
    rec->handler = [h = std::forward<Handler>(handler)](
                       Responder<Resp> respond) mutable { respond(h()); };
    send_request(std::move(rec));
  }

  /// Like call(), but the server handler completes asynchronously by
  /// invoking the Responder<Resp> it is passed (possibly much later, e.g.
  /// after a bulk data transfer it coordinates). A handler may take it as a
  /// std::function<void(Resp)>, at one allocation for the conversion.
  template <typename Resp, typename Handler, typename OnResponse,
            typename Shed = std::nullptr_t>
  void call_async(NodeId client, NodeId server, Handler&& handler,
                  OnResponse&& on_response, CallOptions options = {},
                  Shed&& shed_response = nullptr) {
    auto rec = make_call<Resp>(client, server, options,
                               std::forward<OnResponse>(on_response),
                               std::forward<Shed>(shed_response));
    rec->handler = std::forward<Handler>(handler);
    send_request(std::move(rec));
  }

  /// One-way notification (e.g. heartbeat): no response message. When the
  /// receiver has a ServiceQueue installed, the handler rides it under
  /// `options`; a shed notification is silently dropped (and counted by the
  /// queue) — its handler never executes.
  template <typename Handler>
  void notify(NodeId sender, NodeId receiver, Handler&& handler,
              CallOptions options = {}) {
    auto rec = pools_.get<Notice>().make();
    rec->bus = this;
    rec->client = sender;
    rec->server = receiver;
    rec->options = options;
    rec->handler = std::forward<Handler>(handler);
    send_request(std::move(rec));
  }

  /// The pool of `T` records (a sim::Pooled<T> with clear()), created on
  /// first use. Besides the bus's own call records it holds those of the
  /// callers' multi-stage calls (retried calls, deadline calls, creates),
  /// whose closures ride the bus's records.
  template <typename T>
  sim::RefPool<T>& pool() {
    return pools_.get<T>();
  }

  /// The registry counter rpc.<label>.<what>, or rpc.<what> for a null
  /// `label`, resolved once per bus. `label` and `what` are string literals;
  /// they are matched by address, so one name may hold more than one cache
  /// entry, all pointing at the same counter.
  metrics::Counter& counter(const char* label, const char* what);

  std::uint64_t calls_started() const { return calls_started_; }
  std::uint64_t calls_completed() const { return calls_completed_; }
  const RpcConfig& config() const { return config_; }

 private:
  template <typename Resp>
  friend class Responder;

  /// One call in flight, from request to delivered response. The queue
  /// calls the Job methods with the count the bus handed it at submit.
  template <typename Resp>
  struct Call final : sim::Pooled<Call<Resp>>, ServiceQueue::Job {
    using Response = Resp;

    RpcBus* bus = nullptr;
    NodeId client, server;
    CallOptions options;
    sim::SmallFn<kFnBytes, void(Responder<Resp>)> handler;
    sim::SmallFn<kFnBytes, void(Resp)> on_response;
    sim::SmallFn<kFnBytes, Resp()> shed_response;
    /// The handler's (or the shed) response, from respond() to delivery.
    std::optional<Resp> reply;

    void clear() {
      handler = nullptr;
      on_response = nullptr;
      shed_response = nullptr;
      reply.reset();
    }
    void serve() override { bus->serve(sim::Ref<Call>::adopt(this)); }
    void shed() override { bus->shed(sim::Ref<Call>::adopt(this)); }
    void discard() override { sim::Ref<Call>::adopt(this); }
  };

  /// One notification in flight: a call with no response half.
  struct Notice final : sim::Pooled<Notice>, ServiceQueue::Job {
    RpcBus* bus = nullptr;
    NodeId client, server;
    CallOptions options;
    sim::SmallFn<kFnBytes> handler;

    void clear() { handler = nullptr; }
    void serve() override { bus->serve(sim::Ref<Notice>::adopt(this)); }
    /// A shed notification is dropped: its handler never runs.
    void shed() override { discard(); }
    void discard() override { sim::Ref<Notice>::adopt(this); }
  };

  template <typename Resp, typename OnResponse, typename Shed>
  sim::Ref<Call<Resp>> make_call(NodeId client, NodeId server,
                                 CallOptions options, OnResponse&& on_response,
                                 Shed&& shed_response) {
    ++calls_started_;
    auto rec = pools_.get<Call<Resp>>().make();
    rec->bus = this;
    rec->client = client;
    rec->server = server;
    rec->options = options;
    rec->on_response = std::forward<OnResponse>(on_response);
    rec->shed_response = std::forward<Shed>(shed_response);
    return rec;
  }

  /// The request half of every call and notification: host-down checks, the
  /// request message, then the service stage — the flat `service_time`, or
  /// the server's ServiceQueue, which holds the record by pointer (and one
  /// count) until it serves, sheds or discards it.
  template <typename Rec>
  void send_request(sim::Ref<Rec> rec) {
    const NodeId client = rec->client;
    const NodeId server = rec->server;
    if (dropped(client, client, server) || dropped(server, client, server)) {
      return;  // lost request
    }
    send_control(client, server, config_.request_wire_size,
                 [this, rec = std::move(rec)]() mutable {
                   // The server may die mid-flight or in service.
                   if (dropped(rec->server, rec->client, rec->server)) return;
                   ServiceQueue* queue = service_queue(rec->server);
                   if (queue == nullptr) {
                     network_.simulation().schedule_after(
                         config_.service_time, "rpc.service",
                         [this, rec = std::move(rec)]() mutable {
                           serve(std::move(rec));
                         });
                     return;
                   }
                   const CallOptions options = rec->options;
                   queue->submit(options.svc, options.tenant, rec.release());
                 });
  }

  /// The service stage's end: the handler runs unless the server died.
  template <typename Rec>
  void serve(sim::Ref<Rec> rec) {
    if (dropped(rec->server, rec->client, rec->server)) return;
    if constexpr (std::is_same_v<Rec, Notice>) {
      rec->handler();
    } else {
      rec->handler(Responder<typename Rec::Response>(rec));
    }
  }

  /// A call admission control shed: with a `shed_response`, that typed
  /// rejection goes back through the response half at no service cost;
  /// without one the call is dropped.
  template <typename Resp>
  void shed(sim::Ref<Call<Resp>> call) {
    if (!call->shed_response) return;
    Resp resp = call->shed_response();
    respond(std::move(call), std::move(resp));
  }

  /// The response half: the reply message back to the client, which counts
  /// the call completed and delivers `resp` unless an endpoint went down.
  template <typename Resp>
  void respond(sim::Ref<Call<Resp>> call, Resp resp) {
    const NodeId client = call->client;
    const NodeId server = call->server;
    if (dropped(server, client, server)) return;  // died before responding
    call->reply.emplace(std::move(resp));
    send_control(server, client, config_.response_wire_size,
                 [this, call = std::move(call)] {
                   if (dropped(call->client, call->client, call->server)) {
                     return;
                   }
                   ++calls_completed_;
                   call->on_response(std::move(*call->reply));
                 });
  }

  /// True when `host` is down, after counting the call from `client` to
  /// `server` abandoned (request never sent, server died mid-call, response
  /// undeliverable) in rpc.calls_dropped.
  bool dropped(NodeId host, NodeId client, NodeId server);

  /// Sends one control message, applying chaos loss/delay when configured.
  /// Chaos losses (healthy hosts, the message itself vanished) count in
  /// rpc.messages_lost, chaos delays in rpc.messages_delayed.
  void send_control(NodeId from, NodeId to, Bytes size,
                    net::DeliveryCallback on_delivered);

  struct NamedCounter {
    const char* label;
    const char* what;
    metrics::Counter* counter;
  };

  net::Network& network_;
  RpcConfig config_;
  RpcChaos chaos_;
  std::vector<bool> down_;
  std::vector<ServiceQueue*> queues_;  // indexed by server NodeId
  std::uint64_t calls_started_ = 0;
  std::uint64_t calls_completed_ = 0;
  std::vector<NamedCounter> counters_;
  sim::RefPools pools_;
};

/// The respond continuation of an RpcBus::call_async handler: invoking it
/// (once) ships `resp` back to the caller. It holds the call's record, so a
/// handler may keep it for as long as the work it coordinates takes.
template <typename Resp>
class Responder {
 public:
  void operator()(Resp resp) const {
    call_->bus->respond(call_, std::move(resp));
  }

 private:
  friend class RpcBus;
  explicit Responder(sim::Ref<RpcBus::Call<Resp>> call)
      : call_(std::move(call)) {}

  sim::Ref<RpcBus::Call<Resp>> call_;
};

}  // namespace smarth::rpc
