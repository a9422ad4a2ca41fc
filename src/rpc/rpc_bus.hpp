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
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/network.hpp"
#include "rpc/service_queue.hpp"

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

class RpcBus {
 public:
  explicit RpcBus(net::Network& network, RpcConfig config = {});

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

  /// Typed request/response call. `handler` runs on the server after the
  /// request arrives plus the service time; its return value is shipped back
  /// and passed to `on_response` on the caller. `options` classify the call
  /// for an installed ServiceQueue; `shed_response` (optional) is evaluated
  /// server-side when admission control sheds the call, shipping a typed
  /// rejection (e.g. an `overloaded` error) back instead of leaving the
  /// caller to time out.
  template <typename Resp>
  void call(NodeId client, NodeId server, std::function<Resp()> handler,
            std::function<void(Resp)> on_response, CallOptions options = {},
            std::function<Resp()> shed_response = nullptr) {
    ++calls_started_;
    send_request(std::make_shared<Call<Resp>>(
        client, server, options, std::move(handler), nullptr,
        std::move(on_response), std::move(shed_response)));
  }

  /// Like call(), but the server handler completes asynchronously by
  /// invoking the supplied `respond` continuation (possibly much later, e.g.
  /// after a bulk data transfer it coordinates).
  template <typename Resp>
  void call_async(NodeId client, NodeId server,
                  std::function<void(std::function<void(Resp)>)> handler,
                  std::function<void(Resp)> on_response, CallOptions options = {},
                  std::function<Resp()> shed_response = nullptr) {
    ++calls_started_;
    send_request(std::make_shared<Call<Resp>>(
        client, server, options, nullptr, std::move(handler),
        std::move(on_response), std::move(shed_response)));
  }

  /// One-way notification (e.g. heartbeat): no response message. When the
  /// receiver has a ServiceQueue installed, the handler rides it under
  /// `options`; a shed notification is silently dropped (and counted by the
  /// queue) — its handler never executes.
  void notify(NodeId sender, NodeId receiver, std::function<void()> handler,
              CallOptions options = {}) {
    send_request(std::make_shared<Notice>(sender, receiver, options,
                                          std::move(handler)));
  }

  std::uint64_t calls_started() const { return calls_started_; }
  std::uint64_t calls_completed() const { return calls_completed_; }
  const RpcConfig& config() const { return config_; }

 private:
  /// One call in flight, from request to delivered response: the record
  /// every stage's closure shares. Exactly one of `handler` (call) and
  /// `async_handler` (call_async) is set.
  template <typename Resp>
  struct Call {
    NodeId client, server;
    CallOptions options;
    std::function<Resp()> handler;
    std::function<void(std::function<void(Resp)>)> async_handler;
    std::function<void(Resp)> on_response;
    std::function<Resp()> shed_response;
  };
  /// One notification in flight: a call with no response half.
  struct Notice {
    NodeId client, server;
    CallOptions options;
    std::function<void()> handler;
  };

  /// The request half of every call and notification: host-down checks, the
  /// request message, then the service stage — the flat `service_time`, or
  /// the server's ServiceQueue — and the handler, unless the server died
  /// meanwhile. A shed call with a `shed_response` ships that rejection back
  /// through the response half; any other shed request is dropped.
  template <typename Rec>
  void send_request(std::shared_ptr<Rec> rec) {
    const NodeId client = rec->client;
    const NodeId server = rec->server;
    if (dropped(client, client, server) || dropped(server, client, server)) {
      return;  // lost request
    }
    send_control(client, server, config_.request_wire_size,
                 [this, rec = std::move(rec)]() mutable {
                   // The server may die mid-flight or in service.
                   if (dropped(rec->server, rec->client, rec->server)) return;
                   auto serve = [this, rec] {
                     if (dropped(rec->server, rec->client, rec->server)) return;
                     run_handler(rec);
                   };
                   ServiceQueue* queue = service_queue(rec->server);
                   if (queue == nullptr) {
                     network_.simulation().schedule_after(
                         config_.service_time, "rpc.service", std::move(serve));
                     return;
                   }
                   std::function<void()> shed;
                   if constexpr (requires { rec->shed_response; }) {
                     if (rec->shed_response) {
                       // No service cost: just the response trip carrying
                       // the typed rejection.
                       shed = [this, rec] {
                         respond(rec, rec->shed_response());
                       };
                     }
                   }
                   queue->submit(rec->options.svc, rec->options.tenant,
                                 std::move(serve), std::move(shed));
                 });
  }

  void run_handler(const std::shared_ptr<Notice>& notice) { notice->handler(); }
  template <typename Resp>
  void run_handler(const std::shared_ptr<Call<Resp>>& call) {
    if (call->handler) {
      respond(call, call->handler());
      return;
    }
    call->async_handler(
        [this, call](Resp resp) { respond(call, std::move(resp)); });
  }

  /// The response half: the reply message back to the client, which counts
  /// the call completed and delivers `resp` unless an endpoint went down.
  template <typename Resp>
  void respond(std::shared_ptr<Call<Resp>> call, Resp resp) {
    const NodeId client = call->client;
    const NodeId server = call->server;
    if (dropped(server, client, server)) return;  // died before responding
    send_control(server, client, config_.response_wire_size,
                 [this, call = std::move(call),
                  resp = std::move(resp)]() mutable {
                   if (dropped(call->client, call->client, call->server)) {
                     return;
                   }
                   ++calls_completed_;
                   call->on_response(std::move(resp));
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

  net::Network& network_;
  RpcConfig config_;
  RpcChaos chaos_;
  std::vector<bool> down_;
  std::vector<ServiceQueue*> queues_;  // indexed by server NodeId
  std::uint64_t calls_started_ = 0;
  std::uint64_t calls_completed_ = 0;
};

}  // namespace smarth::rpc
