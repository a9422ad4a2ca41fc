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
  Bytes request_wire_size = 256;
  Bytes response_wire_size = 512;
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
    call_async<Resp>(
        client, server,
        [handler = std::move(handler)](std::function<void(Resp)> respond) {
          respond(handler());
        },
        std::move(on_response), options, std::move(shed_response));
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
    if (host_down(client) || host_down(server)) {
      record_dropped_call(client, server);  // lost request
      return;
    }
    send_control(
        client, server, config_.request_wire_size,
        [this, client, server, options, handler = std::move(handler),
         on_response = std::move(on_response),
         shed_response = std::move(shed_response)]() mutable {
          if (host_down(server)) {  // died mid-flight
            record_dropped_call(client, server);
            return;
          }
          // Exactly one of serve/shed runs, so the response continuation is
          // shared between them.
          auto respond_cb = std::make_shared<std::function<void(Resp)>>(
              std::move(on_response));
          auto serve = [this, client, server, handler = std::move(handler),
                        respond_cb]() mutable {
            if (host_down(server)) {
              record_dropped_call(client, server);
              return;
            }
            auto respond = [this, client, server, respond_cb](Resp resp) {
              if (host_down(server)) {  // died before responding
                record_dropped_call(client, server);
                return;
              }
              send_control(server, client, config_.response_wire_size,
                           [this, client, server, resp = std::move(resp),
                            respond_cb]() mutable {
                             if (host_down(client)) {
                               record_dropped_call(client, server);
                               return;
                             }
                             ++calls_completed_;
                             (*respond_cb)(std::move(resp));
                           });
            };
            handler(std::move(respond));
          };
          ServiceQueue* queue = service_queue(server);
          if (queue == nullptr) {
            network_.simulation().schedule_after(
                config_.service_time, "rpc.service", std::move(serve));
            return;
          }
          std::function<void()> shed;
          if (shed_response) {
            // A shed call is rejected cheaply: no service cost, just the
            // response wire trip carrying the typed rejection.
            shed = [this, client, server, respond_cb,
                    shed_response = std::move(shed_response)]() mutable {
              if (host_down(server)) {
                record_dropped_call(client, server);
                return;
              }
              send_control(server, client, config_.response_wire_size,
                           [this, client, server, respond_cb,
                            shed_response = std::move(shed_response)]() {
                             if (host_down(client)) {
                               record_dropped_call(client, server);
                               return;
                             }
                             ++calls_completed_;
                             (*respond_cb)(shed_response());
                           });
            };
          }
          queue->submit(options.svc, options.tenant, std::move(serve),
                        std::move(shed));
        });
  }

  /// One-way notification (e.g. heartbeat): no response message. When the
  /// receiver has a ServiceQueue installed, the handler rides it under
  /// `options`; a shed notification is silently dropped (and counted by the
  /// queue) — its handler never executes.
  void notify(NodeId sender, NodeId receiver, std::function<void()> handler,
              CallOptions options = {});

  std::uint64_t calls_started() const { return calls_started_; }
  std::uint64_t calls_completed() const { return calls_completed_; }
  const RpcConfig& config() const { return config_; }

 private:
  /// Counts a call abandoned because an endpoint was down at some stage
  /// (request never sent, server died mid-call, response undeliverable) in
  /// rpc.calls_dropped.
  void record_dropped_call(NodeId client, NodeId server);

  /// Sends one control message, applying chaos loss/delay when configured.
  /// Chaos losses (healthy hosts, the message itself vanished) count in
  /// rpc.messages_lost, chaos delays in rpc.messages_delayed.
  void send_control(NodeId from, NodeId to, Bytes size,
                    std::function<void()> on_delivered);

  net::Network& network_;
  RpcConfig config_;
  RpcChaos chaos_;
  std::vector<bool> down_;
  std::vector<ServiceQueue*> queues_;  // indexed by server NodeId
  std::uint64_t calls_started_ = 0;
  std::uint64_t calls_completed_ = 0;
};

}  // namespace smarth::rpc
