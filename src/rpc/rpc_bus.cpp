#include "rpc/rpc_bus.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {

RpcBus::RpcBus(net::Network& network, RpcConfig config)
    : network_(network), config_(config) {}

void RpcBus::set_host_down(NodeId node, bool down) {
  SMARTH_CHECK(node.valid());
  const auto idx = static_cast<std::size_t>(node.value());
  if (down_.size() <= idx) down_.resize(idx + 1, false);
  down_[idx] = down;
}

bool RpcBus::host_down(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node.value());
  return idx < down_.size() && down_[idx];
}

void RpcBus::set_service_queue(NodeId server, ServiceQueue* queue) {
  SMARTH_CHECK(server.valid());
  const auto idx = static_cast<std::size_t>(server.value());
  if (queues_.size() <= idx) queues_.resize(idx + 1, nullptr);
  queues_[idx] = queue;
}

ServiceQueue* RpcBus::service_queue(NodeId server) const {
  const auto idx = static_cast<std::size_t>(server.value());
  return idx < queues_.size() ? queues_[idx] : nullptr;
}

void RpcBus::record_dropped_call(NodeId client, NodeId server) {
  metrics::global_registry().counter("rpc.calls_dropped").add();
  SMARTH_DEBUG("rpc") << "dropped call " << client.value() << " -> "
                      << server.value() << " (endpoint down)";
}

void RpcBus::send_control(NodeId from, NodeId to, Bytes size,
                          std::function<void()> on_delivered) {
  SimDuration extra = 0;
  if (chaos_.enabled()) {
    Rng& rng = network_.simulation().rng();
    if (chaos_.loss_probability > 0.0 &&
        rng.uniform() < chaos_.loss_probability) {
      metrics::global_registry().counter("rpc.messages_lost").add();
      SMARTH_DEBUG("rpc") << "chaos lost control message " << from.value()
                          << " -> " << to.value();
      return;
    }
    extra = chaos_.delay_mean;
    if (chaos_.delay_jitter > 0) {
      extra += rng.uniform_int(0, chaos_.delay_jitter - 1);
    }
    if (extra > 0) {
      metrics::global_registry().counter("rpc.messages_delayed").add();
    }
  }
  auto transmit = [this, from, to, size,
                   on_delivered = std::move(on_delivered)]() mutable {
    network_.send(from, to, size, std::move(on_delivered),
                  net::LinkPriority::kControl);
  };
  if (extra > 0) {
    network_.simulation().schedule_after(extra, std::move(transmit));
  } else {
    transmit();
  }
}

void RpcBus::notify(NodeId sender, NodeId receiver,
                    std::function<void()> handler, CallOptions options) {
  if (host_down(sender) || host_down(receiver)) {
    record_dropped_call(sender, receiver);
    return;
  }
  send_control(
      sender, receiver, config_.request_wire_size,
      [this, sender, receiver, options,
       handler = std::move(handler)]() mutable {
        if (host_down(receiver)) {
          record_dropped_call(sender, receiver);
          return;
        }
        ServiceQueue* queue = service_queue(receiver);
        if (queue == nullptr) {
          network_.simulation().schedule_after(config_.service_time,
                                               std::move(handler));
          return;
        }
        auto guarded = [this, sender, receiver,
                        handler = std::move(handler)]() mutable {
          if (host_down(receiver)) {
            record_dropped_call(sender, receiver);
            return;
          }
          handler();
        };
        queue->submit(options.svc, options.tenant, std::move(guarded),
                      /*shed=*/nullptr);
      });
}

}  // namespace smarth::rpc
