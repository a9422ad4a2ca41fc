#include "rpc/rpc_bus.hpp"

#include <string>

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

metrics::Counter& RpcBus::counter(const char* label, const char* what) {
  for (const NamedCounter& named : counters_) {
    if (named.label == label && named.what == what) return *named.counter;
  }
  std::string name = "rpc.";
  if (label != nullptr) {
    name += label;
    name += '.';
  }
  name += what;
  metrics::Counter& counter = metrics::global_registry().counter(name);
  counters_.push_back({label, what, &counter});
  return counter;
}

bool RpcBus::dropped(NodeId host, NodeId client, NodeId server) {
  if (!host_down(host)) return false;
  counter(nullptr, "calls_dropped").add();
  SMARTH_DEBUG("rpc") << "dropped call " << client.value() << " -> "
                      << server.value() << " (endpoint down)";
  return true;
}

void RpcBus::send_control(NodeId from, NodeId to, Bytes size,
                          net::DeliveryCallback on_delivered) {
  SimDuration extra = 0;
  if (chaos_.enabled()) {
    Rng& rng = network_.simulation().rng();
    if (chaos_.loss_probability > 0.0 &&
        rng.uniform() < chaos_.loss_probability) {
      counter(nullptr, "messages_lost").add();
      SMARTH_DEBUG("rpc") << "chaos lost control message " << from.value()
                          << " -> " << to.value();
      return;
    }
    extra = chaos_.delay_mean;
    if (chaos_.delay_jitter > 0) {
      extra += rng.uniform_int(0, chaos_.delay_jitter - 1);
    }
    if (extra > 0) {
      counter(nullptr, "messages_delayed").add();
    }
  }
  if (extra > 0) {
    network_.simulation().schedule_after(
        extra, "rpc.delay",
        [this, from, to, size, cb = std::move(on_delivered)]() mutable {
          network_.send(from, to, size, std::move(cb),
                        net::LinkPriority::kControl);
        });
  } else {
    network_.send(from, to, size, std::move(on_delivered),
                  net::LinkPriority::kControl);
  }
}

}  // namespace smarth::rpc
