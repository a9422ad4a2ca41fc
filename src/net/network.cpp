#include "net/network.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace smarth::net {

Network::Network(sim::Simulation& sim, NetworkConfig config)
    : sim_(sim), config_(config) {}

NodeId Network::add_node(const std::string& name, const std::string& rack,
                         Bandwidth nic) {
  const NodeId id = topology_.add_host(name, rack);
  Port p;
  p.egress = std::make_unique<Link>(sim_, name + ".egress", nic, 0);
  p.ingress = std::make_unique<Link>(sim_, name + ".ingress", nic, 0);
  p.nic = nic;
  if (cross_throttle_) {
    p.cross_egress = std::make_unique<Link>(sim_, name + ".xeg",
                                            *cross_throttle_, 0);
    p.cross_ingress = std::make_unique<Link>(sim_, name + ".xin",
                                             *cross_throttle_, 0);
  }
  ports_.push_back(std::move(p));
  return id;
}

Network::Port& Network::port(NodeId id) {
  SMARTH_CHECK_MSG(id.valid() &&
                       static_cast<std::size_t>(id.value()) < ports_.size(),
                   "unknown node " << id.value());
  return ports_[static_cast<std::size_t>(id.value())];
}

const Network::Port& Network::port(NodeId id) const {
  SMARTH_CHECK_MSG(id.valid() &&
                       static_cast<std::size_t>(id.value()) < ports_.size(),
                   "unknown node " << id.value());
  return ports_[static_cast<std::size_t>(id.value())];
}

void Network::set_node_nic(NodeId node, Bandwidth bw) {
  Port& p = port(node);
  p.nic = bw;
  p.egress->set_capacity(bw);
  p.ingress->set_capacity(bw);
}

Bandwidth Network::node_nic(NodeId node) const { return port(node).nic; }

void Network::set_cross_rack_throttle(Bandwidth bw) {
  if (bw.is_unlimited()) {
    cross_throttle_.reset();
    for (auto& p : ports_) {
      p.cross_egress.reset();
      p.cross_ingress.reset();
    }
    return;
  }
  cross_throttle_ = bw;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    auto& p = ports_[i];
    const std::string& name = topology_.host_name(NodeId{
        static_cast<std::int64_t>(i)});
    if (p.cross_egress) {
      p.cross_egress->set_capacity(bw);
      p.cross_ingress->set_capacity(bw);
    } else {
      p.cross_egress = std::make_unique<Link>(sim_, name + ".xeg", bw, 0);
      p.cross_ingress = std::make_unique<Link>(sim_, name + ".xin", bw, 0);
    }
  }
}

void Network::set_shared_rack_uplink(Bandwidth bw) {
  if (bw.is_unlimited()) {
    shared_uplink_rate_.reset();
    rack_uplinks_.clear();
    return;
  }
  shared_uplink_rate_ = bw;
  for (auto& [rack, link] : rack_uplinks_) link->set_capacity(bw);
}

Link* Network::rack_uplink(const std::string& rack) {
  if (!shared_uplink_rate_) return nullptr;
  auto it = rack_uplinks_.find(rack);
  if (it == rack_uplinks_.end()) {
    it = rack_uplinks_
             .emplace(rack, std::make_unique<Link>(sim_, rack + ".uplink",
                                                   *shared_uplink_rate_, 0))
             .first;
  }
  return it->second.get();
}

void Network::set_rack_partition(const std::string& rack_a,
                                 const std::string& rack_b, bool severed) {
  auto key = rack_a < rack_b ? std::make_pair(rack_a, rack_b)
                             : std::make_pair(rack_b, rack_a);
  if (severed) {
    partitions_.insert(std::move(key));
  } else {
    partitions_.erase(key);
  }
}

bool Network::partitioned(NodeId a, NodeId b) const {
  if (partitions_.empty()) return false;
  std::string ra = topology_.rack_of(a);
  std::string rb = topology_.rack_of(b);
  if (ra == rb) return false;
  if (rb < ra) std::swap(ra, rb);
  return partitions_.count(std::make_pair(ra, rb)) > 0;
}

void Network::set_node_isolated(NodeId node, bool isolated) {
  SMARTH_CHECK(node.valid());
  const auto idx = static_cast<std::size_t>(node.value());
  if (isolated_.size() <= idx) isolated_.resize(idx + 1, false);
  isolated_[idx] = isolated;
}

bool Network::node_isolated(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node.value());
  return idx < isolated_.size() && isolated_[idx];
}

void Network::pause_ingress(NodeId node) { port(node).ingress->pause(); }

void Network::resume_ingress(NodeId node) { port(node).ingress->resume(); }

bool Network::ingress_paused(NodeId node) const {
  return port(node).ingress->paused();
}

const Link& Network::egress_link(NodeId node) const {
  return *port(node).egress;
}

const Link& Network::ingress_link(NodeId node) const {
  return *port(node).ingress;
}

Bytes Network::bytes_sent(NodeId node) const {
  return port(node).egress->bytes_transmitted();
}

Bytes Network::bytes_received(NodeId node) const {
  return port(node).ingress->bytes_transmitted();
}

void Network::add_hop(Message& msg, Link* link) {
  SMARTH_CHECK_MSG(msg.hop_count < kMaxHops,
                   "route longer than " << kMaxHops << " hops");
  msg.route[msg.hop_count++] = link;
}

void Network::send(NodeId src, NodeId dst, Bytes wire_size,
                   DeliveryCallback on_delivered, LinkPriority priority,
                   FlowKey flow) {
  SMARTH_CHECK(static_cast<bool>(on_delivered));
  if (src == dst) {
    ++messages_delivered_;
    sim_.schedule_after(config_.loopback_latency, "net.loopback",
                        std::move(on_delivered));
    return;
  }
  if (partitioned(src, dst) || node_isolated(src) || node_isolated(dst)) {
    // The inter-switch link or an endpoint NIC is down: the message vanishes
    // (senders discover it through their own timeouts, exactly as with real
    // partitions or flapping cables).
    ++messages_dropped_;
    return;
  }
  SMARTH_CHECK_MSG(wire_size >= 0, "negative message size");
  Port& sp = port(src);
  Port& dp = port(dst);
  const bool cross = !topology_.same_rack(src, dst);

  Message* msg = messages_.acquire();
  msg->size = wire_size;
  msg->priority = priority;
  msg->flow = flow;
  msg->network = this;
  msg->hop = 0;
  msg->hop_count = 0;
  add_hop(*msg, sp.egress.get());
  if (cross) {
    if (sp.cross_egress) add_hop(*msg, sp.cross_egress.get());
    if (Link* uplink = rack_uplink(topology_.rack_of(src))) {
      add_hop(*msg, uplink);
    }
    if (dp.cross_ingress) add_hop(*msg, dp.cross_ingress.get());
  }
  add_hop(*msg, dp.ingress.get());
  // Propagation is paid once, after the full store-and-forward chain; it does
  // not occupy any link.
  msg->propagation =
      cross ? config_.cross_rack_latency : config_.same_rack_latency;
  msg->on_delivered = std::move(on_delivered);
  msg->route[0]->enqueue(msg);
}

void Network::forward(Message* msg) {
  if (++msg->hop < msg->hop_count) {
    msg->route[msg->hop]->enqueue(msg);
    return;
  }
  ++messages_delivered_;
  if (msg->propagation > 0) {
    sim_.post_after(msg->propagation, "net.propagate",
                    [this, msg] { arrive(msg); });
  } else {
    arrive(msg);
  }
}

void Network::arrive(Message* msg) {
  msg->on_delivered();
  msg->on_delivered = nullptr;
  messages_.release(msg);
}

}  // namespace smarth::net
