#include "net/topology.hpp"

#include "common/check.hpp"

namespace smarth::net {

NodeId Topology::add_host(const std::string& name, const std::string& rack) {
  SMARTH_CHECK_MSG(!name.empty() && !rack.empty(), "empty host or rack name");
  SMARTH_CHECK_MSG(by_name_.find(name) == by_name_.end(),
                   "duplicate host name: " << name);
  const NodeId id{static_cast<std::int64_t>(hosts_.size())};
  auto [it, inserted] = rack_by_name_.try_emplace(
      rack, static_cast<std::int32_t>(rack_order_.size()));
  if (inserted) {
    rack_order_.push_back(rack);
    rack_hosts_.emplace_back();
  }
  hosts_.push_back(HostInfo{name, it->second});
  by_name_.emplace(name, id);
  rack_hosts_[static_cast<std::size_t>(it->second)].push_back(id);
  return id;
}

const Topology::HostInfo& Topology::info(NodeId id) const {
  SMARTH_CHECK_MSG(id.valid() &&
                       static_cast<std::size_t>(id.value()) < hosts_.size(),
                   "unknown node id " << id.value());
  return hosts_[static_cast<std::size_t>(id.value())];
}

const std::string& Topology::host_name(NodeId id) const {
  return info(id).name;
}

const std::string& Topology::rack_of(NodeId id) const {
  return rack_order_[static_cast<std::size_t>(info(id).rack)];
}

std::int32_t Topology::rack_index(NodeId id) const { return info(id).rack; }

std::string Topology::network_location(NodeId id) const {
  return rack_of(id) + "/" + host_name(id);
}

bool Topology::same_rack(NodeId a, NodeId b) const {
  return info(a).rack == info(b).rack;
}

int Topology::distance(NodeId a, NodeId b) const {
  if (a == b) return 0;
  return same_rack(a, b) ? 2 : 4;
}

const std::vector<NodeId>& Topology::hosts_on_rack(
    const std::string& rack) const {
  auto it = rack_by_name_.find(rack);
  SMARTH_CHECK_MSG(it != rack_by_name_.end(), "unknown rack: " << rack);
  return rack_hosts_[static_cast<std::size_t>(it->second)];
}

std::vector<NodeId> Topology::all_hosts() const {
  std::vector<NodeId> out;
  out.reserve(hosts_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    out.emplace_back(static_cast<std::int64_t>(i));
  }
  return out;
}

Result<NodeId> Topology::find_host(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return make_error("host_not_found", "no host named " + name);
  }
  return it->second;
}

}  // namespace smarth::net
