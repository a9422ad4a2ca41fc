// Cluster network topology, modelled after HDFS's NetworkTopology: hosts hang
// off racks, racks off the datacenter root. The namenode's rack-aware replica
// placement and the tc-style cross-rack shapers both consult this structure.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace smarth::net {

/// Registry of hosts and their rack locations.
class Topology {
 public:
  /// Registers a host on `rack` (e.g. "/rack0"); names must be unique.
  NodeId add_host(const std::string& name, const std::string& rack);

  std::size_t host_count() const { return hosts_.size(); }
  std::size_t rack_count() const { return rack_order_.size(); }

  const std::string& host_name(NodeId id) const;
  const std::string& rack_of(NodeId id) const;
  /// Dense rack number of `id`: the rack's position in racks().
  std::int32_t rack_index(NodeId id) const;
  /// Full network path, HDFS style: "/rack0/dn3".
  std::string network_location(NodeId id) const;

  bool same_rack(NodeId a, NodeId b) const;

  /// HDFS NetworkTopology distance: 0 same node, 2 same rack, 4 cross rack.
  int distance(NodeId a, NodeId b) const;

  /// All hosts on `rack`, in registration order.
  const std::vector<NodeId>& hosts_on_rack(const std::string& rack) const;
  /// All racks, in first-registration order.
  const std::vector<std::string>& racks() const { return rack_order_; }
  /// All hosts, in registration order.
  std::vector<NodeId> all_hosts() const;

  Result<NodeId> find_host(const std::string& name) const;

 private:
  struct HostInfo {
    std::string name;
    std::int32_t rack;  ///< index into rack_order_ / rack_hosts_
  };
  std::vector<HostInfo> hosts_;  // indexed by NodeId value
  std::unordered_map<std::string, NodeId> by_name_;
  std::unordered_map<std::string, std::int32_t> rack_by_name_;
  std::vector<std::string> rack_order_;           // indexed by rack
  std::vector<std::vector<NodeId>> rack_hosts_;   // indexed by rack

  const HostInfo& info(NodeId id) const;
};

}  // namespace smarth::net
