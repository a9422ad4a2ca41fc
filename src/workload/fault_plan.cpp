#include "workload/fault_plan.hpp"

namespace smarth::workload {

FaultPlan& FaultPlan::crash(std::size_t datanode_index, SimDuration at) {
  crashes.push_back(Crash{datanode_index, at, /*rejoin_at=*/0});
  return *this;
}

FaultPlan& FaultPlan::crash_and_rejoin(std::size_t datanode_index,
                                       SimDuration at, SimDuration rejoin_at) {
  crashes.push_back(Crash{datanode_index, at, rejoin_at});
  return *this;
}

FaultPlan& FaultPlan::corrupt(std::size_t datanode_index,
                              std::uint64_t nth_packet) {
  corruptions.push_back(Corruption{datanode_index, nth_packet});
  return *this;
}

FaultPlan& FaultPlan::fail_slow(std::size_t datanode_index, SimDuration from,
                                SimDuration until, double factor) {
  fail_slows.push_back(FailSlow{datanode_index, from, until, factor});
  return *this;
}

FaultPlan& FaultPlan::flap(std::size_t datanode_index, SimDuration down_at,
                           SimDuration up_at) {
  flaps.push_back(Flap{datanode_index, down_at, up_at});
  return *this;
}

FaultPlan& FaultPlan::bitrot(std::size_t datanode_index, SimDuration at) {
  bitrots.push_back(Bitrot{datanode_index, at});
  return *this;
}

void FaultPlan::apply(faults::FaultInjector& injector) const {
  for (const Crash& c : crashes) {
    if (c.rejoin_at > c.at) {
      injector.crash_and_rejoin(c.datanode_index, c.at, c.rejoin_at);
    } else {
      injector.crash(c.datanode_index, c.at);
    }
  }
  for (const Corruption& c : corruptions) {
    injector.corrupt_nth_packet(c.datanode_index, c.nth_packet);
  }
  for (const FailSlow& f : fail_slows) {
    injector.fail_slow(f.datanode_index, f.from, f.until, f.factor, f.factor);
  }
  for (const Flap& f : flaps) {
    injector.flap_node(f.datanode_index, f.down_at, f.up_at);
  }
  for (const Bitrot& b : bitrots) {
    injector.bitrot(b.datanode_index, b.at);
  }
}

void FaultPlan::apply(cluster::Cluster& cluster) const {
  for (const Crash& c : crashes) {
    cluster.crash_datanode_at(c.datanode_index, c.at);
    if (c.rejoin_at > c.at) {
      cluster.restart_datanode_at(c.datanode_index, c.rejoin_at);
    }
  }
  for (const Corruption& c : corruptions) {
    cluster.datanode(c.datanode_index)
        .inject_checksum_error_on_nth_packet(c.nth_packet);
  }
  for (const FailSlow& f : fail_slows) {
    // Without an injector there is no saved-state bookkeeping; approximate by
    // dividing the node's current NIC rate for the window.
    net::Network* net = &cluster.network();
    const NodeId node = cluster.datanode_id(f.datanode_index);
    hdfs::Datanode* dn = &cluster.datanode(f.datanode_index);
    cluster.sim().schedule_at(f.from, "fault.fail_slow", [net, node, dn, f] {
      const Bandwidth disk_before = dn->disk().write_bandwidth();
      const Bandwidth nic_before = net->node_nic(node);
      if (f.factor > 1.0 && !disk_before.is_unlimited()) {
        dn->disk().set_write_bandwidth(Bandwidth::bits_per_second(
            disk_before.bits_per_second() / f.factor));
      }
      if (f.factor > 1.0 && !nic_before.is_unlimited()) {
        net->set_node_nic(node, Bandwidth::bits_per_second(
                                    nic_before.bits_per_second() / f.factor));
      }
      net->simulation().schedule_at(
          f.until, "fault.fail_slow_end",
          [net, node, dn, disk_before, nic_before] {
            dn->disk().set_write_bandwidth(disk_before);
            net->set_node_nic(node, nic_before);
          });
    });
  }
  for (const Flap& f : flaps) {
    net::Network* net = &cluster.network();
    const NodeId node = cluster.datanode_id(f.datanode_index);
    cluster.sim().schedule_at(f.down_at, "fault.flap_down", [net, node] {
      net->set_node_isolated(node, true);
    });
    cluster.sim().schedule_at(f.up_at, "fault.flap_up", [net, node] {
      net->set_node_isolated(node, false);
    });
  }
  for (const Bitrot& b : bitrots) {
    // Same salt derivation as FaultInjector::bitrot so both apply() paths
    // rot the identical chunk.
    hdfs::Datanode* dn = &cluster.datanode(b.datanode_index);
    const std::uint64_t salt =
        faults::FaultInjector::one_shot_salt(b.datanode_index, b.at);
    cluster.sim().schedule_at(b.at, "fault.bitrot", [dn, salt] {
      dn->rot_random_finalized_chunk(salt);
    });
  }
}

}  // namespace smarth::workload
