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

}  // namespace smarth::workload
