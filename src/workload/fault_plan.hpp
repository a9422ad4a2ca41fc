// Declarative fault schedules for experiments — a small, serializable list
// of faults::FaultInjector one-shots: datanode crashes (optionally with a
// rejoin), fail-slow windows, link flaps, checksum corruptions and bit-rot.
// apply() schedules them through a FaultInjector before the upload starts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "faults/fault_injector.hpp"

namespace smarth::workload {

struct FaultPlan {
  struct Crash {
    std::size_t datanode_index;
    SimDuration at;         ///< simulated time of the crash
    SimDuration rejoin_at;  ///< <= at means the node stays dark
  };
  struct Corruption {
    std::size_t datanode_index;
    std::uint64_t nth_packet;  ///< 1-based arrival count at that node
  };
  struct FailSlow {
    std::size_t datanode_index;
    SimDuration from;
    SimDuration until;
    double factor;  ///< disk + NIC bandwidth divisor
  };
  struct Flap {
    std::size_t datanode_index;
    SimDuration down_at;
    SimDuration up_at;
  };
  struct Bitrot {
    std::size_t datanode_index;
    SimDuration at;  ///< one finalized chunk on the node decays at this time
  };

  std::vector<Crash> crashes;
  std::vector<Corruption> corruptions;
  std::vector<FailSlow> fail_slows;
  std::vector<Flap> flaps;
  std::vector<Bitrot> bitrots;

  FaultPlan& crash(std::size_t datanode_index, SimDuration at);
  FaultPlan& crash_and_rejoin(std::size_t datanode_index, SimDuration at,
                              SimDuration rejoin_at);
  FaultPlan& corrupt(std::size_t datanode_index, std::uint64_t nth_packet);
  FaultPlan& fail_slow(std::size_t datanode_index, SimDuration from,
                       SimDuration until, double factor);
  FaultPlan& flap(std::size_t datanode_index, SimDuration down_at,
                  SimDuration up_at);
  FaultPlan& bitrot(std::size_t datanode_index, SimDuration at);

  /// Schedules the plan through `injector` (must outlive the simulation run —
  /// the scheduled events report back into its counters).
  void apply(faults::FaultInjector& injector) const;
  bool empty() const {
    return crashes.empty() && corruptions.empty() && fail_slows.empty() &&
           flaps.empty() && bitrots.empty();
  }
};

}  // namespace smarth::workload
