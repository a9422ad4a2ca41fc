// Layer probes: each times one public operation of one simulator layer on a
// minimal fixture built through public constructors, so a workload's count
// of that operation times the probe cost bounds the layer's share of wall
// time.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

struct ProbeResult {
  std::string layer;      ///< "sim", "net", "storage", "rpc"
  double ns_per_op = 0;   ///< median over batches
  double allocs_per_op = 0;
};

/// Runs the four probes: Simulation::post_after + run_steps churn,
/// Network::send to delivery, DiskDevice::write to completion and an
/// RpcBus::call round trip.
std::vector<ProbeResult> run_probes(SpanRecorder* spans);

}  // namespace perfbench
