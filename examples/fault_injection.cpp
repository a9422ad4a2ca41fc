// Fault-tolerance walkthrough (paper §IV): crash a datanode and corrupt a
// packet during a SMARTH upload, with protocol-level logging switched on so
// the recovery sequence (error pipeline set -> probe -> truncate -> replace
// -> resume) is visible.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "common/log.hpp"
#include "faults/fault_injector.hpp"
#include "workload/fault_plan.hpp"

using namespace smarth;

int main() {
  cluster::ClusterSpec spec = cluster::small_cluster(5);
  spec.hdfs.block_size = 16 * kMiB;  // smaller blocks -> more visible events
  spec.hdfs.ack_timeout = seconds(2);
  cluster::Cluster cluster(spec);

  // Show the recovery protocol as it happens.
  Logger::instance().set_level(LogLevel::kInfo);
  Logger::instance().set_time_source(
      [&cluster] { return cluster.sim().now(); });

  // Two faults: dn3 crashes five (simulated) seconds in, and dn6 corrupts
  // the 200th packet it receives.
  faults::FaultInjector injector(cluster);
  workload::FaultPlan plan;
  plan.crash(3, seconds(5)).corrupt(6, 200);
  plan.apply(injector);

  std::printf("uploading 1 GiB with SMARTH; dn3 crashes at t=5s, dn6 "
              "corrupts a packet...\n\n");
  const auto stats =
      cluster.run_upload("/data/faulty.bin", 1 * kGiB,
                         cluster::Protocol::kSmarth);
  Logger::instance().set_level(LogLevel::kWarn);
  Logger::instance().set_time_source(nullptr);

  if (stats.failed) {
    std::printf("\nupload FAILED: %s\n", stats.failure_reason.c_str());
    return 1;
  }
  std::printf("\nupload completed despite the faults:\n");
  std::printf("  time            %s\n",
              format_duration(stats.elapsed()).c_str());
  std::printf("  recoveries run  %d\n", stats.recoveries);

  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  // The crashed node cannot hold its replicas; everything else must be
  // fully replicated across the survivors.
  Bytes survivor_bytes = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.datanode(i).crashed()) continue;
    for (const auto& replica : cluster.datanode(i).block_store().all_replicas()) {
      if (replica.state == storage::ReplicaState::kFinalized) {
        survivor_bytes += replica.bytes;
      }
    }
  }
  std::printf("  finalized bytes on surviving nodes: %s (>= 2 replicas of "
              "1 GiB: %s)\n",
              format_bytes(survivor_bytes).c_str(),
              survivor_bytes >= 2 * kGiB ? "yes" : "NO");
  return 0;
}
