// Two-rack scenario walkthrough (paper §V-B1): sweep the cross-rack
// throttle and watch the single-pipeline protocol collapse to the slowest
// hop while SMARTH rides the client's first-hop bandwidth. Also demonstrates
// the speed records the client accumulates and reports to the namenode.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "common/table.hpp"
#include "hdfs/namenode.hpp"

using namespace smarth;

int main() {
  std::printf("Two-rack upload: medium cluster, 4 GiB file, throttle sweep\n");

  TextTable table({"cross-rack", "HDFS (s)", "SMARTH (s)", "improvement (%)",
                   "SMARTH max pipelines"});
  for (double throttle_mbps : {0.0, 150.0, 100.0, 50.0}) {
    double secs[2];
    int max_pipelines = 0;
    for (int p = 0; p < 2; ++p) {
      cluster::Cluster cluster(cluster::medium_cluster(7));
      if (throttle_mbps > 0) {
        cluster.throttle_cross_rack(Bandwidth::mbps(throttle_mbps));
      }
      const auto stats = cluster.run_upload(
          "/data/tworack.bin", 4 * kGiB,
          p ? cluster::Protocol::kSmarth : cluster::Protocol::kHdfs);
      if (stats.failed) {
        std::printf("upload failed: %s\n", stats.failure_reason.c_str());
        return 1;
      }
      secs[p] = to_seconds(stats.elapsed());
      if (p == 1) {
        max_pipelines = stats.max_concurrent_pipelines;
        // Show what the namenode learned about this client on the last run.
        if (throttle_mbps == 50.0) {
          std::printf("\nnamenode speed board after the 50 Mbps run:\n");
          const auto* records =
              cluster.namenode().speed_board().records(cluster.client().id());
          if (records != nullptr) {
            for (const auto& [dn, record] : *records) {
              std::printf("  %-8s -> %s\n",
                          cluster.network()
                              .topology()
                              .network_location(dn)
                              .c_str(),
                          format_bandwidth(record.speed).c_str());
            }
          }
          std::printf("\n");
        }
      }
    }
    table.add_row({throttle_mbps > 0
                       ? std::to_string(static_cast<int>(throttle_mbps)) +
                             " Mbps"
                       : "default",
                   TextTable::num(secs[0]), TextTable::num(secs[1]),
                   TextTable::num((secs[0] / secs[1] - 1.0) * 100.0, 1),
                   std::to_string(max_pipelines)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nReading the table: HDFS is pinned to the cross-rack bottleneck "
      "(every block waits for all replica ACKs); SMARTH advances on the "
      "first datanode's FNFA and drains replicas through up to 3 "
      "background pipelines.\n");
  return 0;
}
