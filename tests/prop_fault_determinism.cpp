// Property: the simulation is bit-reproducible even through fault handling.
// For a grid of (protocol, fault kind, seed), two runs with identical
// configuration must agree on elapsed time, event count, recovery count and
// replica layout — the foundation for every debugging and regression claim
// this repository makes.
#include <gtest/gtest.h>

#include <map>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "workload/fault_plan.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

enum class FaultKind { kNone, kCrash, kCorrupt, kPartitionBlip };

struct Params {
  Protocol protocol;
  FaultKind fault;
  std::uint64_t seed;
};

std::string fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kPartitionBlip: return "partition";
  }
  return "?";
}

struct Fingerprint {
  SimDuration elapsed = 0;
  std::uint64_t events = 0;
  int recoveries = 0;
  bool failed = false;
  /// block value -> sorted (node, bytes) pairs.
  std::map<std::int64_t, std::map<std::int64_t, Bytes>> replicas;

  bool operator==(const Fingerprint& other) const = default;
};

Fingerprint run_once(const Params& p) {
  cluster::ClusterSpec spec = cluster::small_cluster(p.seed);
  spec.hdfs.block_size = 4 * kMiB;
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.datanode_dead_interval = seconds(8);
  Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(60));

  switch (p.fault) {
    case FaultKind::kNone:
      break;
    case FaultKind::kCrash:
      cluster.crash_datanode_at(2, seconds(1));
      break;
    case FaultKind::kCorrupt:
      cluster.datanode(4).inject_checksum_error_on_nth_packet(30);
      break;
    case FaultKind::kPartitionBlip:
      cluster.sim().schedule_at(milliseconds(800), "test", [&cluster] {
        cluster.network().set_rack_partition("/rack0", "/rack1", true);
      });
      cluster.sim().schedule_at(seconds(6), "test", [&cluster] {
        cluster.network().set_rack_partition("/rack0", "/rack1", false);
      });
      break;
  }

  const auto stats = cluster.run_upload("/f", 24 * kMiB, p.protocol);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));

  Fingerprint fp;
  fp.elapsed = stats.elapsed();
  fp.events = cluster.sim().events_executed();
  fp.recoveries = stats.recoveries;
  fp.failed = stats.failed;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    for (const auto& replica :
         cluster.datanode(i).block_store().all_replicas()) {
      fp.replicas[replica.block.value()][static_cast<std::int64_t>(i)] =
          replica.bytes;
    }
  }
  return fp;
}

class FaultDeterminism : public ::testing::TestWithParam<Params> {};

TEST_P(FaultDeterminism, ReplayIsBitIdentical) {
  const Fingerprint a = run_once(GetParam());
  const Fingerprint b = run_once(GetParam());
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.replicas, b.replicas);
}

TEST_P(FaultDeterminism, UploadsSurviveTheFault) {
  const Fingerprint fp = run_once(GetParam());
  EXPECT_FALSE(fp.failed);
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  return std::string(info.param.protocol == Protocol::kHdfs ? "hdfs"
                                                            : "smarth") +
         "_" + fault_name(info.param.fault) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FaultDeterminism,
    ::testing::Values(
        Params{Protocol::kHdfs, FaultKind::kNone, 21},
        Params{Protocol::kHdfs, FaultKind::kCrash, 22},
        Params{Protocol::kHdfs, FaultKind::kCorrupt, 23},
        Params{Protocol::kHdfs, FaultKind::kPartitionBlip, 24},
        Params{Protocol::kSmarth, FaultKind::kNone, 25},
        Params{Protocol::kSmarth, FaultKind::kCrash, 26},
        Params{Protocol::kSmarth, FaultKind::kCorrupt, 27},
        Params{Protocol::kSmarth, FaultKind::kPartitionBlip, 28}),
    param_name);

}  // namespace
}  // namespace smarth
