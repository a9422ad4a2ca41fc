// Rack-partition fault tests: when the inter-switch link dies, heartbeats,
// ACKs and RPCs across it all vanish. Writers must recover onto the
// reachable rack, readers must fail over to local replicas, and healing the
// partition must restore normal behaviour (including re-replication).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "hdfs/namenode.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec small_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.datanode_dead_interval = seconds(8);
  return spec;
}

TEST(Partition, MessagesDroppedAcrossSeveredRacks) {
  Cluster cluster(small_spec());
  cluster.network().set_rack_partition("/rack0", "/rack1", true);
  bool delivered = false;
  // dn0 is on rack0, dn8 on rack1 (5/4 split).
  cluster.network().send(cluster.datanode_id(0), cluster.datanode_id(8), kKiB,
                         [&] { delivered = true; });
  cluster.sim().run_until(seconds(1));
  EXPECT_FALSE(delivered);
  EXPECT_GE(cluster.network().messages_dropped(), 1u);
  // Same-rack traffic is unaffected.
  cluster.network().send(cluster.datanode_id(0), cluster.datanode_id(1), kKiB,
                         [&] { delivered = true; });
  cluster.sim().run_until(cluster.sim().now() + seconds(1));
  EXPECT_TRUE(delivered);
}

TEST(Partition, HealingRestoresDelivery) {
  Cluster cluster(small_spec());
  cluster.network().set_rack_partition("/rack0", "/rack1", true);
  EXPECT_TRUE(cluster.network().partitioned(cluster.datanode_id(0),
                                            cluster.datanode_id(8)));
  cluster.network().set_rack_partition("/rack0", "/rack1", false);
  EXPECT_FALSE(cluster.network().partitioned(cluster.datanode_id(0),
                                             cluster.datanode_id(8)));
  bool delivered = false;
  cluster.network().send(cluster.datanode_id(0), cluster.datanode_id(8), kKiB,
                         [&] { delivered = true; });
  cluster.sim().run_until(seconds(1));
  EXPECT_TRUE(delivered);
}

TEST(Partition, RemoteRackMarkedDeadViaMissedHeartbeats) {
  // The namenode sits on rack0; partitioned rack1 nodes stop heartbeating
  // and fall out of the alive set — an emergent consequence, not special
  // cased anywhere.
  Cluster cluster(small_spec());
  cluster.network().set_rack_partition("/rack0", "/rack1", true);
  cluster.sim().run_until(cluster.config().datanode_dead_interval +
                          seconds(5));
  const auto& topo = cluster.network().topology();
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    const bool same_rack =
        topo.same_rack(cluster.datanode_id(i), cluster.namenode().node_id());
    EXPECT_EQ(cluster.namenode().is_alive(cluster.datanode_id(i)), same_rack)
        << "datanode " << i;
  }
}

TEST(Partition, WriteDuringPartitionCompletesOnLocalRack) {
  // Sever the racks before the upload: the namenode only sees rack0, so the
  // whole write lands there (the single-rack fallback) and still succeeds.
  Cluster cluster(small_spec());
  cluster.network().set_rack_partition("/rack0", "/rack1", true);
  cluster.sim().run_until(cluster.config().datanode_dead_interval +
                          seconds(5));
  const auto stats =
      cluster.run_upload("/f", 12 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_TRUE(cluster.file_fully_replicated("/f"));
  const auto& topo = cluster.network().topology();
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/f");
  for (BlockId block : entry->blocks) {
    for (NodeId target :
         cluster.namenode().block(block)->expected_targets) {
      EXPECT_EQ(topo.rack_of(target), "/rack0");
    }
  }
}

TEST(Partition, MidUploadPartitionRecovers) {
  // Partition strikes mid-upload: pipelines crossing the cut stall, the
  // writer recovers onto reachable nodes, and the upload finishes.
  for (Protocol protocol : {Protocol::kHdfs, Protocol::kSmarth}) {
    Cluster cluster(small_spec());
    // Strike while pipelines are guaranteed to still be replicating across
    // the cut (a 64 MiB SMARTH upload outlives t=0.5 s comfortably).
    cluster.sim().schedule_at(milliseconds(500), "test", [&cluster] {
      cluster.network().set_rack_partition("/rack0", "/rack1", true);
    });
    hdfs::StreamStats stats;
    bool done = false;
    cluster.upload("/f", 64 * kMiB, protocol, [&](const hdfs::StreamStats& s) {
      stats = s;
      done = true;
    });
    ASSERT_TRUE(cluster.sim().run_until_done([&done] { return done; },
                                             seconds(10'000)));
    ASSERT_FALSE(stats.failed)
        << cluster::protocol_name(protocol) << ": " << stats.failure_reason;
    EXPECT_GE(stats.recoveries, 1) << cluster::protocol_name(protocol);
  }
}

TEST(Partition, ReaderFailsOverToLocalReplica) {
  Cluster cluster(small_spec());
  const auto upload = cluster.run_upload("/f", 8 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(upload.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  // Sever the racks; the client is on rack0 and every block has a rack0
  // replica (rack-aware placement), so reads still succeed.
  cluster.network().set_rack_partition("/rack0", "/rack1", true);
  const auto read = cluster.run_download("/f");
  ASSERT_FALSE(read.failed) << read.failure_reason;
  EXPECT_EQ(read.bytes_read, 8 * kMiB);
}

TEST(Partition, RereplicationAfterHealLosesNothing) {
  Cluster cluster(small_spec());
  cluster.enable_rereplication(seconds(2));
  const auto upload = cluster.run_upload("/f", 8 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(upload.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));

  // Partition long enough for rack1 to be declared dead: the monitor makes
  // extra rack0 copies of blocks whose replicas were cut off. The window
  // covers the 60 s in-flight-copy expiry, since a copy scheduled toward a
  // node that was partitioned a moment earlier is silently lost and retried.
  cluster.network().set_rack_partition("/rack0", "/rack1", true);
  cluster.sim().run_until(cluster.sim().now() +
                          cluster.config().datanode_dead_interval +
                          seconds(90));
  EXPECT_TRUE(cluster.namenode().under_replicated_blocks().empty());

  // Heal: rack1 nodes heartbeat again; nothing is lost and reads work from
  // anywhere.
  cluster.network().set_rack_partition("/rack0", "/rack1", false);
  cluster.sim().run_until(cluster.sim().now() + seconds(10));
  const auto read = cluster.run_download("/f");
  ASSERT_FALSE(read.failed);
  EXPECT_EQ(read.bytes_read, 8 * kMiB);
}

}  // namespace
}  // namespace smarth
