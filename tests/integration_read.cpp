// Read-path and re-replication integration tests: whole-file reads from the
// nearest replica, failover on dead datanodes, read/write interference on
// shared disks and NICs, and the namenode's background restoration of
// under-replicated blocks.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

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
  return spec;
}

/// Uploads a file and lets trailing reports drain so it is readable.
void upload_and_settle(Cluster& cluster, const std::string& path, Bytes size) {
  const auto stats = cluster.run_upload(path, size, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
}

TEST(Read, WholeFileRoundTrip) {
  Cluster cluster(small_spec());
  upload_and_settle(cluster, "/data/a.bin", 10 * kMiB);
  const auto read = cluster.run_download("/data/a.bin");
  ASSERT_FALSE(read.failed) << read.failure_reason;
  EXPECT_EQ(read.bytes_read, 10 * kMiB);
  EXPECT_EQ(read.blocks, 3);
  EXPECT_EQ(read.failovers, 0);
  EXPECT_GT(read.throughput().mbps(), 10.0);
  EXPECT_LT(read.throughput().mbps(), 216.0);  // bounded by the client NIC
}

TEST(Read, PartialLastBlockAndPacket) {
  Cluster cluster(small_spec());
  const Bytes size = 5 * kMiB + 100;
  upload_and_settle(cluster, "/data/odd.bin", size);
  const auto read = cluster.run_download("/data/odd.bin");
  ASSERT_FALSE(read.failed);
  EXPECT_EQ(read.bytes_read, size);
}

TEST(Read, MissingFileFails) {
  Cluster cluster(small_spec());
  const auto read = cluster.run_download("/nope");
  EXPECT_TRUE(read.failed);
  EXPECT_NE(read.failure_reason.find("file_not_found"), std::string::npos);
}

TEST(Read, CompletionCallbackMayStartTheNextRead) {
  // Each callback starts the next read and then still reads its own
  // captures: the finished reader that owns them must outlive the call.
  Cluster cluster(small_spec());
  upload_and_settle(cluster, "/data/loop.bin", 4 * kMiB);
  std::vector<std::string> finished;
  std::function<void(int)> read_next = [&](int left) {
    cluster.download(
        "/data/loop.bin",
        [&read_next, &finished, left,
         tag = "read with " + std::to_string(left) + " more to start after it"](
            const hdfs::ReadStats& stats) {
          ASSERT_FALSE(stats.failed) << stats.failure_reason;
          if (left > 0) read_next(left - 1);
          finished.push_back(tag);
        });
  };
  read_next(3);
  cluster.sim().run_until_done([&finished] { return finished.size() >= 4; },
                               cluster.sim().now() + seconds(600));
  ASSERT_EQ(finished.size(), 4u);
  EXPECT_EQ(finished.front(), "read with 3 more to start after it");
  EXPECT_EQ(finished.back(), "read with 0 more to start after it");
}

TEST(Read, PrefersSameRackReplica) {
  Cluster cluster(small_spec());
  upload_and_settle(cluster, "/data/a.bin", 16 * kMiB);
  const auto read = cluster.run_download("/data/a.bin");
  ASSERT_FALSE(read.failed);
  // The client sits on rack0; with rack-aware placement every block has a
  // same-rack replica, so cross-rack read traffic should be zero: check by
  // counting which datanodes served reads.
  const auto& topo = cluster.network().topology();
  Bytes cross_rack_served = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (!topo.same_rack(cluster.datanode_id(i), cluster.client_node())) {
      cross_rack_served += cluster.datanode(i).read_bytes_served();
    }
  }
  EXPECT_EQ(cross_rack_served, 0);
}

TEST(Read, FailsOverWhenReplicaDies) {
  Cluster cluster(small_spec());
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  // Kill every rack0 datanode that holds block replicas: reads must fail
  // over to rack1 copies and still complete.
  const auto& topo = cluster.network().topology();
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (topo.same_rack(cluster.datanode_id(i), cluster.client_node())) {
      cluster.datanode(i).crash();
    }
  }
  const auto read = cluster.run_download("/data/a.bin");
  ASSERT_FALSE(read.failed) << read.failure_reason;
  EXPECT_EQ(read.bytes_read, 8 * kMiB);
}

TEST(Read, FailoverMidStreamViaTimeout) {
  Cluster cluster(small_spec());
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  // Crash the whole of rack0 shortly after the read starts; the watchdog
  // must fire and the stream resume from a rack1 replica.
  hdfs::ReadStats stats;
  bool done = false;
  cluster.download("/data/a.bin", [&](const hdfs::ReadStats& s) {
    stats = s;
    done = true;
  });
  const auto& topo = cluster.network().topology();
  cluster.sim().schedule_after(milliseconds(50), "test", [&] {
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      if (topo.same_rack(cluster.datanode_id(i), cluster.client_node())) {
        cluster.datanode(i).crash();
      }
    }
  });
  ASSERT_TRUE(
      cluster.sim().run_until_done([&done] { return done; }, seconds(1000)));
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_EQ(stats.bytes_read, 8 * kMiB);
  EXPECT_GE(stats.failovers, 1);
}

TEST(Read, FailsWhenAllReplicasDead) {
  Cluster cluster(small_spec());
  upload_and_settle(cluster, "/data/a.bin", 4 * kMiB);
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    cluster.datanode(i).crash();
  }
  // Liveness lapses after the dead interval; locations will be empty.
  cluster.sim().run_until(cluster.sim().now() +
                          cluster.config().datanode_dead_interval + seconds(2));
  const auto read = cluster.run_download("/data/a.bin");
  EXPECT_TRUE(read.failed);
}

TEST(Read, ConcurrentReadSlowsWriter) {
  // I/O interference: an 8 MiB upload while a reader streams a previous file
  // must be slower than the same upload alone (shared NICs and disks).
  cluster::ClusterSpec spec = small_spec();
  Cluster alone(spec);
  upload_and_settle(alone, "/data/old.bin", 32 * kMiB);
  const auto solo = alone.run_upload("/data/new.bin", 16 * kMiB,
                                     Protocol::kSmarth);

  Cluster shared(spec);
  upload_and_settle(shared, "/data/old.bin", 32 * kMiB);
  bool read_done = false;
  shared.download("/data/old.bin",
                  [&](const hdfs::ReadStats&) { read_done = true; });
  const auto contended = shared.run_upload("/data/new.bin", 16 * kMiB,
                                           Protocol::kSmarth);
  ASSERT_FALSE(solo.failed);
  ASSERT_FALSE(contended.failed);
  EXPECT_GE(contended.elapsed(), solo.elapsed());
  (void)read_done;
}

TEST(Rereplication, RestoresReplicationAfterCrash) {
  Cluster cluster(small_spec());
  cluster.enable_rereplication(seconds(2));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  ASSERT_TRUE(cluster.file_fully_replicated("/data/a.bin"));

  // Find a replica holder of the first block and kill it.
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/data/a.bin");
  const hdfs::BlockRecord* record = cluster.namenode().block(entry->blocks[0]);
  std::size_t victim = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (record->reported.count(cluster.datanode_id(i)) > 0) {
      victim = i;
      break;
    }
  }
  cluster.datanode(victim).crash();

  // Liveness lapses, the monitor notices and re-copies; give it time.
  cluster.sim().run_until(cluster.sim().now() +
                          cluster.config().datanode_dead_interval +
                          seconds(30));
  EXPECT_GE(cluster.namenode().rereplications_scheduled(), 1u);
  EXPECT_GE(cluster.namenode().rereplications_completed(), 1u);
  EXPECT_TRUE(cluster.namenode().under_replicated_blocks().empty());
  // Every block again has >= 3 live finalized replicas (excluding the dead
  // node's stale copies).
  for (BlockId block : entry->blocks) {
    int live = 0;
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      if (i == victim) continue;
      const auto replica = cluster.datanode(i).block_store().replica(block);
      if (replica.ok() &&
          replica.value().state == storage::ReplicaState::kFinalized) {
        ++live;
      }
    }
    EXPECT_GE(live, 3) << block.to_string();
  }
}

TEST(Rereplication, MonitorDrainsAfterCrashDegradation) {
  // Drain invariant: once the monitor has repaired crash-induced
  // degradation, the under-replicated queue is empty and every scheduled
  // re-replication actually completed — nothing is silently dropped or
  // perpetually retried.
  Cluster cluster(small_spec());
  cluster.enable_rereplication(seconds(2));
  upload_and_settle(cluster, "/data/a.bin", 16 * kMiB);
  ASSERT_TRUE(cluster.file_fully_replicated("/data/a.bin"));

  cluster.datanode(0).crash();
  cluster.datanode(1).crash();
  cluster.sim().run_until(cluster.sim().now() +
                          cluster.config().datanode_dead_interval +
                          seconds(60));

  EXPECT_GE(cluster.namenode().rereplications_scheduled(), 1u);
  EXPECT_EQ(cluster.namenode().rereplications_completed(),
            cluster.namenode().rereplications_scheduled());
  EXPECT_TRUE(cluster.namenode().under_replicated_blocks().empty());
  EXPECT_TRUE(cluster.file_fully_replicated("/data/a.bin"));
}

TEST(Rereplication, IdleWhenFullyReplicated) {
  Cluster cluster(small_spec());
  cluster.enable_rereplication(seconds(2));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  cluster.sim().run_until(cluster.sim().now() + seconds(30));
  EXPECT_EQ(cluster.namenode().rereplications_scheduled(), 0u);
  EXPECT_TRUE(cluster.namenode().under_replicated_blocks().empty());
}

TEST(Rereplication, ReadableDuringRecovery) {
  Cluster cluster(small_spec());
  cluster.enable_rereplication(seconds(2));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  cluster.datanode(0).crash();
  cluster.datanode(1).crash();
  cluster.sim().run_until(cluster.sim().now() +
                          cluster.config().datanode_dead_interval + seconds(2));
  const auto read = cluster.run_download("/data/a.bin");
  ASSERT_FALSE(read.failed) << read.failure_reason;
  EXPECT_EQ(read.bytes_read, 8 * kMiB);
}

}  // namespace
}  // namespace smarth
