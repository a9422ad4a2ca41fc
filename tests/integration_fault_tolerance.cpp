// Fault-tolerance integration tests: datanode crashes and checksum
// corruption during uploads, for both the baseline recovery (paper Alg. 3)
// and SMARTH's multi-pipeline recovery (Alg. 4). Every test verifies not
// just completion but durability: the file ends fully replicated on the
// survivors.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "hdfs/namenode.hpp"
#include "workload/fault_plan.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec spec_with_small_blocks(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  // Faster failure detection keeps the tests quick without changing the
  // recovery logic under test.
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.datanode_dead_interval = seconds(10);
  return spec;
}

/// Finds which datanode is first in the pipeline of the file's first block
/// after the upload started (requires the simulation to have run).
int first_pipeline_head(Cluster& cluster, const std::string& path) {
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path(path);
  if (entry == nullptr || entry->blocks.empty()) return -1;
  const hdfs::BlockRecord* record = cluster.namenode().block(entry->blocks[0]);
  if (record == nullptr || record->expected_targets.empty()) return -1;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.datanode_id(i) == record->expected_targets[0]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Counts finalized replicas of every block of the file.
int min_finalized_replicas(Cluster& cluster, const std::string& path) {
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path(path);
  if (entry == nullptr) return 0;
  int min_replicas = 1 << 20;
  for (BlockId block : entry->blocks) {
    int n = 0;
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      const auto replica = cluster.datanode(i).block_store().replica(block);
      if (replica.ok() &&
          replica.value().state == storage::ReplicaState::kFinalized) {
        ++n;
      }
    }
    min_replicas = std::min(min_replicas, n);
  }
  return min_replicas;
}

TEST(FaultToleranceHdfs, CrashMidUploadRecovers) {
  for (std::size_t crash_index : {0u, 4u, 8u}) {
    Cluster cluster(spec_with_small_blocks());
    faults::FaultInjector injector(cluster);
    // Crash one datanode two (simulated) seconds into the upload; whichever
    // pipelines it serves must recover via Algorithm 3.
    injector.crash(crash_index, seconds(2));
    const auto stats =
        cluster.run_upload("/data/a.bin", 24 * kMiB, Protocol::kHdfs);
    ASSERT_FALSE(stats.failed)
        << "crash_index=" << crash_index << ": " << stats.failure_reason;
    cluster.sim().run_until(cluster.sim().now() + seconds(2));
    // Every block still has at least replication-1 finalized replicas (the
    // crashed node may have been replaced or dropped).
    EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
        << "crash_index=" << crash_index;
  }
}

TEST(FaultToleranceHdfs, RecoveryCountReported) {
  Cluster cluster(spec_with_small_blocks());
  // Crash the head of the first block's pipeline while it is streaming, so a
  // recovery is guaranteed to run (a random node might never be used).
  hdfs::StreamStats stats;
  bool done = false;
  cluster.upload("/data/a.bin", 24 * kMiB, Protocol::kHdfs,
                 [&](const hdfs::StreamStats& s) {
                   stats = s;
                   done = true;
                 });
  cluster.sim().run_until(milliseconds(300));
  const int head = first_pipeline_head(cluster, "/data/a.bin");
  ASSERT_GE(head, 0);
  cluster.datanode(static_cast<std::size_t>(head)).crash();
  ASSERT_TRUE(
      cluster.sim().run_until_done([&done] { return done; }, seconds(10'000)));
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_GE(stats.recoveries, 1);
}

TEST(FaultToleranceHdfs, ChecksumErrorTriggersRecovery) {
  Cluster cluster(spec_with_small_blocks());
  // The 10th packet arriving at node 3 fails verification (wherever node 3
  // sits in a pipeline); the client must replace/resync and finish.
  cluster.datanode(3).inject_checksum_error_on_nth_packet(10);
  const auto stats =
      cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2);
}

TEST(FaultToleranceHdfs, UploadFailsWhenAllReplicasDie) {
  cluster::ClusterSpec spec = spec_with_small_blocks();
  Cluster cluster(spec);
  faults::FaultInjector injector(cluster);
  // Kill every datanode early; no recovery can succeed.
  workload::FaultPlan plan;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    plan.crash(i, seconds(1));
  }
  plan.apply(injector);
  const auto stats =
      cluster.run_upload("/data/a.bin", 24 * kMiB, Protocol::kHdfs);
  EXPECT_TRUE(stats.failed);
}

TEST(FaultToleranceSmarth, CrashMidUploadRecovers) {
  for (std::size_t crash_index : {1u, 5u, 7u}) {
    Cluster cluster(spec_with_small_blocks());
    faults::FaultInjector injector(cluster);
    cluster.throttle_cross_rack(Bandwidth::mbps(40));  // keep pipelines busy
    injector.crash(crash_index, seconds(2));
    const auto stats =
        cluster.run_upload("/data/a.bin", 24 * kMiB, Protocol::kSmarth);
    ASSERT_FALSE(stats.failed)
        << "crash_index=" << crash_index << ": " << stats.failure_reason;
    cluster.sim().run_until(cluster.sim().now() + seconds(2));
    EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
        << "crash_index=" << crash_index;
  }
}

TEST(FaultToleranceSmarth, CrashOfPipelineHeadRecovers) {
  Cluster cluster(spec_with_small_blocks());
  cluster.throttle_cross_rack(Bandwidth::mbps(40));
  // Let the upload place its first block, then kill that pipeline's head —
  // the node the client is actively streaming to.
  cluster.upload("/data/a.bin", 24 * kMiB, Protocol::kSmarth,
                 [](const hdfs::StreamStats&) {});
  cluster.sim().run_until(seconds(1));
  const int head = first_pipeline_head(cluster, "/data/a.bin");
  ASSERT_GE(head, 0);
  cluster.datanode(static_cast<std::size_t>(head)).crash();
  // Drive to completion.
  const hdfs::FileEntry* entry =
      cluster.namenode().file_by_path("/data/a.bin");
  ASSERT_NE(entry, nullptr);
  cluster.sim().run_until_done(
      [entry] { return entry->state == hdfs::FileState::kClosed; },
      cluster.sim().now() + seconds(120));
  EXPECT_EQ(entry->state, hdfs::FileState::kClosed);
  EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2);
}

TEST(FaultToleranceSmarth, ChecksumErrorOnMirrorRecovers) {
  Cluster cluster(spec_with_small_blocks());
  cluster.datanode(6).inject_checksum_error_on_nth_packet(5);
  const auto stats =
      cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2);
}

TEST(FaultToleranceSmarth, MultipleCrashesAcrossUpload) {
  Cluster cluster(spec_with_small_blocks());
  cluster.throttle_cross_rack(Bandwidth::mbps(40));
  faults::FaultInjector injector(cluster);
  workload::FaultPlan plan;
  plan.crash(0, seconds(2)).crash(5, seconds(6));
  plan.apply(injector);
  const auto stats =
      cluster.run_upload("/data/a.bin", 32 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2);
}

TEST(FaultToleranceSmarth, DeadNodeExcludedFromLaterPlacement) {
  Cluster cluster(spec_with_small_blocks());
  faults::FaultInjector injector(cluster);
  injector.crash(4, seconds(1));
  const auto stats =
      cluster.run_upload("/data/a.bin", 32 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  // Blocks allocated well after the dead-node interval must avoid node 4.
  const hdfs::FileEntry* entry =
      cluster.namenode().file_by_path("/data/a.bin");
  ASSERT_NE(entry, nullptr);
  const hdfs::BlockRecord* last_block =
      cluster.namenode().block(entry->blocks.back());
  ASSERT_NE(last_block, nullptr);
  for (NodeId target : last_block->expected_targets) {
    EXPECT_NE(target, cluster.datanode_id(4));
  }
}

TEST(FaultTolerance, RecoveredUploadSlowerThanCleanRun) {
  // Recovery is not free: the faulted run must take longer than a clean one
  // on the same cluster/seed, and both must finish.
  cluster::ClusterSpec spec = spec_with_small_blocks();
  Cluster clean(spec);
  const auto clean_stats =
      clean.run_upload("/data/a.bin", 24 * kMiB, Protocol::kHdfs);
  Cluster faulted(spec);
  faults::FaultInjector injector(faulted);
  injector.crash(1, seconds(2));
  const auto faulted_stats =
      faulted.run_upload("/data/a.bin", 24 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(clean_stats.failed);
  ASSERT_FALSE(faulted_stats.failed);
  if (faulted_stats.recoveries > 0) {
    EXPECT_GT(faulted_stats.elapsed(), clean_stats.elapsed());
  }
}

}  // namespace
}  // namespace smarth
