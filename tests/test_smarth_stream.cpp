// Behavioural tests of the SMARTH stream's protocol mechanics on a live
// cluster: FNFA-paced dispatch, slot-wait behaviour under the fan-out cap,
// per-client datanode exclusivity, ablation switches, and speed-record
// content.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "hdfs/namenode.hpp"
#include "sim/periodic_task.hpp"
#include "smarth/smarth_stream.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec small_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  return spec;
}

TEST(SmarthStream, SlotWaitsUnderDeepThrottle) {
  // Three datanodes and replication three leave exactly one pipeline slot;
  // with a slow cross hop the FNFA arrives while the pipeline still drains,
  // so every subsequent block must wait for the slot.
  cluster::ClusterSpec spec =
      cluster::homogeneous_cluster(cluster::small_instance(), 3, 42);
  spec.hdfs.block_size = 4 * kMiB;
  Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(10));
  core::SmarthOutputStream* stream = nullptr;
  bool done = false;
  cluster.upload("/f", 32 * kMiB, Protocol::kSmarth,
                 [&](const hdfs::StreamStats&) { done = true; });
  while (!done) {
    ASSERT_TRUE(
        cluster.sim().run_until(cluster.sim().now() + milliseconds(250)));
    if (stream == nullptr) {
      stream = dynamic_cast<core::SmarthOutputStream*>(
          cluster.latest_stream());
    }
    ASSERT_LT(cluster.sim().now(), seconds(10'000));
  }
  ASSERT_NE(stream, nullptr);
  EXPECT_GE(stream->slot_waits(), 1u);
  EXPECT_EQ(stream->fnfa_received(), 8u);  // one per block
  EXPECT_EQ(stream->stats().max_concurrent_pipelines, 1);
}

TEST(SmarthStream, OneFnfaPerBlock) {
  // Every block advances on its FNFA on a fault-free upload.
  Cluster cluster(small_spec());
  cluster.throttle_cross_rack(Bandwidth::mbps(30));
  const auto stats = cluster.run_upload("/f", 24 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  const auto* stream =
      dynamic_cast<const core::SmarthOutputStream*>(cluster.latest_stream());
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stats.blocks, 6);
  EXPECT_EQ(stream->fnfa_received(), static_cast<std::uint64_t>(stats.blocks));
}

TEST(SmarthStream, DatanodeServesOnePipelinePerClientAtATime) {
  // The §IV-C exclusivity rule, observed from the datanode side: sample
  // every datanode's active-pipeline count during the upload; with a single
  // client it must never exceed 1.
  Cluster cluster(small_spec());
  cluster.throttle_cross_rack(Bandwidth::mbps(20));
  std::size_t max_per_dn = 0;
  sim::PeriodicTask sampler(cluster.sim(), milliseconds(50), "test", [&] {
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      max_per_dn = std::max(max_per_dn,
                            cluster.datanode(i).active_pipeline_count());
    }
  });
  sampler.start();
  const auto stats = cluster.run_upload("/f", 32 * kMiB, Protocol::kSmarth);
  sampler.stop();
  ASSERT_FALSE(stats.failed);
  EXPECT_EQ(max_per_dn, 1u);
}

TEST(SmarthStream, WithoutCapDatanodesServeManyPipelines) {
  cluster::ClusterSpec spec = small_spec();
  spec.hdfs.enforce_pipeline_cap = false;
  spec.hdfs.ack_timeout = seconds(1000);  // congestion is expected here
  Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(20));
  std::size_t max_per_dn = 0;
  int max_concurrent = 0;
  sim::PeriodicTask sampler(cluster.sim(), milliseconds(50), "test", [&] {
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      max_per_dn = std::max(max_per_dn,
                            cluster.datanode(i).active_pipeline_count());
    }
  });
  sampler.start();
  const auto stats = cluster.run_upload("/f", 48 * kMiB, Protocol::kSmarth);
  sampler.stop();
  ASSERT_FALSE(stats.failed);
  max_concurrent = stats.max_concurrent_pipelines;
  EXPECT_GT(max_per_dn, 1u);
  EXPECT_GT(max_concurrent, 3);
}

TEST(SmarthStream, BlocksDispatchInOrder) {
  // Namenode block records must appear in file order (the stream never
  // requests block k+1 before block k's FNFA).
  Cluster cluster(small_spec());
  const auto stats = cluster.run_upload("/f", 20 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/f");
  ASSERT_NE(entry, nullptr);
  for (std::size_t i = 1; i < entry->blocks.size(); ++i) {
    EXPECT_LT(entry->blocks[i - 1].value(), entry->blocks[i].value());
  }
}

TEST(SmarthStream, LocalOptAblationChangesPlacementBehaviour) {
  // With local optimization off and no exploration, the head of each
  // pipeline is exactly what the namenode chose; with it on, some heads are
  // swapped (exploration probability 0.2/pipeline over 16 blocks).
  int swapped_runs = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    cluster::ClusterSpec spec = small_spec(seed);
    spec.hdfs.local_opt_threshold = 0.0;  // always swap when enabled
    Cluster cluster(spec);
    const auto stats = cluster.run_upload("/f", 16 * kMiB, Protocol::kSmarth);
    ASSERT_FALSE(stats.failed);
    if (stats.pipelines_created > 0) ++swapped_runs;
  }
  EXPECT_EQ(swapped_runs, 3);  // runs complete despite aggressive swapping
}

TEST(SmarthStream, SpeedRecordsOnlyForPipelineHeads) {
  cluster::ClusterSpec spec = small_spec();
  // Local optimization re-sorts/swaps targets after the namenode records
  // them; disable it so the namenode's head is the measured head.
  spec.hdfs.smarth_local_opt = false;
  Cluster cluster(spec);
  const auto stats = cluster.run_upload("/f", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  // Every recorded datanode must have been a pipeline head at least once.
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/f");
  std::set<std::int64_t> heads;
  for (BlockId block : entry->blocks) {
    heads.insert(
        cluster.namenode().block(block)->expected_targets[0].value());
  }
  for (const auto& record : cluster.speed_tracker().heartbeat_records()) {
    EXPECT_TRUE(heads.count(record.datanode.value()) > 0)
        << record.datanode.to_string();
    EXPECT_GT(record.speed.mbps(), 1.0);
    EXPECT_LT(record.speed.mbps(), 400.0);
  }
}

TEST(SmarthStream, GlobalOptOffUsesDefaultPolicy) {
  cluster::ClusterSpec spec = small_spec();
  spec.hdfs.smarth_global_opt = false;
  Cluster cluster(spec);
  const auto stats = cluster.run_upload("/f", 8 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  EXPECT_STREQ(cluster.namenode().placement_policy().name(), "hdfs-default");
}

TEST(SmarthStream, GlobalOptOnInstallsSmarthPolicy) {
  Cluster cluster(small_spec());
  const auto stats = cluster.run_upload("/f", 8 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  EXPECT_STREQ(cluster.namenode().placement_policy().name(), "smarth-global");
}

TEST(SmarthStream, PipelineReuseAcrossBlocksCoversCluster) {
  // Over many blocks, every datanode should eventually serve some pipeline
  // (replicas 2/3 rotate even when heads concentrate).
  Cluster cluster(small_spec());
  const auto stats = cluster.run_upload("/f", 64 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    EXPECT_GT(cluster.datanode(i).block_store().replica_count(), 0u)
        << "datanode " << i << " never used";
  }
}

}  // namespace
}  // namespace smarth
