// End-to-end silent-corruption defense, under both protocols: rot fewer
// replicas than the replication factor and the read must deliver the exact
// bytes (never a corrupt one), fail over, report the bad replicas, and the
// re-replication monitor must restore full replication from a verified-good
// copy; rot every replica and the read must fail cleanly with the distinct
// all_replicas_corrupt error instead of serving bad bytes or looping.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "trace/metrics_registry.hpp"
#include "workload/fault_plan.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec bitrot_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  spec.hdfs.ack_timeout = seconds(2);
  return spec;
}

void upload_and_settle(Cluster& cluster, const std::string& path, Bytes size,
                       Protocol protocol) {
  const auto stats = cluster.run_upload(path, size, protocol);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
}

/// Datanode index holding `node`, or datanode_count() when unknown.
std::size_t index_of(const Cluster& cluster, NodeId node) {
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.datanode_id(i) == node) return i;
  }
  return cluster.datanode_count();
}

class BitrotTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(BitrotTest, ReadSurvivesRotReportsAndRereplicates) {
  const Bytes size = 8 * kMiB;
  metrics::global_registry().reset();
  Cluster cluster(bitrot_spec());
  cluster.enable_rereplication(seconds(2));
  upload_and_settle(cluster, "/data/a.bin", size, GetParam());
  ASSERT_TRUE(cluster.file_fully_replicated("/data/a.bin"));

  // Rot chunk 0 of the replica each block's read would be served from (the
  // first distance-sorted target): every block then hits corruption before
  // delivering a byte, the worst case for the failover path.
  const auto located = cluster.namenode().get_block_locations(
      "/data/a.bin", cluster.client_node());
  ASSERT_TRUE(located.ok());
  std::vector<std::pair<BlockId, std::size_t>> rotted;
  for (const hdfs::LocatedBlock& lb : located.value()) {
    ASSERT_FALSE(lb.targets.empty());
    const std::size_t victim = index_of(cluster, lb.targets.front());
    ASSERT_LT(victim, cluster.datanode_count());
    ASSERT_TRUE(cluster.datanode(victim).rot_replica_chunk(lb.block, 0).ok());
    rotted.emplace_back(lb.block, victim);
  }

  const auto read = cluster.run_download("/data/a.bin");
  ASSERT_FALSE(read.failed) << read.failure_reason;
  // Exact bytes, zero corrupt bytes delivered: a corrupt packet carries no
  // payload, so any delivered rot would break this count.
  EXPECT_EQ(read.bytes_read, size);
  EXPECT_GE(read.checksum_mismatches, static_cast<int>(rotted.size()));
  EXPECT_GE(read.failovers, read.checksum_mismatches);
  EXPECT_GE(read.bad_replica_reports, static_cast<int>(rotted.size()));

  // Quarantine, invalidation, and repair from a verified-good source: give
  // the monitor time, then every rotted holder must have dropped its copy
  // and the file must be back at full replication on clean nodes.
  cluster.sim().run_until(cluster.sim().now() + seconds(60));
  EXPECT_GE(
      metrics::global_registry().counter_value("namenode.bad_replica_reports"),
      static_cast<std::uint64_t>(rotted.size()));
  for (const auto& [block, victim] : rotted) {
    EXPECT_FALSE(cluster.datanode(victim).block_store().replica(block).ok())
        << block.to_string() << " still on datanode " << victim;
  }
  EXPECT_GE(cluster.namenode().rereplications_completed(),
            static_cast<std::uint64_t>(rotted.size()));
  EXPECT_TRUE(cluster.namenode().under_replicated_blocks().empty());
  EXPECT_TRUE(cluster.file_fully_replicated("/data/a.bin"));

  // No rotted chunk survives anywhere: a fresh read is mismatch-free.
  const auto clean = cluster.run_download("/data/a.bin");
  ASSERT_FALSE(clean.failed) << clean.failure_reason;
  EXPECT_EQ(clean.bytes_read, size);
  EXPECT_EQ(clean.checksum_mismatches, 0);
}

TEST_P(BitrotTest, AllReplicasRottedFailsCleanlyWithDistinctError) {
  const Bytes size = 4 * kMiB;
  Cluster cluster(bitrot_spec());
  upload_and_settle(cluster, "/data/a.bin", size, GetParam());

  // Rot chunk 0 of every replica of the first block.
  const hdfs::FileEntry* entry =
      cluster.namenode().file_by_path("/data/a.bin");
  ASSERT_NE(entry, nullptr);
  const BlockId block = entry->blocks.front();
  int rotted = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.datanode(i).rot_replica_chunk(block, 0).ok()) ++rotted;
  }
  ASSERT_EQ(rotted, cluster.config().replication);

  const auto read = cluster.run_download("/data/a.bin");
  EXPECT_TRUE(read.failed);
  EXPECT_NE(read.failure_reason.find("all_replicas_corrupt"),
            std::string::npos)
      << read.failure_reason;
  // Never a corrupt byte: the stream aborts before delivering from the
  // rotted block.
  EXPECT_EQ(read.bytes_read, 0u);
  EXPECT_GE(read.checksum_mismatches, cluster.config().replication);

  // Once the namenode has quarantined every holder, a retry fails fast on
  // the namenode-side flag — still the same distinct error, no loop.
  cluster.sim().run_until(cluster.sim().now() + seconds(5));
  const auto retry = cluster.run_download("/data/a.bin");
  EXPECT_TRUE(retry.failed);
  EXPECT_NE(retry.failure_reason.find("all_replicas_corrupt"),
            std::string::npos)
      << retry.failure_reason;
}

TEST_P(BitrotTest, ScheduledPlanRotIsDetectedByScrub) {
  cluster::ClusterSpec spec = bitrot_spec();
  spec.hdfs.scanner_bytes_per_second = 64 * kMiB;
  metrics::global_registry().reset();
  Cluster cluster(spec);
  cluster.enable_rereplication(seconds(2));
  faults::FaultInjector injector(cluster, /*chaos_seed=*/7);

  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB, GetParam());
  // Schedule rot on two nodes that actually hold finalized replicas (the
  // plan's events are at absolute times, still in the future here).
  workload::FaultPlan plan;
  SimDuration at = seconds(30);
  for (std::size_t i = 0; i < cluster.datanode_count() && plan.bitrots.size() < 2;
       ++i) {
    if (cluster.datanode(i).block_store().finalized_count() == 0) continue;
    plan.bitrot(i, at);
    at += seconds(1);
  }
  ASSERT_EQ(plan.bitrots.size(), 2u);
  plan.apply(injector);
  cluster.sim().run_until(seconds(90));

  EXPECT_EQ(metrics::global_registry().counter_value("faults.bitrot_flips"), 2u);
  std::uint64_t detected = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    detected += cluster.datanode(i).scanner().rot_detected();
  }
  EXPECT_GE(detected, 2u);
  EXPECT_GE(
      metrics::global_registry().counter_value("namenode.bad_replica_reports"), 2u);
  // Scrub-driven repair restores full replication without any read.
  EXPECT_TRUE(cluster.namenode().under_replicated_blocks().empty());
  EXPECT_TRUE(cluster.file_fully_replicated("/data/a.bin"));
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, BitrotTest,
                         ::testing::Values(Protocol::kHdfs,
                                           Protocol::kSmarth),
                         [](const ::testing::TestParamInfo<Protocol>& p) {
                           return p.param == Protocol::kHdfs ? "Hdfs"
                                                             : "Smarth";
                         });

}  // namespace
}  // namespace smarth
