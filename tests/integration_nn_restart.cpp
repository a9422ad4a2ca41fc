// Integration: the namenode process dies mid-upload and comes back — via a
// cold restart (fsimage checkpoint + edit-log tail replay) or a warm standby
// failover. In-flight uploads must ride out the outage on their RPC retry
// and safe-mode budgets and complete byte-exact, deterministically per seed,
// under both protocols and both data fidelities. Also covers: failover
// downtime strictly below a cold restart's, and a lease hard-expiry racing
// the restart being recovered exactly once.
#include <gtest/gtest.h>

#include <optional>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "hdfs/edit_log.hpp"
#include "hdfs/fsimage.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec nn_spec(std::uint64_t seed, hdfs::DataFidelity fidelity) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 8 * kMiB;
  spec.hdfs.fidelity = fidelity;
  return spec;
}

/// Sum of the block lengths the namenode serves to readers.
Bytes served_bytes(Cluster& cluster, const std::string& path) {
  const auto located =
      cluster.namenode().get_block_locations(path, cluster.client_node(0));
  if (!located.ok()) return 0;
  Bytes total = 0;
  for (const auto& lb : located.value()) total += lb.length;
  return total;
}

struct OutageRun {
  SimDuration elapsed = 0;
  std::uint64_t events = 0;
  SimDuration downtime = 0;
};

/// One full scenario: upload under `protocol`, namenode crash at 2 s with
/// recovery initiated at 4 s, byte-exactness asserted at the end.
OutageRun upload_through_outage(std::uint64_t seed, Protocol protocol,
                                hdfs::DataFidelity fidelity) {
  constexpr Bytes kSize = 64 * kMiB;
  metrics::global_registry().reset();
  Cluster cluster(nn_spec(seed, fidelity));
  faults::FaultInjector injector(cluster, /*chaos_seed=*/3);
  injector.crash_and_restart_namenode(seconds(2), seconds(4));

  const hdfs::StreamStats stats =
      cluster.run_upload("/outage", kSize, protocol);
  EXPECT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_FALSE(cluster.namenode_crashed());
  EXPECT_EQ(cluster.namenode().restarts(), 1u);
  EXPECT_GE(metrics::global_registry().counter_value("namenode.safe_mode_entries"), 1u);
  EXPECT_FALSE(cluster.namenode().safe_mode());

  // Byte-exact: the namespace serves exactly the uploaded bytes and every
  // block carries its full replica set.
  EXPECT_EQ(served_bytes(cluster, "/outage"), kSize);
  EXPECT_TRUE(cluster.file_fully_replicated("/outage"));

  // The writer's lease survived the restart (its heartbeats resumed and
  // renewed before any expiry clock ran out).
  EXPECT_EQ(cluster.namenode().lease_expiries(), 0u);

  OutageRun run;
  run.elapsed = stats.elapsed();
  run.events = cluster.sim().events_executed();
  run.downtime = cluster.last_namenode_downtime();
  return run;
}

void crash_restart_byte_exact_and_deterministic(Protocol protocol,
                                                hdfs::DataFidelity fidelity) {
  const OutageRun first = upload_through_outage(17, protocol, fidelity);
  const OutageRun second = upload_through_outage(17, protocol, fidelity);
  // Same seed, fresh worlds: the entire timeline must reproduce bit-for-bit.
  EXPECT_EQ(first.elapsed, second.elapsed);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.downtime, second.downtime);
  EXPECT_GT(first.downtime, 0);
}

TEST(NamenodeRestart, HdfsPacketUploadSurvivesRestart) {
  crash_restart_byte_exact_and_deterministic(Protocol::kHdfs,
                                             hdfs::DataFidelity::kPacket);
}

TEST(NamenodeRestart, SmarthPacketUploadSurvivesRestart) {
  crash_restart_byte_exact_and_deterministic(Protocol::kSmarth,
                                             hdfs::DataFidelity::kPacket);
}

TEST(NamenodeRestart, HdfsBlockFidelityUploadSurvivesRestart) {
  crash_restart_byte_exact_and_deterministic(Protocol::kHdfs,
                                             hdfs::DataFidelity::kBlock);
}

TEST(NamenodeRestart, SmarthBlockFidelityUploadSurvivesRestart) {
  crash_restart_byte_exact_and_deterministic(Protocol::kSmarth,
                                             hdfs::DataFidelity::kBlock);
}

TEST(NamenodeRestart, UploadWithALostBlockFailsInsteadOfHanging) {
  // Six of nine datanodes die at 2.5 s and the namenode restarts from its
  // image and log, so its replica map holds only what the three survivors
  // re-report: a block written wholly to the dead nodes has no replica
  // left and complete() can never succeed. The client must give up within
  // its budget with a clean failure instead of polling forever.
  cluster::ClusterSpec spec = nn_spec(42, hdfs::DataFidelity::kPacket);
  Cluster cluster(spec);
  faults::FaultInjector injector(cluster, /*chaos_seed=*/1);
  for (std::size_t i = 0; i < 6; ++i) injector.crash(i, milliseconds(2500));
  injector.crash_and_restart_namenode(seconds(3), seconds(5));
  const auto stats =
      cluster.run_upload("/data/a.bin", 300 * kMiB, Protocol::kSmarth);
  ASSERT_TRUE(stats.failed);
  EXPECT_NE(stats.failure_reason.find("no reported replica"),
            std::string::npos)
      << stats.failure_reason;
  // The budget covers the namenode's whole safe mode.
  EXPECT_GE(stats.finished_at, seconds(5) + spec.hdfs.safe_mode_max_wait);
}

TEST(NamenodeRestart, CheckpointBoundsReplayAndTruncatesLog) {
  cluster::ClusterSpec spec = nn_spec(41, hdfs::DataFidelity::kPacket);
  spec.hdfs.checkpoint_interval = seconds(2);
  Cluster cluster(spec);

  const hdfs::StreamStats stats =
      cluster.run_upload("/ckpt", 64 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  ASSERT_GE(cluster.checkpointer().checkpoints(), 1u);

  // Truncation dropped everything at or below the image's txid, so the
  // resident log is exactly the tail a restart would replay.
  const hdfs::NamenodeImage& image = cluster.checkpointer().latest();
  EXPECT_GT(image.last_txid, 0);
  EXPECT_EQ(cluster.edit_log().tail(image.last_txid).size(),
            cluster.edit_log().size());
  EXPECT_LT(cluster.edit_log().size(), cluster.edit_log().appended());

  // A restart from that checkpoint replays only the tail and still restores
  // the full namespace.
  cluster.crash_namenode();
  cluster.restart_namenode();
  // Safe-mode exit implies the datanodes re-registered and re-reported every
  // closed block, so the namespace serves full lengths again.
  ASSERT_TRUE(cluster.sim().run_until_done(
      [&] {
        return !cluster.namenode_crashed() && !cluster.namenode().safe_mode();
      },
      cluster.sim().now() + seconds(30)));
  EXPECT_EQ(served_bytes(cluster, "/ckpt"), 64 * kMiB);
}

TEST(NamenodeRestart, FailoverDowntimeStrictlyBelowColdRestart) {
  // Same seed, same crash schedule; only the recovery path differs. The
  // checkpointer is disabled so the cold restart replays the whole log,
  // while the standby has already applied all but the last tail interval.
  const auto run = [](bool failover) {
    cluster::ClusterSpec spec = nn_spec(29, hdfs::DataFidelity::kPacket);
    spec.hdfs.checkpoint_interval = 0;
    Cluster cluster(spec);
    // Slow the pipeline down so the outage lands mid-upload.
    cluster.throttle_cross_rack(Bandwidth::mbps(60));
    if (failover) {
      cluster.enable_standby();
      cluster.crash_namenode_at(seconds(3));
      cluster.failover_namenode_at(seconds(5));
    } else {
      cluster.crash_namenode_at(seconds(3));
      cluster.restart_namenode_at(seconds(5));
    }
    const hdfs::StreamStats stats =
        cluster.run_upload("/fo", 64 * kMiB, Protocol::kSmarth);
    EXPECT_FALSE(stats.failed) << stats.failure_reason;
    EXPECT_FALSE(cluster.namenode_crashed());
    return cluster.last_namenode_downtime();
  };

  const SimDuration cold = run(false);
  const SimDuration warm = run(true);
  ASSERT_GT(cold, 0);
  ASSERT_GT(warm, 0);
  EXPECT_LT(warm, cold) << "standby promotion must beat a cold restart";
}

TEST(NamenodeRestart, StandbyTailsLogWithBoundedLag) {
  cluster::ClusterSpec spec = nn_spec(59, hdfs::DataFidelity::kPacket);
  spec.hdfs.checkpoint_interval = seconds(2);
  Cluster cluster(spec);
  cluster.enable_standby();

  const hdfs::StreamStats stats =
      cluster.run_upload("/tail", 64 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;

  // Bounded lag: whatever the active had journaled by the end of the upload
  // is applied on the standby within a couple of tail intervals (lease
  // renewals keep trickling in afterwards, so exact equality at an arbitrary
  // instant would race them).
  const std::int64_t target = cluster.edit_log().last_txid();
  EXPECT_GT(target, 0);
  cluster.sim().run_until(cluster.sim().now() +
                          2 * cluster.config().standby_tail_interval);
  ASSERT_NE(cluster.standby(), nullptr);
  EXPECT_GE(cluster.standby()->applied_txid(), target);
  // Checkpoint truncation never outran the standby: the tail it still needs
  // is always resident (tail() CHECK-fails if truncated past it).
  EXPECT_GE(cluster.edit_log().tail(cluster.standby()->applied_txid()).size(),
            0u);
}

// A lease hard-expiry racing the namenode restart: the writer dies, and the
// namenode crashes before its lease monitor can notice the expiry. After the
// restart every lease clock resets (the revived namenode cannot tell a dead
// writer from one whose renewals died with the process), so the expiry fires
// one hard limit later and recovery runs exactly once — replay must not let
// the monitor double-start it.
TEST(NamenodeRestart, LeaseHardExpiryRacingRestartRecoversExactlyOnce) {
  cluster::ClusterSpec spec = nn_spec(11, hdfs::DataFidelity::kPacket);
  spec.hdfs.lease_soft_limit = seconds(4);
  spec.hdfs.lease_hard_limit = seconds(8);
  spec.hdfs.lease_monitor_interval = seconds(1);
  Cluster cluster(spec);

  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/race", 64 * kMiB, Protocol::kHdfs,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  cluster.crash_client_at(0, seconds(2));
  // Hard expiry would be detected at ~10-11 s; the namenode dies just before
  // and recovers after a 2 s outage.
  cluster.crash_namenode_at(seconds(9) + milliseconds(500));
  cluster.restart_namenode_at(seconds(11) + milliseconds(500));

  ASSERT_TRUE(cluster.sim().run_until_done(
      [&] {
        const hdfs::FileEntry* entry =
            cluster.namenode().file_by_path("/race");
        return stats.has_value() && !cluster.namenode_crashed() &&
               entry != nullptr && entry->state == hdfs::FileState::kClosed;
      },
      cluster.sim().now() + seconds(60)))
      << "file still under construction after restart + recovery budget";

  EXPECT_TRUE(stats->failed);
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/race");
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->closed_by_recovery);
  // Exactly one recovery: the counter is durable across the restart (image +
  // replay), so a double-start would show as 2.
  EXPECT_EQ(cluster.namenode().lease_expiries(), 1u);

  // Nothing re-recovers the already-closed file afterwards.
  cluster.sim().run_until(cluster.sim().now() + seconds(20));
  EXPECT_EQ(cluster.namenode().lease_expiries(), 1u);
  EXPECT_EQ(cluster.namenode().file_by_path("/race")->state,
            hdfs::FileState::kClosed);
}

}  // namespace
}  // namespace smarth
