// Property: the edit log is a complete journal of the durable namespace.
// Replaying fsimage + edit-log tail into a fresh namenode reconstructs
// files, blocks, leases, in-flight lease recoveries and the durable salvage
// counters bit-for-bit, after arbitrary histories — multi-protocol uploads,
// pipeline recovery after a datanode crash, writer crashes with lease
// recovery, overwrites of recovered files, quarantined replicas, and
// namenode restarts mid-history (whose own replay must not re-journal).
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "hdfs/edit_log.hpp"
#include "hdfs/fsimage.hpp"
#include "hdfs/namenode.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

/// Replays `base` + the log tail past it into a brand-new namenode and
/// returns the image that namenode captures. No simulation time passes.
hdfs::NamenodeImage replayed_image(Cluster& cluster,
                                   const hdfs::NamenodeImage& base) {
  hdfs::Namenode fresh(cluster.sim(), cluster.network().topology(),
                       cluster.config(), cluster.namenode().node_id());
  fresh.restore_image(base);
  for (const hdfs::EditOp& op : cluster.edit_log().tail(base.last_txid)) {
    fresh.apply_edit(op);
  }
  return fresh.capture_image();
}

void expect_replay_equivalent(Cluster& cluster,
                              const hdfs::NamenodeImage& base) {
  const hdfs::NamenodeImage live = cluster.namenode().capture_image();
  const hdfs::NamenodeImage replayed = replayed_image(cluster, base);
  EXPECT_TRUE(live == replayed)
      << "live:\n" << live.to_json() << "\nreplayed:\n" << replayed.to_json();
}

/// True once the cluster's edit log holds an op of `type`; the histories
/// below check this first so they cannot pass without exercising it.
bool logged(Cluster& cluster, hdfs::EditOpType type) {
  for (const hdfs::EditOp& op : cluster.edit_log().tail(0)) {
    if (op.type == type) return true;
  }
  return false;
}

cluster::ClusterSpec replay_spec(std::uint64_t seed) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 8 * kMiB;
  spec.hdfs.lease_soft_limit = seconds(4);
  spec.hdfs.lease_hard_limit = seconds(8);
  spec.hdfs.lease_monitor_interval = seconds(1);
  // Full-log replay: nothing may be truncated away under the test.
  spec.hdfs.checkpoint_interval = 0;
  return spec;
}

// Clean histories across seeds, protocols and sizes: every op type on the
// happy path (create / addBlock / complete / lease renewals).
TEST(NamenodeReplay, CleanUploadsReplayBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cluster cluster(replay_spec(seed));
    const Protocol protocol =
        (seed % 2 == 0) ? Protocol::kHdfs : Protocol::kSmarth;
    const Bytes size = static_cast<Bytes>(16 + 8 * seed) * kMiB;
    const hdfs::StreamStats a =
        cluster.run_upload("/a", size, protocol);
    ASSERT_FALSE(a.failed) << "seed " << seed << ": " << a.failure_reason;
    const hdfs::StreamStats b =
        cluster.run_upload("/b", 16 * kMiB,
                           protocol == Protocol::kHdfs ? Protocol::kSmarth
                                                       : Protocol::kHdfs);
    ASSERT_FALSE(b.failed) << "seed " << seed << ": " << b.failure_reason;
    expect_replay_equivalent(cluster, hdfs::NamenodeImage{});
  }
}

// A writer crash mid-upload exercises the recovery op family
// (kLeaseRecoveryStart / kUcAttempt / kCommitBlockSync / kTruncateBlocks /
// kCloseRecovered) — including captures taken *during* the recovery, while
// the pending set is partially drained.
TEST(NamenodeReplay, LeaseRecoveryHistoryReplaysBitForBit) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Cluster cluster(replay_spec(seed));
    faults::FaultInjector injector(cluster);
    // Slow the pipeline down so the writer crash lands mid-upload.
    cluster.throttle_cross_rack(Bandwidth::mbps(60));
    std::optional<hdfs::StreamStats> stats;
    cluster.upload("/crash", 48 * kMiB, Protocol::kSmarth,
                   [&stats](const hdfs::StreamStats& s) { stats = s; });
    injector.crash_client(0, seconds(2));
    sim::Simulation& sim = cluster.sim();
    ASSERT_TRUE(sim.run_until_done(
        [&] {
          return stats.has_value() && cluster.namenode().lease_expiries() > 0;
        },
        sim.now() + seconds(30)))
        << "seed " << seed << ": recovery never started";
    // Mid-recovery snapshot: recovering flag, pending UC blocks, attempts.
    expect_replay_equivalent(cluster, hdfs::NamenodeImage{});

    ASSERT_TRUE(sim.run_until_done(
        [&] {
          const hdfs::FileEntry* entry =
              cluster.namenode().file_by_path("/crash");
          return entry != nullptr && entry->state == hdfs::FileState::kClosed;
        },
        sim.now() + seconds(60)))
        << "seed " << seed << ": recovery never finished";
    // Post-recovery snapshot: closed at a salvaged prefix, counters settled.
    expect_replay_equivalent(cluster, hdfs::NamenodeImage{});
  }
}

// A datanode crash mid-upload makes pipeline recovery replace the block's
// expected targets (kUpdateTargets).
TEST(NamenodeReplay, PipelineRecoveryHistoryReplaysBitForBit) {
  for (const Protocol protocol : {Protocol::kHdfs, Protocol::kSmarth}) {
    Cluster cluster(replay_spec(51));
    faults::FaultInjector injector(cluster);
    // Slow the pipeline down so the crash lands mid-block.
    cluster.throttle_cross_rack(Bandwidth::mbps(60));
    std::optional<hdfs::StreamStats> stats;
    cluster.upload("/dn", 48 * kMiB, protocol,
                   [&stats](const hdfs::StreamStats& s) { stats = s; });
    sim::Simulation& sim = cluster.sim();
    ASSERT_TRUE(sim.run_until_done(
        [&] { return cluster.namenode().block_count() > 0; },
        sim.now() + seconds(10)));
    // Crash the middle of the first pipeline, which is still streaming.
    const hdfs::BlockRecord* first = cluster.namenode().block(BlockId{0});
    ASSERT_NE(first, nullptr);
    ASSERT_GE(first->expected_targets.size(), 2u);
    const NodeId victim = first->expected_targets[1];
    std::size_t index = 0;
    while (cluster.datanode(index).node_id() != victim) ++index;
    injector.crash(index, sim.now() + seconds(1));
    ASSERT_TRUE(sim.run_until_done([&stats] { return stats.has_value(); },
                                   sim.now() + seconds(120)));
    ASSERT_FALSE(stats->failed) << stats->failure_reason;
    ASSERT_TRUE(logged(cluster, hdfs::EditOpType::kUpdateTargets));
    expect_replay_equivalent(cluster, hdfs::NamenodeImage{});
  }
}

// create(overwrite) over a file that lease recovery closed drops the old
// entry, its blocks and its recovery state (kEraseFile) before the new
// entry takes the path.
TEST(NamenodeReplay, OverwriteOfRecoveredFileReplaysBitForBit) {
  Cluster cluster(replay_spec(61));
  faults::FaultInjector injector(cluster);
  cluster.throttle_cross_rack(Bandwidth::mbps(60));
  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/over", 48 * kMiB, Protocol::kHdfs,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  injector.crash_client(0, seconds(2));
  sim::Simulation& sim = cluster.sim();
  ASSERT_TRUE(sim.run_until_done(
      [&] {
        const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/over");
        return stats.has_value() && entry != nullptr &&
               entry->closed_by_recovery;
      },
      sim.now() + seconds(60)))
      << "lease recovery never closed /over";
  const FileId old_id = cluster.namenode().file_by_path("/over")->id;
  const Result<FileId> created =
      cluster.namenode().create("/over", ClientId{7}, /*overwrite=*/true);
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  EXPECT_NE(created.value(), old_id);
  EXPECT_EQ(cluster.namenode().file(old_id), nullptr);
  ASSERT_TRUE(logged(cluster, hdfs::EditOpType::kEraseFile));
  expect_replay_equivalent(cluster, hdfs::NamenodeImage{});
}

// Quarantined replicas (kQuarantine) are durable; a rotted replica found by
// a verified read must survive replay as a condemned entry.
TEST(NamenodeReplay, QuarantineReplaysBitForBit) {
  cluster::ClusterSpec spec = replay_spec(21);
  metrics::global_registry().reset();
  Cluster cluster(spec);
  faults::FaultInjector injector(cluster, /*chaos_seed=*/9);
  const hdfs::StreamStats up =
      cluster.run_upload("/rot", 24 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(up.failed) << up.failure_reason;
  injector.bitrot(0, cluster.sim().now() + seconds(1));
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  const hdfs::ReadStats read = cluster.run_download("/rot");
  ASSERT_FALSE(read.failed) << read.failure_reason;
  ASSERT_GE(metrics::global_registry().counter_value("namenode.bad_replica_reports"), 1u);
  expect_replay_equivalent(cluster, hdfs::NamenodeImage{});
}

// Checkpoint + tail: restoring from a mid-history fsimage and replaying only
// the suffix must land on the same state as replaying everything.
TEST(NamenodeReplay, CheckpointPlusTailEqualsFullReplay) {
  cluster::ClusterSpec spec = replay_spec(31);
  spec.hdfs.checkpoint_interval = seconds(2);
  Cluster cluster(spec);
  const hdfs::StreamStats a =
      cluster.run_upload("/c1", 40 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(a.failed) << a.failure_reason;
  const hdfs::StreamStats b =
      cluster.run_upload("/c2", 24 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(b.failed) << b.failure_reason;
  ASSERT_GE(cluster.checkpointer().checkpoints(), 1u);
  ASSERT_GT(cluster.checkpointer().latest().last_txid, 0);
  expect_replay_equivalent(cluster, cluster.checkpointer().latest());
}

// A live restart in the middle of the history must not corrupt the journal:
// the restart's own replay runs the ops through apply_edit, which must not
// journal them again (the log would double-apply on the next replay).
TEST(NamenodeReplay, HistoryContainingRestartReplaysBitForBit) {
  Cluster cluster(replay_spec(41));
  faults::FaultInjector injector(cluster);
  // Slow the pipeline down so the outage lands mid-upload.
  cluster.throttle_cross_rack(Bandwidth::mbps(60));
  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/thru", 48 * kMiB, Protocol::kHdfs,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  injector.crash_and_restart_namenode(seconds(2), seconds(4));
  ASSERT_TRUE(cluster.sim().run_until_done(
      [&stats] { return stats.has_value(); },
      cluster.sim().now() + seconds(120)));
  ASSERT_FALSE(stats->failed) << stats->failure_reason;
  EXPECT_EQ(cluster.namenode().restarts(), 1u);
  // Heartbeats renew leases continuously after the restart, so the live
  // lease stamps (reset at restore, renewed since) converge with replay's.
  expect_replay_equivalent(cluster, hdfs::NamenodeImage{});
}

// Truncation safety: asking for a tail below the truncation point is a
// programming error and must fail loudly, never silently replay a hole.
TEST(NamenodeReplay, TruncatedTailIsRefused) {
  hdfs::EditLog log;
  for (int i = 0; i < 5; ++i) {
    hdfs::EditOp op;
    op.type = hdfs::EditOpType::kLeaseRenew;
    log.append(std::move(op));
  }
  log.truncate_through(3);
  EXPECT_EQ(log.tail(3).size(), 2u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.appended(), 5u);
  EXPECT_THROW(log.tail(1), std::logic_error);
}

}  // namespace
}  // namespace smarth
