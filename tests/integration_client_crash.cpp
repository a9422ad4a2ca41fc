// Integration: a writer crashes mid-block under each protocol. The lease
// monitor must recover the file within the hard limit plus the recovery
// budget, close it at a consistent prefix, and a subsequent read must return
// exactly the salvaged bytes. Also covers writer takeover: a second client
// re-creates the crashed writer's path once recovery completes.
#include <gtest/gtest.h>

#include <optional>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec crash_spec(std::uint64_t seed) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 8 * kMiB;
  // Short lease limits keep the recovery phase of the test brief without
  // changing the protocol.
  spec.hdfs.lease_soft_limit = seconds(4);
  spec.hdfs.lease_hard_limit = seconds(10);
  spec.hdfs.lease_monitor_interval = seconds(1);
  return spec;
}

void crash_mid_block_and_expect_consistent_prefix(Protocol protocol) {
  Cluster cluster(crash_spec(11));
  const std::size_t reader_index =
      cluster.add_client(cluster.spec().client.rack,
                         cluster.spec().client.profile);

  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/crash", 64 * kMiB, protocol,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  cluster.crash_client_at(0, seconds(2));

  sim::Simulation& sim = cluster.sim();
  ASSERT_TRUE(sim.run_until_done([&stats] { return stats.has_value(); },
                                 sim.now() + seconds(60)));
  EXPECT_TRUE(stats->failed);
  EXPECT_TRUE(cluster.client_crashed(0));

  // The file must leave under-construction within hdfs::lease_recovery_wait,
  // with no one calling recoverLease.
  const auto closed = [&cluster] {
    const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/crash");
    return entry != nullptr && entry->state == hdfs::FileState::kClosed;
  };
  ASSERT_TRUE(sim.run_until_done(
      closed, sim.now() + hdfs::lease_recovery_wait(cluster.config())))
      << "file still under construction after the recovery budget";

  // Consistency: every live finalized replica of every surviving block
  // matches the length the namenode serves to readers, and only the tail
  // block may be partial.
  const auto located =
      cluster.namenode().get_block_locations("/crash",
                                             cluster.client_node(0));
  ASSERT_TRUE(located.ok());
  Bytes salvaged_prefix = 0;
  for (std::size_t i = 0; i < located.value().size(); ++i) {
    const auto& lb = located.value()[i];
    EXPECT_FALSE(lb.targets.empty());
    if (i + 1 < located.value().size()) {
      EXPECT_EQ(lb.length, cluster.config().block_size)
          << "non-tail block " << i << " is partial";
    }
    for (std::size_t d = 0; d < cluster.datanode_count(); ++d) {
      const auto replica =
          cluster.datanode(d).block_store().replica(lb.block);
      if (replica.ok() &&
          replica.value().state == storage::ReplicaState::kFinalized) {
        EXPECT_EQ(replica.value().bytes, lb.length)
            << "replica of block " << i << " on datanode " << d
            << " disagrees with the synchronized length";
      }
    }
    salvaged_prefix += lb.length;
  }
  ASSERT_GT(salvaged_prefix, 0u) << "2 s of streaming salvaged nothing";
  EXPECT_LT(salvaged_prefix, 64 * kMiB);

  // A reader on a healthy host gets exactly the salvaged prefix.
  const hdfs::ReadStats read =
      cluster.run_download("/crash", reader_index);
  EXPECT_FALSE(read.failed) << read.failure_reason;
  EXPECT_EQ(read.bytes_read, salvaged_prefix);
}

TEST(ClientCrash, HdfsWriterCrashClosesFileAtConsistentPrefix) {
  crash_mid_block_and_expect_consistent_prefix(Protocol::kHdfs);
}

TEST(ClientCrash, SmarthWriterCrashClosesFileAtConsistentPrefix) {
  crash_mid_block_and_expect_consistent_prefix(Protocol::kSmarth);
}

TEST(ClientCrash, NewWriterTakesOverPathAfterRecovery) {
  Cluster cluster(crash_spec(23));
  const std::size_t writer2 =
      cluster.add_client(cluster.spec().client.rack,
                         cluster.spec().client.profile);

  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/contended", 64 * kMiB, Protocol::kSmarth,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  cluster.crash_client_at(0, seconds(2));

  // Past the soft limit the second writer re-creates the path. The create
  // first answers `recovery_in_progress` (triggering recovery immediately,
  // without waiting for the hard limit) and the client retries until the
  // file is closed, then replaces it.
  std::optional<Result<FileId>> created;
  cluster.sim().schedule_at(
      seconds(2) + cluster.config().lease_soft_limit + seconds(1), "test",
      [&] {
        cluster.client(writer2).create_file(
            "/contended",
            [&created](Result<FileId> r) { created = std::move(r); },
            /*overwrite=*/true);
      });

  ASSERT_TRUE(cluster.sim().run_until_done(
      [&created] { return created.has_value(); },
      cluster.sim().now() + hdfs::lease_recovery_wait(cluster.config()) +
          seconds(20)));
  ASSERT_TRUE(created->ok()) << created->error().to_string();
  const hdfs::FileEntry* entry =
      cluster.namenode().file_by_path("/contended");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->id, created->value());
  EXPECT_EQ(entry->state, hdfs::FileState::kUnderConstruction);
  // The takeover happened via soft-expiry recovery, not the hard limit: at
  // least one lease expiry was recorded.
  EXPECT_GE(cluster.namenode().lease_expiries(), 1u);
}

TEST(ClientCrash, RestartedClientWritesAgain) {
  metrics::global_registry().reset();
  Cluster cluster(crash_spec(31));
  faults::FaultInjector injector(cluster, /*chaos_seed=*/5);

  std::optional<hdfs::StreamStats> first;
  cluster.upload("/w1", 32 * kMiB, Protocol::kHdfs,
                 [&first](const hdfs::StreamStats& s) { first = s; });
  injector.crash_and_rejoin_client(0, seconds(1), seconds(8));
  sim::Simulation& sim = cluster.sim();
  ASSERT_TRUE(sim.run_until_done([&first] { return first.has_value(); },
                                 sim.now() + seconds(40)));
  EXPECT_TRUE(first->failed);
  ASSERT_TRUE(sim.run_until_done([&] { return !cluster.client_crashed(0); },
                                 sim.now() + seconds(10)));

  // Post-reboot the same host uploads a fresh file successfully.
  const hdfs::StreamStats second =
      cluster.run_upload("/w2", 16 * kMiB, Protocol::kHdfs);
  EXPECT_FALSE(second.failed) << second.failure_reason;
  EXPECT_TRUE(cluster.file_fully_replicated("/w2"));
  EXPECT_EQ(metrics::global_registry().counter_value("faults.client_crashes"), 1u);
  EXPECT_EQ(metrics::global_registry().counter_value("faults.client_restarts"), 1u);
}

TEST(ClientCrash, ReadOnCrashedClientFailsAtOnce) {
  // A dead host's RPCs are dropped, so its read can never fetch block
  // locations: it must fail at once, and be counted like any other read.
  metrics::global_registry().reset();
  Cluster cluster(crash_spec(41));
  const hdfs::StreamStats upload =
      cluster.run_upload("/r", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(upload.failed) << upload.failure_reason;
  cluster.crash_client(0);
  const SimTime crashed_at = cluster.sim().now();

  const hdfs::ReadStats read = cluster.run_download("/r");
  EXPECT_TRUE(read.failed);
  EXPECT_EQ(read.failure_reason, "client crashed");
  EXPECT_EQ(read.path, "/r");
  EXPECT_EQ(read.bytes_read, 0);
  EXPECT_EQ(read.started_at, crashed_at);
  EXPECT_EQ(read.finished_at, crashed_at);
  const metrics::Registry& reg = metrics::global_registry();
  EXPECT_EQ(reg.counter_value("read.reads"), 1u);
  EXPECT_EQ(reg.counter_value("read.failed_reads"), 1u);
}

}  // namespace
}  // namespace smarth
