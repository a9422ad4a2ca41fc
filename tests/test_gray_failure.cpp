// Gray-failure defense tests (PR 8): hedged reads, write-pipeline slow-node
// eviction, and the namenode suspicion list. The fault here is always
// fail-slow — bandwidth divided, heartbeats healthy — so nothing in the
// crash/timeout machinery fires and the defenses must catch the slowness by
// pace alone.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "hdfs/suspicion.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;
using cluster::small_cluster;

/// The slow victim for integration tests: datanode index 1 sits in rack0 on
/// the small cluster and reliably serves early pipelines and block-0 reads.
constexpr std::size_t kSlowIndex = 1;

double hedges_in_flight_gauge() {
  const auto* g =
      metrics::global_registry().find_gauge("read.hedges_in_flight");
  return g != nullptr ? g->value() : 0.0;
}

// --- Suspicion list (unit) --------------------------------------------------

TEST(SuspicionListTest, ReportsAccumulateAndCrossThreshold) {
  hdfs::SuspicionList list(seconds(30), /*threshold=*/2.0);
  const NodeId node{7};
  EXPECT_DOUBLE_EQ(list.score(node, seconds(1)), 0.0);
  list.report(node, 1.5, seconds(1));
  EXPECT_FALSE(list.suspect(node, seconds(1)));
  list.report(node, 1.5, seconds(1));
  EXPECT_TRUE(list.suspect(node, seconds(1)));
  EXPECT_EQ(list.reports(), 2u);
  EXPECT_EQ(list.suspects(seconds(1)), std::vector<NodeId>{node});
}

TEST(SuspicionListTest, ScoresHalveEveryHalfLife) {
  hdfs::SuspicionList list(seconds(30), /*threshold=*/2.0);
  const NodeId node{3};
  list.report(node, 4.0, seconds(0));
  EXPECT_NEAR(list.score(node, seconds(30)), 2.0, 1e-9);
  EXPECT_TRUE(list.suspect(node, seconds(30)));
  // One more half-life drops it below the threshold: a node that stops
  // generating evidence recovers without anyone clearing it.
  EXPECT_NEAR(list.score(node, seconds(60)), 1.0, 1e-9);
  EXPECT_FALSE(list.suspect(node, seconds(60)));
  EXPECT_TRUE(list.suspects(seconds(60)).empty());
}

TEST(SuspicionListTest, ClearForgetsTheNode) {
  hdfs::SuspicionList list(seconds(30), /*threshold=*/2.0);
  const NodeId node{5};
  list.report(node, 10.0, seconds(0));
  ASSERT_TRUE(list.suspect(node, seconds(0)));
  list.clear(node);
  EXPECT_FALSE(list.suspect(node, seconds(0)));
  EXPECT_DOUBLE_EQ(list.score(node, seconds(0)), 0.0);
}

TEST(SuspicionListTest, SuspectsSortedByNodeId) {
  hdfs::SuspicionList list(seconds(30), /*threshold=*/1.0);
  list.report(NodeId{9}, 2.0, seconds(0));
  list.report(NodeId{2}, 2.0, seconds(0));
  list.report(NodeId{6}, 2.0, seconds(0));
  const auto suspects = list.suspects(seconds(0));
  ASSERT_EQ(suspects.size(), 3u);
  EXPECT_EQ(suspects[0], NodeId{2});
  EXPECT_EQ(suspects[1], NodeId{6});
  EXPECT_EQ(suspects[2], NodeId{9});
}

// --- Suspicion list (namenode integration) ----------------------------------

TEST(SuspicionIntegrationTest, SlowReportsDemoteInPlacement) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(11));
  const NodeId slow = cluster.datanode_id(kSlowIndex);
  // Enough weighted evidence to cross the default threshold of 2.0.
  cluster.namenode().report_slow_datanode(slow, 2.0);
  cluster.namenode().report_slow_datanode(slow, 2.0);
  ASSERT_TRUE(
      cluster.namenode().suspicion().suspect(slow, cluster.sim().now()));
  EXPECT_EQ(cluster.namenode().slow_node_reports(), 2u);

  // With healthy datanodes available, new pipelines route around the
  // suspect: demotion, not exclusion, but never chosen while clean peers
  // remain.
  const auto file = cluster.namenode().create("/suspect", ClientId{0});
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 4; ++i) {
    const auto result = cluster.namenode().add_block(
        file.value(), ClientId{0}, cluster.client_node(0), /*excluded=*/{});
    ASSERT_TRUE(result.ok());
    for (const NodeId target : result.value().targets) {
      EXPECT_NE(target, slow) << "suspect chosen for pipeline " << i;
    }
  }
}

// --- Hedged reads ------------------------------------------------------------

TEST(HedgedReadTest, HedgeFiresAndWinsUnderFailSlow) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = small_cluster(42);
  spec.hdfs.hedged_reads = true;
  Cluster cluster(spec);
  const auto up = cluster.run_upload("/f", 128 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(up.failed);

  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  const SimTime fault_at = cluster.sim().now() + seconds(1);
  injector.fail_slow(kSlowIndex, fault_at, fault_at + seconds(10'000),
                     /*disk_factor=*/8.0, /*nic_factor=*/8.0);
  cluster.sim().run_until(fault_at + milliseconds(1));

  int hedges = 0;
  int wins = 0;
  for (int i = 0; i < 4; ++i) {
    const auto read = cluster.run_download("/f");
    ASSERT_FALSE(read.failed);
    hedges += read.hedged_reads;
    wins += read.hedge_wins;
  }
  EXPECT_GE(hedges, 1);
  EXPECT_GE(wins, 1);
  // The namenode heard about the slow replica from decisive hedge wins.
  EXPECT_GE(cluster.namenode().slow_node_reports(), 1u);
  // Race settlement returned every hedge slot: no budget leak.
  EXPECT_DOUBLE_EQ(hedges_in_flight_gauge(), 0.0);
}

TEST(HedgedReadTest, BudgetZeroDeniesEveryHedge) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = small_cluster(42);
  spec.hdfs.hedged_reads = true;
  spec.hdfs.hedge_per_read_cap = 0;
  Cluster cluster(spec);
  const auto up = cluster.run_upload("/f", 128 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(up.failed);
  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  const SimTime fault_at = cluster.sim().now() + seconds(1);
  injector.fail_slow(kSlowIndex, fault_at, fault_at + seconds(10'000), 8.0,
                     8.0);
  cluster.sim().run_until(fault_at + milliseconds(1));
  const auto read = cluster.run_download("/f");
  ASSERT_FALSE(read.failed);
  EXPECT_EQ(read.hedged_reads, 0);
  EXPECT_GE(read.hedges_denied, 1);
  EXPECT_DOUBLE_EQ(hedges_in_flight_gauge(), 0.0);
}

TEST(HedgedReadTest, HealthyClusterFilesNoSuspicion) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = small_cluster(42);
  spec.hdfs.hedged_reads = true;
  Cluster cluster(spec);
  const auto up = cluster.run_upload("/f", 128 * kMiB, Protocol::kHdfs);
  ASSERT_FALSE(up.failed);
  for (int i = 0; i < 3; ++i) {
    const auto read = cluster.run_download("/f");
    ASSERT_FALSE(read.failed);
    // A cold-start hedge may launch before the gap baseline warms up, but
    // on a healthy cluster no win is decisive: zero suspicion reports.
    EXPECT_EQ(read.hedge_wins, 0);
  }
  EXPECT_EQ(cluster.namenode().slow_node_reports(), 0u);
  EXPECT_DOUBLE_EQ(hedges_in_flight_gauge(), 0.0);
}

// --- Write-pipeline slow-node eviction ---------------------------------------

TEST(SlowNodeEvictionTest, EvictsStragglerAndBeatsUndefended) {
  // The upload's stats and its write.slow_evictions count.
  const auto run = [](bool evict) {
    metrics::global_registry().reset();
    cluster::ClusterSpec spec = small_cluster(42);
    spec.hdfs.slow_node_eviction = evict;
    Cluster cluster(spec);
    faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
    injector.fail_slow(kSlowIndex, seconds(2), seconds(100'000),
                       /*disk_factor=*/8.0, /*nic_factor=*/8.0);
    const hdfs::StreamStats stats =
        cluster.run_upload("/f", 256 * kMiB, Protocol::kHdfs);
    return std::make_pair(stats, metrics::global_registry().counter_value(
                                     "write.slow_evictions"));
  };
  const auto [undefended, undefended_evictions] = run(false);
  const auto [defended, defended_evictions] = run(true);
  ASSERT_FALSE(undefended.failed);
  ASSERT_FALSE(defended.failed);
  EXPECT_EQ(undefended_evictions, 0u);
  EXPECT_GE(defended_evictions, 1u);
  // Eviction pays one pipeline recovery to remove the straggler; the
  // remaining blocks at full speed must amortize that cost.
  EXPECT_LT(to_seconds(defended.elapsed()), to_seconds(undefended.elapsed()));
}

TEST(SlowNodeEvictionTest, CleanRunEvictsNothing) {
  for (const Protocol protocol : {Protocol::kHdfs, Protocol::kSmarth}) {
    metrics::global_registry().reset();
    cluster::ClusterSpec spec = small_cluster(42);
    spec.hdfs.slow_node_eviction = true;
    Cluster cluster(spec);
    const auto stats = cluster.run_upload("/f", 256 * kMiB, protocol);
    ASSERT_FALSE(stats.failed);
    EXPECT_EQ(metrics::global_registry().counter_value("write.slow_evictions"),
              0u)
        << cluster::protocol_name(protocol) << " evicted on a healthy run";
    EXPECT_EQ(stats.recoveries, 0);
  }
}

// --- Determinism -------------------------------------------------------------

struct DefenseRun {
  SimDuration upload_elapsed = 0;
  std::uint64_t evictions = 0;
  int recoveries = 0;
  SimDuration read_elapsed = 0;
  int hedges = 0;
  int hedge_wins = 0;
  std::uint64_t slow_reports = 0;
};

DefenseRun run_defended(Protocol protocol, hdfs::DataFidelity fidelity) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = small_cluster(42);
  spec.hdfs.fidelity = fidelity;
  spec.hdfs.hedged_reads = true;
  spec.hdfs.slow_node_eviction = true;
  Cluster cluster(spec);
  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  injector.fail_slow(kSlowIndex, seconds(2), seconds(100'000), 8.0, 8.0);
  DefenseRun out;
  const auto up = cluster.run_upload("/f", 256 * kMiB, protocol);
  EXPECT_FALSE(up.failed);
  out.upload_elapsed = up.elapsed();
  out.evictions =
      metrics::global_registry().counter_value("write.slow_evictions");
  out.recoveries = up.recoveries;
  const auto read = cluster.run_download("/f");
  EXPECT_FALSE(read.failed);
  out.read_elapsed = read.elapsed();
  out.hedges = read.hedged_reads;
  out.hedge_wins = read.hedge_wins;
  out.slow_reports = cluster.namenode().slow_node_reports();
  return out;
}

/// Same seed, same spec -> bit-identical defense timeline, for both
/// protocols at both data-path fidelities. The defenses are driven entirely
/// by simulated clocks and seeded RNG, so any divergence is nondeterminism.
TEST(GrayFailureDeterminismTest, IdenticalTimelinesPerSeed) {
  for (const Protocol protocol : {Protocol::kHdfs, Protocol::kSmarth}) {
    for (const hdfs::DataFidelity fidelity :
         {hdfs::DataFidelity::kPacket, hdfs::DataFidelity::kBlock}) {
      const DefenseRun a = run_defended(protocol, fidelity);
      const DefenseRun b = run_defended(protocol, fidelity);
      const char* label = cluster::protocol_name(protocol);
      EXPECT_EQ(a.upload_elapsed, b.upload_elapsed) << label;
      EXPECT_EQ(a.evictions, b.evictions) << label;
      EXPECT_EQ(a.recoveries, b.recoveries) << label;
      EXPECT_EQ(a.read_elapsed, b.read_elapsed) << label;
      EXPECT_EQ(a.hedges, b.hedges) << label;
      EXPECT_EQ(a.hedge_wins, b.hedge_wins) << label;
      EXPECT_EQ(a.slow_reports, b.slow_reports) << label;
    }
  }
}

}  // namespace
}  // namespace smarth
