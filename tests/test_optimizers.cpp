// Unit tests for the SMARTH optimizers: the client-side speed tracker, the
// local optimization (paper Alg. 2) and the namenode's global optimization
// (paper Alg. 1).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hdfs/namenode.hpp"
#include "net/topology.hpp"
#include "smarth/global_optimizer.hpp"
#include "smarth/local_optimizer.hpp"
#include "smarth/speed_tracker.hpp"

namespace smarth::core {
namespace {

// --- SpeedTracker -------------------------------------------------------------

TEST(SpeedTracker, RecordsAndReports) {
  SpeedTracker tracker;
  EXPECT_FALSE(tracker.has_records());
  tracker.record(NodeId{1}, 64 * kMiB, seconds(2), seconds(2));
  ASSERT_TRUE(tracker.has_records());
  const auto speed = tracker.speed(NodeId{1});
  ASSERT_TRUE(speed.has_value());
  EXPECT_NEAR(speed->bits_per_second(), 64.0 * 1024 * 1024 * 8 / 2, 1.0);
}

TEST(SpeedTracker, LatestRecordWins) {
  SpeedTracker tracker;
  tracker.record(NodeId{1}, mib(10), seconds(1), seconds(1));
  tracker.record(NodeId{1}, mib(10), seconds(10), seconds(11));
  EXPECT_NEAR(tracker.speed(NodeId{1})->mbps(), 10.0 * 1.048576 * 8 / 10, 0.01);
}

TEST(SpeedTracker, DegenerateMeasurementsIgnored) {
  SpeedTracker tracker;
  tracker.record(NodeId{1}, 0, seconds(1), seconds(1));
  tracker.record(NodeId{1}, mib(1), 0, seconds(1));
  EXPECT_FALSE(tracker.has_records());
  EXPECT_EQ(tracker.samples(), 0u);
}

TEST(SpeedTracker, HeartbeatSnapshotHasOneRecordPerNode) {
  SpeedTracker tracker;
  tracker.record(NodeId{1}, mib(1), seconds(1), seconds(1));
  tracker.record(NodeId{2}, mib(1), seconds(1), seconds(1));
  tracker.record(NodeId{1}, mib(2), seconds(1), seconds(2));
  const auto records = tracker.heartbeat_records();
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(tracker.datanode_count(), 2u);
  EXPECT_EQ(tracker.samples(), 3u);
}

// --- Local optimizer (Alg. 2) ---------------------------------------------------

class LocalOptTest : public ::testing::Test {
 protected:
  SpeedTracker tracker_;
  Rng rng_{42};
};

TEST_F(LocalOptTest, SortsByMeasuredSpeedDescending) {
  tracker_.record(NodeId{1}, mib(1), seconds(10), 1);  // slow
  tracker_.record(NodeId{2}, mib(1), seconds(1), 1);   // fast
  tracker_.record(NodeId{3}, mib(1), seconds(5), 1);   // middle
  // threshold 1.0 => never explores, pure sort.
  const auto result =
      local_optimize({NodeId{1}, NodeId{3}, NodeId{2}}, tracker_, rng_, 1.0);
  EXPECT_EQ(result.targets,
            (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{1}}));
  EXPECT_TRUE(result.sorted_changed_order);
  EXPECT_FALSE(result.exploration_swap);
}

TEST_F(LocalOptTest, UnmeasuredNodesSortLast) {
  tracker_.record(NodeId{1}, mib(1), seconds(10), 1);
  const auto result =
      local_optimize({NodeId{9}, NodeId{1}}, tracker_, rng_, 1.0);
  EXPECT_EQ(result.targets, (std::vector<NodeId>{NodeId{1}, NodeId{9}}));
}

TEST_F(LocalOptTest, ExplorationSwapRate) {
  tracker_.record(NodeId{1}, mib(1), seconds(1), 1);
  tracker_.record(NodeId{2}, mib(1), seconds(2), 1);
  tracker_.record(NodeId{3}, mib(1), seconds(3), 1);
  int swaps = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    const auto result = local_optimize({NodeId{1}, NodeId{2}, NodeId{3}},
                                       tracker_, rng_, 0.8);
    if (result.exploration_swap) {
      ++swaps;
      EXPECT_NE(result.targets[0], NodeId{1});  // head was swapped away
      EXPECT_GE(result.swap_index, 1);
      EXPECT_LE(result.swap_index, 2);
    } else {
      EXPECT_EQ(result.targets[0], NodeId{1});
    }
  }
  // Paper: swap probability = 1 - threshold = 0.2.
  EXPECT_NEAR(static_cast<double>(swaps) / trials, 0.2, 0.02);
}

TEST_F(LocalOptTest, SwapPreservesMembership) {
  tracker_.record(NodeId{1}, mib(1), seconds(1), 1);
  for (int i = 0; i < 100; ++i) {
    const std::vector<NodeId> in{NodeId{1}, NodeId{2}, NodeId{3}};
    const auto result = local_optimize(in, tracker_, rng_, 0.5);
    std::multiset<std::int64_t> a, b;
    for (NodeId n : in) a.insert(n.value());
    for (NodeId n : result.targets) b.insert(n.value());
    EXPECT_EQ(a, b);
  }
}

TEST_F(LocalOptTest, SingleTargetUntouched) {
  const auto result = local_optimize({NodeId{7}}, tracker_, rng_, 0.0);
  EXPECT_EQ(result.targets, (std::vector<NodeId>{NodeId{7}}));
  EXPECT_FALSE(result.exploration_swap);
}

// --- Global optimizer (Alg. 1) --------------------------------------------------

class GlobalOptTest : public ::testing::Test {
 protected:
  GlobalOptTest() {
    for (int i = 0; i < 9; ++i) {
      alive_.push_back(topo_.add_host("dn" + std::to_string(i),
                                      i < 5 ? "/rack0" : "/rack1"));
    }
    client_node_ = topo_.add_host("client", "/rack0");
  }

  hdfs::PlacementContext ctx() {
    index_.assign(topo_, alive_);
    return hdfs::PlacementContext{topo_, index_, rng_, &board_};
  }

  hdfs::PlacementRequest request() {
    hdfs::PlacementRequest r;
    r.client = client_;
    r.client_node = client_node_;
    r.replication = 3;
    return r;
  }

  void report(NodeId dn, double mbps) {
    board_.update(client_, {dn, Bandwidth::mbps(mbps), 1});
  }

  net::Topology topo_;
  std::vector<NodeId> alive_;
  hdfs::AliveIndex index_;
  Rng rng_{42};
  hdfs::SpeedBoard board_;
  ClientId client_{0};
  NodeId client_node_;
  GlobalOptimizerPolicy policy_;
};

TEST_F(GlobalOptTest, FallsBackWithoutRecords) {
  auto c = ctx();
  const auto targets = policy_.choose_targets(request(), c);
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_EQ(policy_.fallback_placements(), 1u);
  EXPECT_EQ(policy_.optimized_placements(), 0u);
}

TEST_F(GlobalOptTest, FirstNodeDrawnFromTopN) {
  // 9 alive / replication 3 => n = 3. Mark three nodes fast.
  report(alive_[2], 300);
  report(alive_[6], 250);
  report(alive_[8], 200);
  report(alive_[0], 10);
  report(alive_[1], 5);
  for (int trial = 0; trial < 100; ++trial) {
    auto c = ctx();
    const auto targets = policy_.choose_targets(request(), c);
    ASSERT_EQ(targets.size(), 3u);
    const bool head_is_fast = targets[0] == alive_[2] ||
                              targets[0] == alive_[6] ||
                              targets[0] == alive_[8];
    EXPECT_TRUE(head_is_fast) << "head " << targets[0].value();
  }
  EXPECT_EQ(policy_.optimized_placements(), 100u);
}

TEST_F(GlobalOptTest, RackRuleStillHolds) {
  report(alive_[2], 300);
  for (int trial = 0; trial < 50; ++trial) {
    auto c = ctx();
    const auto targets = policy_.choose_targets(request(), c);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_FALSE(topo_.same_rack(targets[0], targets[1]));
    EXPECT_TRUE(topo_.same_rack(targets[1], targets[2]));
  }
}

TEST_F(GlobalOptTest, ExclusionsForceAlternatives) {
  report(alive_[2], 300);
  hdfs::PlacementRequest r = request();
  r.excluded = {alive_[2]};
  for (int trial = 0; trial < 20; ++trial) {
    auto c = ctx();
    const auto targets = policy_.choose_targets(r, c);
    ASSERT_EQ(targets.size(), 3u);
    for (NodeId t : targets) EXPECT_NE(t, alive_[2]);
  }
}

TEST_F(GlobalOptTest, TopNFillsWithUnmeasuredNodes) {
  report(alive_[4], 100);  // only one measured node, n = 3
  auto c = ctx();
  const auto top = GlobalOptimizerPolicy::top_n_for_client(request(), c, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], alive_[4]);  // measured node first
}

TEST_F(GlobalOptTest, TopNOrdersBySpeed) {
  report(alive_[1], 50);
  report(alive_[3], 150);
  report(alive_[5], 100);
  auto c = ctx();
  const auto top = GlobalOptimizerPolicy::top_n_for_client(request(), c, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], alive_[3]);
  EXPECT_EQ(top[1], alive_[5]);
  EXPECT_EQ(top[2], alive_[1]);
}

TEST_F(GlobalOptTest, DeadFastNodeNotChosen) {
  report(alive_[0], 500);
  // Node 0 has records but is no longer in the alive set.
  const hdfs::AliveIndex alive_subset(topo_,
                                      {alive_.begin() + 1, alive_.end()});
  hdfs::PlacementContext c{topo_, alive_subset, rng_, &board_};
  for (int trial = 0; trial < 20; ++trial) {
    const auto targets = policy_.choose_targets(request(), c);
    for (NodeId t : targets) EXPECT_NE(t, alive_[0]);
  }
}

}  // namespace
}  // namespace smarth::core
