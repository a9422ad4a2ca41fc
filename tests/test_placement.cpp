// Unit tests for the replica placement policies: the stock HDFS rack-aware
// rule and its helpers. (The SMARTH global optimizer has its own suite.)
#include "hdfs/placement.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace smarth::hdfs {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() {
    for (int i = 0; i < 8; ++i) {
      alive_.push_back(topo_.add_host("dn" + std::to_string(i),
                                      i < 4 ? "/rack0" : "/rack1"));
    }
    client_node_ = topo_.add_host("client", "/rack0");
  }

  PlacementContext ctx() {
    index_.assign(topo_, alive_);
    return PlacementContext{topo_, index_, rng_, nullptr};
  }

  PlacementRequest request(int replication = 3) {
    PlacementRequest r;
    r.client = ClientId{0};
    r.client_node = client_node_;
    r.replication = replication;
    return r;
  }

  net::Topology topo_;
  std::vector<NodeId> alive_;
  AliveIndex index_;
  Rng rng_{42};
  NodeId client_node_;
  DefaultPlacementPolicy policy_;
};

TEST_F(PlacementTest, RackAwareTriple) {
  for (int trial = 0; trial < 50; ++trial) {
    auto c = ctx();
    const auto targets = policy_.choose_targets(request(), c);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_FALSE(topo_.same_rack(targets[0], targets[1]));
    EXPECT_TRUE(topo_.same_rack(targets[1], targets[2]));
    EXPECT_NE(targets[1], targets[2]);
  }
}

TEST_F(PlacementTest, ClientDatanodeGetsFirstReplica) {
  // When the writer itself is a datanode, replica 1 lands on it.
  auto c = ctx();
  PlacementRequest r = request();
  r.client_node = alive_[2];
  const auto targets = policy_.choose_targets(r, c);
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_EQ(targets[0], alive_[2]);
}

TEST_F(PlacementTest, NonDatanodeClientGetsRandomFirst) {
  auto c = ctx();
  const auto targets = policy_.choose_targets(request(), c);
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_NE(targets[0], client_node_);
}

TEST_F(PlacementTest, ExclusionsRespected) {
  PlacementRequest r = request();
  r.excluded = {alive_[0], alive_[1], alive_[2], alive_[3]};  // all of rack0
  for (int trial = 0; trial < 20; ++trial) {
    auto c = ctx();
    const auto targets = policy_.choose_targets(r, c);
    ASSERT_EQ(targets.size(), 3u);
    for (NodeId t : targets) {
      EXPECT_EQ(topo_.rack_of(t), "/rack1");
    }
  }
}

TEST_F(PlacementTest, SingleRackFallback) {
  // Only rack0 nodes alive: the remote-rack rule must degrade gracefully.
  const AliveIndex rack0(topo_, {alive_.begin(), alive_.begin() + 4});
  PlacementContext c{topo_, rack0, rng_, nullptr};
  const auto targets = policy_.choose_targets(request(), c);
  ASSERT_EQ(targets.size(), 3u);
  for (NodeId t : targets) EXPECT_EQ(topo_.rack_of(t), "/rack0");
}

TEST_F(PlacementTest, InsufficientNodesReturnsPartial) {
  const AliveIndex two(topo_, {alive_.begin(), alive_.begin() + 2});
  PlacementContext c{topo_, two, rng_, nullptr};
  const auto targets = policy_.choose_targets(request(), c);
  EXPECT_EQ(targets.size(), 2u);
}

TEST_F(PlacementTest, HigherReplicationFills) {
  auto c = ctx();
  const auto targets = policy_.choose_targets(request(5), c);
  ASSERT_EQ(targets.size(), 5u);
  // All distinct.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (std::size_t j = i + 1; j < targets.size(); ++j) {
      EXPECT_NE(targets[i], targets[j]);
    }
  }
}

TEST_F(PlacementTest, FirstReplicaSpreadsAcrossNodes) {
  // With a non-datanode client, replica 1 should hit many distinct nodes.
  std::set<std::int64_t> firsts;
  for (int trial = 0; trial < 200; ++trial) {
    auto c = ctx();
    const auto targets = policy_.choose_targets(request(), c);
    firsts.insert(targets[0].value());
  }
  EXPECT_GE(firsts.size(), 6u);
}

TEST_F(PlacementTest, HelperPickRandomHonoursPredicate) {
  auto c = ctx();
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId pick =
        pick_random_node(c, {}, {}, RackFilter::same_as(alive_[4]));
    ASSERT_TRUE(pick.valid());
    EXPECT_EQ(topo_.rack_of(pick), "/rack1");
  }
}

TEST_F(PlacementTest, HelperReturnsInvalidWhenNoCandidate) {
  auto c = ctx();
  const NodeId pick =
      pick_random_node(c, {}, alive_);  // everything excluded
  EXPECT_FALSE(pick.valid());
}

TEST_F(PlacementTest, PlacementUnusable) {
  EXPECT_TRUE(placement_unusable(alive_[0], {alive_[0]}, {}));
  EXPECT_TRUE(placement_unusable(alive_[1], {}, {alive_[1]}));
  EXPECT_FALSE(placement_unusable(alive_[2], {alive_[0]}, {alive_[1]}));
}

}  // namespace
}  // namespace smarth::hdfs
