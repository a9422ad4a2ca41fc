#include "hdfs/namenode.hpp"

#include <gtest/gtest.h>

#include "hdfs/edit_log.hpp"
#include "hdfs/fsimage.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {
namespace {

class NamenodeTest : public ::testing::Test {
 protected:
  NamenodeTest() {
    // Counters are read from the registry; start each test with it empty.
    metrics::global_registry().reset();
    nn_node_ = topo_.add_host("nn", "/rack0");
    for (int i = 0; i < 6; ++i) {
      dns_.push_back(topo_.add_host("dn" + std::to_string(i),
                                    i < 3 ? "/rack0" : "/rack1"));
    }
    client_node_ = topo_.add_host("client", "/rack0");
    nn_ = std::make_unique<Namenode>(sim_, topo_, config_, nn_node_);
    for (NodeId dn : dns_) nn_->register_datanode(dn);
  }

  Result<LocatedBlock> add_block(FileId file) {
    return nn_->add_block(file, client_, client_node_, {});
  }

  sim::Simulation sim_;
  net::Topology topo_;
  HdfsConfig config_;
  NodeId nn_node_, client_node_;
  std::vector<NodeId> dns_;
  ClientId client_{0};
  std::unique_ptr<Namenode> nn_;
};

TEST_F(NamenodeTest, CreateChecksPath) {
  EXPECT_FALSE(nn_->create("", client_).ok());
  EXPECT_FALSE(nn_->create("relative/path", client_).ok());
  EXPECT_TRUE(nn_->create("/ok", client_).ok());
}

TEST_F(NamenodeTest, CreateRejectsDuplicates) {
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  // Same client, file still under construction: treated as a retry of a
  // create() whose response was lost — returns the existing entry.
  const auto retried = nn_->create("/a", client_);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), file.value());
  // A different client is a genuine conflict.
  const auto other = nn_->create("/a", ClientId{1});
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.error().code, "file_exists");
  // Once closed, even the original creator cannot re-create the path.
  const auto located = add_block(file.value());
  ASSERT_TRUE(located.ok());
  nn_->block_received(located.value().targets[0], located.value().block, 1);
  ASSERT_TRUE(nn_->complete(file.value(), client_).value());
  const auto closed_dup = nn_->create("/a", client_);
  ASSERT_FALSE(closed_dup.ok());
  EXPECT_EQ(closed_dup.error().code, "file_exists");
}

TEST_F(NamenodeTest, SafeModeBlocksWrites) {
  nn_->set_safe_mode(true);
  EXPECT_EQ(nn_->create("/a", client_).error().code, "safe_mode");
  nn_->set_safe_mode(false);
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  nn_->set_safe_mode(true);
  EXPECT_EQ(add_block(file.value()).error().code, "safe_mode");
}

TEST_F(NamenodeTest, AddBlockAllocatesDistinctTargets) {
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  const auto located = add_block(file.value());
  ASSERT_TRUE(located.ok());
  const auto& targets = located.value().targets;
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_NE(targets[0], targets[1]);
  EXPECT_NE(targets[1], targets[2]);
  EXPECT_NE(targets[0], targets[2]);
}

TEST_F(NamenodeTest, AddBlockRequiresLease) {
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  const auto foreign =
      nn_->add_block(file.value(), ClientId{99}, client_node_, {});
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.error().code, "lease_mismatch");
}

TEST_F(NamenodeTest, AddBlockHonoursExclusions) {
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  // Exclude three nodes; allocation must avoid them.
  std::vector<NodeId> excluded{dns_[0], dns_[1], dns_[2]};
  const auto located =
      nn_->add_block(file.value(), client_, client_node_, excluded);
  ASSERT_TRUE(located.ok());
  for (NodeId t : located.value().targets) {
    for (NodeId e : excluded) EXPECT_NE(t, e);
  }
}

TEST_F(NamenodeTest, AddBlockFailsWhenPoolExhausted) {
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  // Exclude all but two nodes: replication 3 cannot be satisfied.
  std::vector<NodeId> excluded(dns_.begin(), dns_.end() - 2);
  const auto located =
      nn_->add_block(file.value(), client_, client_node_, excluded);
  ASSERT_FALSE(located.ok());
  EXPECT_EQ(located.error().code, "insufficient_datanodes");
}

TEST_F(NamenodeTest, CompleteRequiresReportedBlocks) {
  const auto file = nn_->create("/a", client_);
  ASSERT_TRUE(file.ok());
  const auto located = add_block(file.value());
  ASSERT_TRUE(located.ok());
  // Not reported yet: complete() is retryable-false.
  auto completion = nn_->complete(file.value(), client_);
  ASSERT_TRUE(completion.ok());
  EXPECT_FALSE(completion.value());
  // After one replica reports, completion succeeds.
  nn_->block_received(located.value().targets[0], located.value().block,
                      config_.block_size);
  completion = nn_->complete(file.value(), client_);
  ASSERT_TRUE(completion.ok());
  EXPECT_TRUE(completion.value());
  EXPECT_EQ(nn_->file(file.value())->state, FileState::kClosed);
  // Idempotent.
  EXPECT_TRUE(nn_->complete(file.value(), client_).value());
}

TEST_F(NamenodeTest, AddBlockOnClosedFileFails) {
  const auto file = nn_->create("/a", client_);
  const auto located = add_block(file.value());
  nn_->block_received(located.value().targets[0], located.value().block, 1);
  ASSERT_TRUE(nn_->complete(file.value(), client_).value());
  EXPECT_EQ(add_block(file.value()).error().code, "file_closed");
}

TEST_F(NamenodeTest, HeartbeatLiveness) {
  EXPECT_TRUE(nn_->is_alive(dns_[0]));
  // Advance past the dead interval without heartbeats.
  sim_.run_until(config_.datanode_dead_interval + seconds(1));
  EXPECT_FALSE(nn_->is_alive(dns_[0]));
  nn_->handle_heartbeat(dns_[0]);
  EXPECT_TRUE(nn_->is_alive(dns_[0]));
  EXPECT_EQ(nn_->alive_datanodes().size(), 1u);
}

// Brute-force liveness: registration order and last contact per node, kept
// by the test itself, recomputed in full at every check.
class LivenessModel {
 public:
  void contact(NodeId dn, SimTime now) {
    if (last_.count(dn) == 0) order_.push_back(dn);
    last_[dn] = now;
  }
  void heartbeat(NodeId dn, SimTime now) {
    if (last_.count(dn) > 0) last_[dn] = now;
  }
  void forget_all() {
    order_.clear();
    last_.clear();
  }
  std::vector<NodeId> alive(SimTime now, SimDuration dead_interval) const {
    std::vector<NodeId> out;
    for (NodeId dn : order_) {
      if (now - last_.at(dn) <= dead_interval) out.push_back(dn);
    }
    return out;
  }

 private:
  std::vector<NodeId> order_;
  std::unordered_map<NodeId, SimTime> last_;
};

TEST_F(NamenodeTest, AliveIndexMatchesBruteForceAcrossTransitions) {
  LivenessModel model;
  for (NodeId dn : dns_) model.contact(dn, 0);
  const SimDuration dead = config_.datanode_dead_interval;
  const auto check = [&](const char* step) {
    const std::vector<NodeId> expected = model.alive(sim_.now(), dead);
    EXPECT_EQ(nn_->alive_datanodes(), expected) << step;
    for (NodeId dn : dns_) {
      const bool listed = std::find(expected.begin(), expected.end(), dn) !=
                          expected.end();
      EXPECT_EQ(nn_->is_alive(dn), listed) << step << " dn " << dn.value();
    }
  };
  const auto advance_to = [&](SimTime t) { sim_.run_until(t); };
  const auto heartbeat = [&](NodeId dn) {
    nn_->handle_heartbeat(dn);
    model.heartbeat(dn, sim_.now());
  };
  check("registered");

  // dns_[5] goes silent; the others heartbeat at 5 s.
  advance_to(seconds(5));
  for (std::size_t i = 0; i < 5; ++i) heartbeat(dns_[i]);
  check("heartbeats at 5 s");
  advance_to(dead);
  check("silent node at its deadline");
  advance_to(dead + 1);
  check("silent node just past its deadline");
  ASSERT_EQ(nn_->alive_datanodes().size(), 5u);

  // It comes back with a heartbeat and keeps its registration position.
  advance_to(seconds(17));
  heartbeat(dns_[5]);
  check("expired node heartbeats again");
  ASSERT_EQ(nn_->alive_datanodes().back(), dns_[5]);

  // The 5 s heartbeaters expire; dns_[2] re-registers.
  advance_to(seconds(5) + dead + 1);
  check("5 s heartbeaters expired");
  advance_to(seconds(22));
  nn_->register_datanode(dns_[2]);
  model.contact(dns_[2], sim_.now());
  check("re-registration");

  // A namenode crash, everything expires during the outage, then a late
  // heartbeat reaches the crashed process.
  advance_to(seconds(23));
  nn_->crash();
  advance_to(seconds(40));
  check("expired during the outage");
  heartbeat(dns_[3]);
  check("late heartbeat to the crashed namenode");

  // Restart drops every registration: heartbeats are refused until the
  // datanodes re-register, in a new order.
  const NamenodeImage image = nn_->capture_image();
  advance_to(seconds(41));
  nn_->restart(image, {});
  model.forget_all();
  check("restart");
  EXPECT_FALSE(nn_->handle_heartbeat(dns_[0]));
  check("heartbeat from an unregistered node");
  for (NodeId dn : {dns_[4], dns_[1], dns_[0]}) {
    nn_->register_datanode(dn);
    model.contact(dn, sim_.now());
  }
  check("re-registered after restart");
  EXPECT_EQ(nn_->alive_datanodes(),
            (std::vector<NodeId>{dns_[4], dns_[1], dns_[0]}));
}

TEST_F(NamenodeTest, DeadNodesNotPlaced) {
  sim_.run_until(config_.datanode_dead_interval + seconds(1));
  for (int i = 0; i < 3; ++i) nn_->handle_heartbeat(dns_[static_cast<size_t>(i)]);
  const auto file = nn_->create("/a", client_);
  const auto located = add_block(file.value());
  ASSERT_TRUE(located.ok());
  for (NodeId t : located.value().targets) {
    EXPECT_TRUE(nn_->is_alive(t));
  }
}

TEST_F(NamenodeTest, GetAdditionalDatanodesExcludesExisting) {
  const auto file = nn_->create("/a", client_);
  const auto located = add_block(file.value());
  ASSERT_TRUE(located.ok());
  const auto extra = nn_->get_additional_datanodes(
      located.value().block, client_, client_node_, located.value().targets,
      {}, 2);
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra.value().size(), 2u);
  for (NodeId n : extra.value()) {
    for (NodeId t : located.value().targets) EXPECT_NE(n, t);
  }
}

TEST_F(NamenodeTest, UpdateBlockTargets) {
  const auto file = nn_->create("/a", client_);
  const auto located = add_block(file.value());
  std::vector<NodeId> fresh{dns_[3], dns_[4], dns_[5]};
  ASSERT_TRUE(nn_->update_block_targets(located.value().block, fresh).ok());
  EXPECT_EQ(nn_->block(located.value().block)->expected_targets, fresh);
  EXPECT_FALSE(nn_->update_block_targets(BlockId{999}, fresh).ok());
}

TEST_F(NamenodeTest, SpeedBoardStoresLatestPerDatanode) {
  SpeedRecord r1{dns_[0], Bandwidth::mbps(100), 10};
  SpeedRecord r2{dns_[0], Bandwidth::mbps(50), 20};
  nn_->report_client_speeds(client_, {r1});
  nn_->report_client_speeds(client_, {r2});
  const auto speed = nn_->speed_board().speed(client_, dns_[0]);
  ASSERT_TRUE(speed.has_value());
  EXPECT_DOUBLE_EQ(speed->mbps(), 50.0);  // newer record wins
  // Stale record does not overwrite a newer one.
  nn_->report_client_speeds(client_, {r1});
  EXPECT_DOUBLE_EQ(nn_->speed_board().speed(client_, dns_[0])->mbps(), 50.0);
}

TEST_F(NamenodeTest, SpeedBoardPerClientIsolation) {
  nn_->report_client_speeds(client_, {{dns_[0], Bandwidth::mbps(10), 1}});
  EXPECT_TRUE(nn_->speed_board().has_records(client_));
  EXPECT_FALSE(nn_->speed_board().has_records(ClientId{5}));
  EXPECT_FALSE(nn_->speed_board().speed(ClientId{5}, dns_[0]).has_value());
}

TEST_F(NamenodeTest, BlockReceivedForUnknownBlockIsIgnored) {
  nn_->block_received(dns_[0], BlockId{777}, 1);  // must not throw
  EXPECT_EQ(nn_->block_count(), 0u);
}

TEST_F(NamenodeTest, ReregistrationIsIdempotent) {
  const auto file = nn_->create("/a", client_);
  const auto located = add_block(file.value());
  ASSERT_TRUE(located.ok());
  const BlockId block = located.value().block;
  for (NodeId t : located.value().targets) {
    nn_->block_received(t, block, config_.block_size);
  }
  ASSERT_EQ(nn_->block(block)->reported.size(), 3u);
  const std::size_t registered = nn_->registered_datanode_count();

  // Re-registering a known datanode must not duplicate the membership entry;
  // it drops that node's (now stale) replica claims and restarts its
  // heartbeat clock. Doing it twice is the same as doing it once.
  const NodeId dn = located.value().targets[0];
  nn_->register_datanode(dn);
  nn_->register_datanode(dn);
  EXPECT_EQ(nn_->registered_datanode_count(), registered);
  EXPECT_EQ(
      metrics::global_registry().counter_value("namenode.reregistrations"),
      2u);
  EXPECT_TRUE(nn_->is_alive(dn));
  EXPECT_EQ(nn_->block(block)->reported.count(dn), 0u);
  // The other replicas' claims are untouched.
  EXPECT_EQ(nn_->block(block)->reported.size(), 2u);
  // The follow-up block report re-asserts the replica.
  nn_->block_received(dn, block, config_.block_size);
  EXPECT_EQ(nn_->block(block)->reported.size(), 3u);
}

TEST_F(NamenodeTest, SafeModeTimeoutExitIsCountedInRegistry) {
  // Restarted with none of its six datanodes re-registered, the namenode
  // can only leave safe mode through the safe_mode_max_wait timeout.
  const NamenodeImage image = nn_->capture_image();
  nn_->crash();
  nn_->restart(image, {});
  ASSERT_TRUE(nn_->safe_mode());
  sim_.run_until(sim_.now() + config_.safe_mode_max_wait + seconds(1));
  EXPECT_FALSE(nn_->safe_mode());
  EXPECT_EQ(
      metrics::global_registry().counter_value("namenode.safe_mode_exits"),
      1u);
}

TEST(EditLogJson, PathIsEscaped) {
  EditLog log;
  EditOp op;
  op.type = EditOpType::kCreate;
  op.path = "/a\"b\\c\nd";
  log.append(op);
  const std::string json = log.to_json();
  EXPECT_NE(json.find(R"("path": "/a\"b\\c\nd")"), std::string::npos)
      << json;
}

TEST_F(NamenodeTest, ImageJsonEscapesPaths) {
  ASSERT_TRUE(nn_->create("/a\"b\\c\nd", client_).ok());
  const std::string json = nn_->capture_image().to_json();
  EXPECT_NE(json.find(R"("path": "/a\"b\\c\nd")"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace smarth::hdfs
