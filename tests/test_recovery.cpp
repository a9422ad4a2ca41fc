// Unit tests of BlockRecovery (paper Alg. 3's core) against a hand-built
// mini cluster: survivor classification, sync-point computation and
// clamping, checksum-offender exclusion, replacement seeding, primary
// rotation, and the unreachable-replacement fallback.
#include "hdfs/recovery.hpp"

#include <gtest/gtest.h>

#include "hdfs/datanode.hpp"
#include "hdfs/transport.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : sim_(1), net_(sim_) {
    config_.packet_payload = 64 * kKiB;
    config_.block_size = 8 * config_.packet_payload;
    nn_node_ = net_.add_node("nn", "/r0", Bandwidth::mbps(1000));
    client_node_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    for (int i = 0; i < 5; ++i) {
      dn_nodes_.push_back(net_.add_node("dn" + std::to_string(i),
                                        i < 3 ? "/r0" : "/r1",
                                        Bandwidth::mbps(1000)));
    }
    SinkResolver resolver;
    resolver.packet_sink = [this](NodeId node) -> PacketSink* {
      return datanode_of(node);
    };
    resolver.ack_sink = [](NodeId, PipelineId) -> AckSink* { return nullptr; };
    transport_ = std::make_unique<Transport>(net_, config_, resolver);
    namenode_ = std::make_unique<Namenode>(sim_, net_.topology(), config_,
                                           nn_node_);
    for (NodeId node : dn_nodes_) {
      auto dn = std::make_unique<Datanode>(sim_, *transport_, rpc_, *namenode_,
                                           config_, node);
      dn->set_peer_resolver(
          [this](NodeId peer) -> Datanode* { return datanode_of(peer); });
      dn->start();
      dns_.push_back(std::move(dn));
    }
    deps_ = std::make_unique<StreamDeps>(StreamDeps{
        sim_, *transport_, rpc_, *namenode_, config_, pipeline_ids_,
        [this](NodeId node) -> Datanode* { return datanode_of(node); },
        quarantine_});
  }

  Datanode* datanode_of(NodeId node) {
    for (std::size_t i = 0; i < dn_nodes_.size(); ++i) {
      if (dn_nodes_[i] == node) return dns_[i].get();
    }
    return nullptr;
  }

  /// Gives datanode `i` an open replica with `packets` stored packets.
  void stage_replica(std::size_t i, BlockId block, int packets) {
    auto& store = const_cast<storage::BlockStore&>(dns_[i]->block_store());
    ASSERT_TRUE(store.create_replica(block).ok());
    ASSERT_TRUE(store.append(block, packets * config_.packet_payload).ok());
  }

  /// Runs a recovery over targets (by index) and returns the outcome.
  Result<RecoveryOutcome> run_recovery(BlockId block,
                                       std::vector<std::size_t> target_idx,
                                       int error_index = -1,
                                       Bytes durable_floor = 0) {
    std::vector<NodeId> targets;
    for (std::size_t i : target_idx) targets.push_back(dn_nodes_[i]);
    std::optional<Result<RecoveryOutcome>> result;
    // The namenode must consider the block allocated.
    auto file = namenode_->create("/f" + std::to_string(block.value()),
                                  ClientId{0});
    BlockRecovery recovery(
        *deps_, ClientId{0}, client_node_, PipelineId{99}, block,
        config_.block_size, durable_floor, targets, error_index,
        [&result](Result<RecoveryOutcome> r) { result = std::move(r); });
    recovery.run();
    sim_.run_until_done([&result] { return result.has_value(); },
                        seconds(500));
    (void)file;
    return result.value();
  }

  sim::Simulation sim_;
  net::Network net_;
  HdfsConfig config_;
  rpc::RpcBus rpc_{net_};
  NodeId nn_node_, client_node_;
  std::vector<NodeId> dn_nodes_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<Namenode> namenode_;
  std::vector<std::unique_ptr<Datanode>> dns_;
  IdGenerator<PipelineId> pipeline_ids_;
  std::unique_ptr<StreamDeps> deps_;
  QuarantineList quarantine_{sim_, seconds(60)};
};

TEST_F(RecoveryTest, SyncsSurvivorsToMinimumLength) {
  const BlockId block{7};
  stage_replica(0, block, 5);
  stage_replica(1, block, 3);
  stage_replica(2, block, 4);
  const auto outcome = run_recovery(block, {0, 1, 2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().sync_offset, 3 * config_.packet_payload);
  EXPECT_EQ(outcome.value().targets.size(), 3u);
  for (std::size_t i : {0u, 1u, 2u}) {
    EXPECT_EQ(dns_[i]->block_store().replica(block).value().bytes,
              3 * config_.packet_payload);
  }
}

TEST_F(RecoveryTest, StaleReplicaBelowDurableFloorIsReplaced) {
  // dn1 crashed and restarted mid-write, losing its in-progress replica. The
  // client only buffers packets from the durable floor onward, so a survivor
  // below the floor cannot resync — it must drop out (and be quarantined)
  // instead of dragging the sync offset to zero and wedging the stream.
  const auto file = namenode_->create("/stale", ClientId{0});
  ASSERT_TRUE(file.ok());
  const auto located =
      namenode_->add_block(file.value(), ClientId{0}, client_node_, {});
  ASSERT_TRUE(located.ok());
  const BlockId block = located.value().block;
  stage_replica(0, block, 6);
  stage_replica(1, block, 1);  // below the 4-packet floor: stale
  stage_replica(2, block, 5);
  const auto outcome = run_recovery(block, {0, 1, 2}, /*error_index=*/-1,
                                    /*durable_floor=*/4 *
                                        config_.packet_payload);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.value().sync_offset, 4 * config_.packet_payload);
  for (NodeId target : outcome.value().targets) {
    EXPECT_NE(target, dn_nodes_[1]);
  }
  EXPECT_GE(quarantine_.events().size(), 1u);
  EXPECT_TRUE(quarantine_.quarantined(dn_nodes_[1]));
}

TEST_F(RecoveryTest, DeadTargetReplacedAndSeeded) {
  // Replacement lookup goes through the namenode, so the block must be a
  // registered one (staged-only ids would get "block_not_found").
  const auto file = namenode_->create("/seeded", ClientId{0});
  ASSERT_TRUE(file.ok());
  const auto located =
      namenode_->add_block(file.value(), ClientId{0}, client_node_, {});
  ASSERT_TRUE(located.ok());
  const BlockId block = located.value().block;
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  stage_replica(2, block, 4);
  dns_[2]->crash();
  const auto outcome = run_recovery(block, {0, 1, 2});
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().targets.size(), 3u);
  // Replacement is a fresh node (3 or 4) holding the synced prefix.
  const NodeId replacement = outcome.value().targets[2];
  EXPECT_TRUE(replacement == dn_nodes_[3] || replacement == dn_nodes_[4]);
  Datanode* dn = datanode_of(replacement);
  EXPECT_EQ(dn->block_store().replica(block).value().bytes,
            outcome.value().sync_offset);
}

TEST_F(RecoveryTest, ChecksumOffenderExcludedEvenThoughAlive) {
  const BlockId block{7};
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  stage_replica(2, block, 4);
  const auto outcome = run_recovery(block, {0, 1, 2}, /*error_index=*/1);
  ASSERT_TRUE(outcome.ok());
  for (NodeId target : outcome.value().targets) {
    EXPECT_NE(target, dn_nodes_[1]);
  }
}

TEST_F(RecoveryTest, SyncClampedToLastPacketStart) {
  // All survivors hold the complete block; recovery must still leave the
  // final packet to retransmit so the rebuilt pipeline can finalize.
  const BlockId block{7};
  stage_replica(0, block, 8);
  stage_replica(1, block, 8);
  const auto outcome = run_recovery(block, {0, 1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().sync_offset,
            config_.block_size - config_.packet_payload);
}

TEST_F(RecoveryTest, SurvivorWithoutReplicaResumesFromZero) {
  // dn1 never received the setup (its upstream died first): alive but no
  // replica. It stays in the pipeline and everyone syncs to zero.
  const BlockId block{7};
  stage_replica(0, block, 4);
  const auto outcome = run_recovery(block, {0, 1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().sync_offset, 0);
  EXPECT_EQ(outcome.value().targets.size(), 2u);
  EXPECT_TRUE(dns_[1]->block_store().has_replica(block));
}

TEST_F(RecoveryTest, AllTargetsDeadFails) {
  const BlockId block{7};
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  dns_[0]->crash();
  dns_[1]->crash();
  const auto outcome = run_recovery(block, {0, 1});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, "recovery_failed");
}

TEST_F(RecoveryTest, UnreachableReplacementDroppedNotFatal) {
  // Only dead nodes remain as replacement candidates behind a partition:
  // the prefix copy times out, the replacement is dropped, and recovery
  // still succeeds with the survivors (under-replicated, not failed).
  config_.replacement_transfer_timeout = seconds(2);
  const BlockId block{7};
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  stage_replica(2, block, 4);
  dns_[2]->crash();
  // Partition r1 away AFTER the namenode may pick its nodes as replacements.
  net_.set_rack_partition("/r0", "/r1", true);
  const auto outcome = run_recovery(block, {0, 1, 2});
  ASSERT_TRUE(outcome.ok());
  // The replacement (a rack1 node) was unreachable, so only survivors
  // remain.
  EXPECT_EQ(outcome.value().targets.size(), 2u);
}

TEST_F(RecoveryTest, DeadTargetLandsInQuarantine) {
  const BlockId block{7};
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  dns_[1]->crash();
  const auto outcome = run_recovery(block, {0, 1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(quarantine_.events().size(), 1u);
  EXPECT_TRUE(quarantine_.quarantined(dn_nodes_[1]));
  EXPECT_FALSE(quarantine_.quarantined(dn_nodes_[0]));
  ASSERT_FALSE(quarantine_.events().empty());
  EXPECT_EQ(quarantine_.events().front().node, dn_nodes_[1]);
}

TEST_F(RecoveryTest, QuarantineExpires) {
  const BlockId block{7};
  stage_replica(0, block, 4);
  dns_[1]->crash();
  ASSERT_TRUE(run_recovery(block, {0, 1}).ok());
  EXPECT_TRUE(quarantine_.quarantined(dn_nodes_[1]));
  sim_.run_until(sim_.now() + seconds(61));
  EXPECT_FALSE(quarantine_.quarantined(dn_nodes_[1]));
  EXPECT_TRUE(quarantine_.active().empty());
}

TEST_F(RecoveryTest, NoReplacementsAvailableMeansUnderReplicated) {
  // Every spare node is dead: getAdditionalDatanodes has nothing to offer
  // and recovery degrades gracefully to a shorter pipeline.
  config_.replication = 3;
  const auto file = namenode_->create("/under", ClientId{0});
  ASSERT_TRUE(file.ok());
  const auto located =
      namenode_->add_block(file.value(), ClientId{0}, client_node_, {});
  ASSERT_TRUE(located.ok());
  const BlockId block = located.value().block;
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  stage_replica(2, block, 4);
  dns_[2]->crash();
  dns_[3]->crash();
  dns_[4]->crash();
  const auto outcome = run_recovery(block, {0, 1, 2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().targets.size(), 2u);
  EXPECT_TRUE(outcome.value().under_replicated);
}

TEST_F(RecoveryTest, FullPipelineSurvivesIsNotUnderReplicated) {
  config_.replication = 3;
  const BlockId block{7};
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  stage_replica(2, block, 4);
  const auto outcome = run_recovery(block, {0, 1, 2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().targets.size(), 3u);
  EXPECT_FALSE(outcome.value().under_replicated);
}

TEST_F(RecoveryTest, RepeatedRecoveryOfSameBlockConverges) {
  // Two consecutive recoveries of one block (a replacement then fails too)
  // must both terminate and leave a consistent replica set.
  const auto file = namenode_->create("/twice", ClientId{0});
  ASSERT_TRUE(file.ok());
  const auto located =
      namenode_->add_block(file.value(), ClientId{0}, client_node_, {});
  ASSERT_TRUE(located.ok());
  const BlockId block = located.value().block;
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  stage_replica(2, block, 4);
  dns_[2]->crash();
  const auto first = run_recovery(block, {0, 1, 2});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().targets.size(), 3u);
  // The freshly seeded replacement dies as well; recover again off the new
  // target list.
  Datanode* replacement = datanode_of(first.value().targets[2]);
  replacement->crash();
  std::vector<std::size_t> idx;
  for (NodeId t : first.value().targets) {
    for (std::size_t i = 0; i < dn_nodes_.size(); ++i) {
      if (dn_nodes_[i] == t) idx.push_back(i);
    }
  }
  const auto second = run_recovery(block, idx);
  ASSERT_TRUE(second.ok());
  // Both dead nodes are excluded now; only dn0/dn1 plus at most the one
  // remaining healthy spare can serve.
  for (NodeId t : second.value().targets) {
    EXPECT_FALSE(datanode_of(t)->crashed());
  }
  EXPECT_GE(second.value().targets.size(), 2u);
}

// --- probe_replica_with_timeout edge cases ---------------------------------

TEST_F(RecoveryTest, ProbeCrashedNodeReportsDead) {
  dns_[0]->crash();
  std::optional<ReplicaProbeResult> result;
  probe_replica_with_timeout(*deps_, client_node_, dn_nodes_[0], BlockId{7},
                             [&result](ReplicaProbeResult r) { result = r; });
  sim_.run_until(sim_.now() + config_.probe_timeout + seconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->alive);
}

TEST_F(RecoveryTest, ProbeIsolatedNodeTimesOutExactlyOnce) {
  net_.set_node_isolated(dn_nodes_[0], true);
  int calls = 0;
  bool alive = true;
  probe_replica_with_timeout(*deps_, client_node_, dn_nodes_[0], BlockId{7},
                             [&](ReplicaProbeResult r) {
                               ++calls;
                               alive = r.alive;
                             });
  // Run far past the timeout: a late response must not fire the callback a
  // second time.
  sim_.run_until(sim_.now() + config_.probe_timeout * 4);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(alive);
}

TEST_F(RecoveryTest, ProbeUnknownNodeReportsDeadImmediately) {
  std::optional<ReplicaProbeResult> result;
  // The client node resolves to no datanode.
  probe_replica_with_timeout(*deps_, client_node_, client_node_, BlockId{7},
                             [&result](ReplicaProbeResult r) { result = r; });
  sim_.run_until(sim_.now() + milliseconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->alive);
}

TEST_F(RecoveryTest, NamenodeLearnsNewTargets) {
  const BlockId block{7};
  stage_replica(0, block, 4);
  stage_replica(1, block, 4);
  // Register the block so update_block_targets has a record to update.
  auto file = namenode_->create("/reg", ClientId{0});
  ASSERT_TRUE(file.ok());
  const auto located =
      namenode_->add_block(file.value(), ClientId{0}, client_node_, {});
  ASSERT_TRUE(located.ok());
  const BlockId registered = located.value().block;
  stage_replica(3, registered, 4);
  stage_replica(4, registered, 4);
  const auto outcome = run_recovery(registered, {3, 4});
  ASSERT_TRUE(outcome.ok());
  sim_.run_until(sim_.now() + seconds(1));
  EXPECT_EQ(namenode_->block(registered)->expected_targets,
            outcome.value().targets);
}

}  // namespace
}  // namespace smarth::hdfs
