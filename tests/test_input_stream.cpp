// Unit tests of the DfsInputStream against a hand-built mini cluster (one
// namenode, three datanodes, a raw transport): location fetching, per-block
// sequencing, replica error handling, offset-resume after failover, and the
// distance-sorted replica preference.
#include "hdfs/input_stream.hpp"

#include <gtest/gtest.h>

#include "hdfs/datanode.hpp"
#include "hdfs/transport.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {
namespace {

class InputStreamTest : public ::testing::Test {
 protected:
  InputStreamTest() : sim_(1), net_(sim_) {
    config_.packet_payload = 64 * kKiB;
    config_.block_size = 4 * config_.packet_payload;
    config_.ack_timeout = seconds(1);
    nn_node_ = net_.add_node("nn", "/r0", Bandwidth::mbps(1000));
    client_node_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    dn_nodes_.push_back(net_.add_node("dn0", "/r0", Bandwidth::mbps(1000)));
    dn_nodes_.push_back(net_.add_node("dn1", "/r1", Bandwidth::mbps(1000)));
    dn_nodes_.push_back(net_.add_node("dn2", "/r1", Bandwidth::mbps(1000)));

    SinkResolver resolver;
    resolver.packet_sink = [this](NodeId node) -> PacketSink* {
      for (std::size_t i = 0; i < dn_nodes_.size(); ++i) {
        if (dn_nodes_[i] == node) return dns_[i].get();
      }
      return nullptr;
    };
    resolver.ack_sink = [](NodeId, PipelineId) -> AckSink* { return nullptr; };
    resolver.read_sink = [this](NodeId node, ReadId id) -> ReadSink* {
      return (reader_ && node == client_node_ && reader_->owns_read(id))
                 ? reader_.get()
                 : nullptr;
    };
    transport_ = std::make_unique<Transport>(net_, config_, resolver);
    namenode_ = std::make_unique<Namenode>(sim_, net_.topology(), config_,
                                           nn_node_);
    for (NodeId node : dn_nodes_) {
      auto dn = std::make_unique<Datanode>(sim_, *transport_, rpc_, *namenode_,
                                           config_, node);
      dn->start();
      dns_.push_back(std::move(dn));
    }
  }

  /// Registers a one-block file whose finalized replicas live on the given
  /// datanode indexes, bypassing the write path.
  void stage_block(const std::string& path, Bytes length,
                   std::vector<std::size_t> holders) {
    const auto file = namenode_->create(path, ClientId{0});
    ASSERT_TRUE(file.ok());
    const auto located = namenode_->add_block(file.value(), ClientId{0},
                                              client_node_, {});
    ASSERT_TRUE(located.ok());
    const BlockId block = located.value().block;
    for (std::size_t i : holders) {
      ASSERT_TRUE(dns_[i]->block_store().has_replica(block) ||
                  true);  // replicas created below
      auto& store = const_cast<storage::BlockStore&>(dns_[i]->block_store());
      if (!store.has_replica(block)) {
        ASSERT_TRUE(store.create_replica(block).ok());
      }
      ASSERT_TRUE(store.append(block, length).ok());
      ASSERT_TRUE(store.finalize(block).ok());
      namenode_->block_received(dn_nodes_[i], block, length);
    }
    ASSERT_TRUE(namenode_->complete(file.value(), ClientId{0}).value());
  }

  ReadStats read_file(const std::string& path) {
    ReadStats stats;
    bool done = false;
    DfsInputStream::Deps deps{sim_, *transport_, rpc_, *namenode_, config_,
                              read_ids_, nullptr};
    reader_ = std::make_unique<DfsInputStream>(
        deps, ClientId{0}, client_node_, path,
        [&](const ReadStats& s) {
          stats = s;
          done = true;
        });
    reader_->start();
    sim_.run_until_done([&done] { return done; }, seconds(500));
    return stats;
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
  std::unique_ptr<DfsInputStream> reader_;
  IdGenerator<ReadId> read_ids_;
};

TEST_F(InputStreamTest, ReadsStagedBlock) {
  stage_block("/f", config_.block_size, {0, 1, 2});
  const ReadStats stats = read_file("/f");
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_EQ(stats.bytes_read, config_.block_size);
  EXPECT_EQ(stats.blocks, 1);
  EXPECT_EQ(stats.failovers, 0);
}

TEST_F(InputStreamTest, PrefersSameRackReplica) {
  stage_block("/f", config_.block_size, {0, 1, 2});
  const ReadStats stats = read_file("/f");
  ASSERT_FALSE(stats.failed);
  // dn0 shares the client's rack; it must have served the read.
  EXPECT_EQ(dns_[0]->reads_served(), 1u);
  EXPECT_EQ(dns_[1]->reads_served() + dns_[2]->reads_served(), 0u);
}

TEST_F(InputStreamTest, RemoteReplicaUsedWhenLocalMissing) {
  stage_block("/f", config_.block_size, {1, 2});
  const ReadStats stats = read_file("/f");
  ASSERT_FALSE(stats.failed);
  EXPECT_EQ(stats.bytes_read, config_.block_size);
  EXPECT_EQ(dns_[0]->reads_served(), 0u);
}

TEST_F(InputStreamTest, FailsOverOnRefusal) {
  // dn0 is listed as a holder at the namenode but lost its replica: it
  // refuses (error packet) and the reader falls over to dn1.
  stage_block("/f", config_.block_size, {0, 1});
  auto& store = const_cast<storage::BlockStore&>(dns_[0]->block_store());
  const auto replicas = store.all_replicas();
  ASSERT_EQ(replicas.size(), 1u);
  ASSERT_TRUE(store.remove(replicas[0].block).ok());
  const ReadStats stats = read_file("/f");
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_EQ(stats.failovers, 1);
  EXPECT_EQ(dns_[1]->reads_served(), 1u);
}

TEST_F(InputStreamTest, TimeoutFailoverResumesMidBlock) {
  stage_block("/f", config_.block_size, {0, 1});
  // dn0 crashes the instant it starts serving: some packets may already be
  // out; the reader times out and resumes from dn1 at its received offset.
  sim_.schedule_after(milliseconds(1), "test", [this] { dns_[0]->crash(); });
  const ReadStats stats = read_file("/f");
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_EQ(stats.bytes_read, config_.block_size);
  EXPECT_GE(stats.failovers, 1);
}

TEST_F(InputStreamTest, FailsWhenEveryHolderRefuses) {
  stage_block("/f", config_.block_size, {0, 1});
  for (std::size_t i : {0u, 1u}) {
    auto& store = const_cast<storage::BlockStore&>(dns_[i]->block_store());
    const auto replicas = store.all_replicas();
    ASSERT_TRUE(store.remove(replicas[0].block).ok());
  }
  const ReadStats stats = read_file("/f");
  EXPECT_TRUE(stats.failed);
  EXPECT_EQ(stats.failovers, 2);
}

TEST_F(InputStreamTest, MissingFileFailsFast) {
  const ReadStats stats = read_file("/absent");
  EXPECT_TRUE(stats.failed);
  EXPECT_NE(stats.failure_reason.find("file_not_found"), std::string::npos);
}

TEST_F(InputStreamTest, ShortBlockLengthRespected) {
  const Bytes odd = config_.packet_payload + 123;
  stage_block("/f", odd, {0});
  const ReadStats stats = read_file("/f");
  ASSERT_FALSE(stats.failed);
  EXPECT_EQ(stats.bytes_read, odd);
}

}  // namespace
}  // namespace smarth::hdfs
