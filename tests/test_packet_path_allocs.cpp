// Zero-allocation regression test for the packet path. Once pools and queues
// have grown to their peak, moving messages through the network, requests
// through a disk and packets through a three-datanode pipeline must not touch
// the heap at all; and a replica's heap cost must not grow with its length.
//
// This binary replaces the global allocation functions with counting
// wrappers, so it cannot run under AddressSanitizer (which replaces them
// too); the sanitizer CI job leaves it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/transport.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "storage/block_store.hpp"
#include "storage/disk.hpp"

namespace {

std::uint64_t g_allocations = 0;
std::uint64_t g_bytes = 0;  ///< requested, never decremented

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  g_bytes += size;
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace smarth {
namespace {

/// Allocations made while running `work`.
template <typename Work>
std::uint64_t allocations_during(Work&& work) {
  const std::uint64_t before = g_allocations;
  work();
  return g_allocations - before;
}

/// Heap bytes requested while running `work`.
template <typename Work>
std::uint64_t bytes_during(Work&& work) {
  const std::uint64_t before = g_bytes;
  work();
  return g_bytes - before;
}

/// A capture the size of Transport's packet lambdas: a pointer, a node id and
/// a 40-byte typed message.
struct PacketSizedCapture {
  std::uint64_t* counter;
  std::int64_t words[6];
  void operator()() const { ++*counter; }
};
static_assert(sizeof(PacketSizedCapture) == 56);

TEST(PacketPathAllocs, NetworkSendIsAllocationFree) {
  sim::Simulation sim(1);
  net::Network network(sim);
  const NodeId a = network.add_node("a", "/r0", Bandwidth::gbps(1));
  const NodeId b = network.add_node("b", "/r0", Bandwidth::gbps(1));
  const NodeId c = network.add_node("c", "/r1", Bandwidth::gbps(1));
  const NodeId d = network.add_node("d", "/r1", Bandwidth::gbps(1));
  // Cross-rack messages cross all five hops: egress, per-node shaper, shared
  // rack uplink, per-node shaper, ingress.
  network.set_cross_rack_throttle(Bandwidth::mbps(400));
  network.set_shared_rack_uplink(Bandwidth::mbps(600));

  std::uint64_t delivered = 0;
  auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      const auto flow = static_cast<net::FlowKey>(1 + i % 4);
      network.send(a, b, 64 * kKiB, PacketSizedCapture{&delivered, {}},
                   net::LinkPriority::kBulk, flow);
      network.send(a, c, 64 * kKiB, PacketSizedCapture{&delivered, {}},
                   net::LinkPriority::kBulk, flow);
      network.send(d, b, 64 * kKiB, PacketSizedCapture{&delivered, {}},
                   net::LinkPriority::kBulk, flow + 8);
      network.send(c, a, 64, PacketSizedCapture{&delivered, {}},
                   net::LinkPriority::kControl);
      network.send(b, a, 64, PacketSizedCapture{&delivered, {}},
                   net::LinkPriority::kControl);
    }
    sim.run();
  };
  round();  // warm-up: pools and event-queue vectors reach their peak
  round();
  const std::uint64_t allocs = allocations_during([&] {
    round();
    round();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 4u * 64u * 5u);
}

TEST(PacketPathAllocs, DiskWriteIsAllocationFree) {
  sim::Simulation sim(1);
  storage::DiskDevice disk(sim, "disk", Bandwidth::mega_bytes_per_second(100),
                           microseconds(50));
  std::uint64_t written = 0;
  auto round = [&] {
    for (int i = 0; i < 32; ++i) {
      disk.write(64 * kKiB, PacketSizedCapture{&written, {}});
    }
    sim.run();
  };
  round();
  round();
  const std::uint64_t allocs = allocations_during([&] {
    round();
    round();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(written, 4u * 32u);
}

// A replica's bookkeeping does not grow with what it stores: one filled by
// 1,024 packet-sized appends and finalized costs no more heap than a
// one-chunk replica.
TEST(PacketPathAllocs, ReplicaHeapDoesNotGrowWithItsLength) {
  const auto replica_bytes = [](int appends) {
    storage::BlockStore store;
    const BlockId block{7};
    return bytes_during([&] {
      EXPECT_TRUE(store.create_replica(block).ok());
      for (int i = 0; i < appends; ++i) {
        EXPECT_TRUE(store.append(block, 64 * kKiB).ok());
      }
      EXPECT_TRUE(store.finalize(block).ok());
    });
  };
  const std::uint64_t one_chunk = replica_bytes(1);
  EXPECT_GT(one_chunk, 0u);  // the counter sees the replica's own entry
  EXPECT_LE(replica_bytes(1024), one_chunk);
}

/// Upstream end of the pipeline: counts what the datanodes send back.
class CountingClient : public hdfs::AckSink {
 public:
  void deliver_ack(const hdfs::PipelineAck& ack) override {
    if (ack.status == hdfs::AckStatus::kSuccess) ++acks;
  }
  void deliver_setup_ack(const hdfs::SetupAck& ack) override {
    if (ack.success) ++setup_acks;
  }
  void deliver_fnfa(const hdfs::FnfaMessage&) override {}
  std::int64_t acks = 0;
  std::int64_t setup_acks = 0;
};

TEST(PacketPathAllocs, DatanodePipelineIsAllocationFree) {
  constexpr int kPackets = 64;
  hdfs::HdfsConfig config;
  config.fidelity = hdfs::DataFidelity::kPacket;
  config.packet_payload = 64 * kKiB;
  config.block_size = kPackets * config.packet_payload;

  sim::Simulation sim(1);
  net::Network network(sim);
  rpc::RpcBus rpc(network);
  const NodeId nn_node = network.add_node("nn", "/r0", Bandwidth::gbps(1));
  const NodeId client_node =
      network.add_node("client", "/r0", Bandwidth::gbps(1));
  std::vector<NodeId> dn_nodes;
  dn_nodes.push_back(network.add_node("dn0", "/r0", Bandwidth::gbps(1)));
  dn_nodes.push_back(network.add_node("dn1", "/r1", Bandwidth::gbps(1)));
  dn_nodes.push_back(network.add_node("dn2", "/r1", Bandwidth::gbps(1)));
  network.set_cross_rack_throttle(Bandwidth::mbps(500));

  CountingClient client;
  std::vector<std::unique_ptr<hdfs::Datanode>> dns;
  hdfs::SinkResolver resolver;
  resolver.packet_sink = [&](NodeId node) -> hdfs::PacketSink* {
    for (std::size_t i = 0; i < dn_nodes.size(); ++i) {
      if (dn_nodes[i] == node) return dns[i].get();
    }
    return nullptr;
  };
  resolver.ack_sink = [&](NodeId node, PipelineId) -> hdfs::AckSink* {
    return node == client_node ? &client : nullptr;
  };
  hdfs::Transport transport(network, config, resolver);
  hdfs::Namenode namenode(sim, network.topology(), config, nn_node);
  for (NodeId node : dn_nodes) {
    dns.push_back(std::make_unique<hdfs::Datanode>(sim, transport, rpc,
                                                   namenode, config, node));
    dns.back()->start();
  }

  hdfs::PipelineSetup setup;
  setup.pipeline = PipelineId{1};
  setup.block = BlockId{10};
  setup.targets = dn_nodes;
  setup.client_node = client_node;
  setup.client = ClientId{0};
  transport.send_setup(client_node, dn_nodes[0], setup);
  sim.run_until(sim.now() + milliseconds(50));
  ASSERT_EQ(client.setup_acks, 1);

  // Sends packets [first, last) and runs until they are all acknowledged
  // (well inside one heartbeat interval).
  auto stream = [&](int first, int last) {
    for (int seq = first; seq < last; ++seq) {
      hdfs::WirePacket packet;
      packet.pipeline = setup.pipeline;
      packet.block = setup.block;
      packet.seq = seq;
      packet.payload = config.packet_payload;
      packet.last_in_block = seq + 1 == kPackets;
      transport.send_packet(client_node, dn_nodes[0], packet);
    }
    sim.run_until(sim.now() + milliseconds(100));
  };
  stream(0, 16);  // warm-up
  ASSERT_EQ(client.acks, 16);
  const std::uint64_t allocs = allocations_during([&] { stream(16, 48); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(client.acks, 48);

  stream(48, kPackets);
  EXPECT_EQ(client.acks, kPackets);
  for (const auto& dn : dns) {
    const auto replica = dn->block_store().replica(setup.block);
    ASSERT_TRUE(replica.ok());
    EXPECT_EQ(replica.value().bytes, config.block_size);
    EXPECT_EQ(replica.value().state, storage::ReplicaState::kFinalized);
  }
}

}  // namespace
}  // namespace smarth
