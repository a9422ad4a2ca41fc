#include "net/network.hpp"

#include <gtest/gtest.h>

#include "net/cross_traffic.hpp"
#include "sim/simulation.hpp"

namespace smarth::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1), net_(sim_, config()) {
    a_ = net_.add_node("a", "/rack0", Bandwidth::mbps(100));
    b_ = net_.add_node("b", "/rack0", Bandwidth::mbps(100));
    c_ = net_.add_node("c", "/rack1", Bandwidth::mbps(100));
  }

  static NetworkConfig config() {
    NetworkConfig cfg;
    cfg.same_rack_latency = microseconds(100);
    cfg.cross_rack_latency = microseconds(300);
    cfg.loopback_latency = microseconds(10);
    return cfg;
  }

  SimTime send_and_time(NodeId from, NodeId to, Bytes size) {
    SimTime delivered = -1;
    const SimTime start = sim_.now();
    net_.send(from, to, size, [&] { delivered = sim_.now(); });
    sim_.run();
    return delivered - start;
  }

  sim::Simulation sim_;
  Network net_;
  NodeId a_, b_, c_;
};

TEST_F(NetworkTest, SameRackPathCost) {
  // egress serialize + ingress serialize + propagation.
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_EQ(send_and_time(a_, b_, 64 * kKiB), 2 * unit + microseconds(100));
}

TEST_F(NetworkTest, CrossRackPaysHigherLatency) {
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_EQ(send_and_time(a_, c_, 64 * kKiB), 2 * unit + microseconds(300));
}

TEST_F(NetworkTest, LoopbackSkipsLinks) {
  EXPECT_EQ(send_and_time(a_, a_, gib(1)), microseconds(10));
}

TEST_F(NetworkTest, CrossRackThrottleSlowsOnlyCrossTraffic) {
  net_.set_cross_rack_throttle(Bandwidth::mbps(10));
  const SimDuration fast = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  const SimDuration slow = Bandwidth::mbps(10).transmit_time(64 * kKiB);
  // Cross-rack: egress + 2 shapers + ingress.
  EXPECT_EQ(send_and_time(a_, c_, 64 * kKiB),
            2 * fast + 2 * slow + microseconds(300));
  // Same-rack is unaffected.
  EXPECT_EQ(send_and_time(a_, b_, 64 * kKiB), 2 * fast + microseconds(100));
}

TEST_F(NetworkTest, CrossRackThrottleRemovable) {
  net_.set_cross_rack_throttle(Bandwidth::mbps(10));
  ASSERT_TRUE(net_.cross_rack_throttle().has_value());
  net_.set_cross_rack_throttle(kUnlimitedBandwidth);
  EXPECT_FALSE(net_.cross_rack_throttle().has_value());
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_EQ(send_and_time(a_, c_, 64 * kKiB), 2 * unit + microseconds(300));
}

TEST_F(NetworkTest, NodeThrottleAffectsBothDirections) {
  net_.set_node_nic(b_, Bandwidth::mbps(10));
  const SimDuration fast = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  const SimDuration slow = Bandwidth::mbps(10).transmit_time(64 * kKiB);
  EXPECT_EQ(send_and_time(a_, b_, 64 * kKiB), fast + slow + microseconds(100));
  EXPECT_EQ(send_and_time(b_, a_, 64 * kKiB), slow + fast + microseconds(100));
  EXPECT_EQ(net_.node_nic(b_).mbps(), 10.0);
}

TEST_F(NetworkTest, SharedRackUplinkSerializesFlows) {
  net_.set_shared_rack_uplink(Bandwidth::mbps(10));
  // Two cross-rack messages from the same rack share the rack0 uplink.
  SimTime d1 = -1, d2 = -1;
  net_.send(a_, c_, 64 * kKiB, [&] { d1 = sim_.now(); });
  net_.send(b_, c_, 64 * kKiB, [&] { d2 = sim_.now(); });
  sim_.run();
  const SimDuration slow = Bandwidth::mbps(10).transmit_time(64 * kKiB);
  // The second message finishes roughly one uplink-serialization later.
  EXPECT_GE(d2 - d1, slow / 2);
}

TEST_F(NetworkTest, FifoOrderingPerPair) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    net_.send(a_, b_, kKiB, [&order, i] { order.push_back(i); });
  }
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(NetworkTest, IngressPauseBackpressure) {
  net_.pause_ingress(b_);
  EXPECT_TRUE(net_.ingress_paused(b_));
  SimTime delivered = -1;
  net_.send(a_, b_, 64 * kKiB, [&] { delivered = sim_.now(); });
  sim_.schedule_at(seconds(1), "test", [&] { net_.resume_ingress(b_); });
  sim_.run();
  EXPECT_GT(delivered, seconds(1));
}

TEST_F(NetworkTest, ByteAccounting) {
  net_.send(a_, b_, 1000, [] {});
  net_.send(a_, c_, 500, [] {});
  sim_.run();
  EXPECT_EQ(net_.bytes_sent(a_), 1500);
  EXPECT_EQ(net_.bytes_received(b_), 1000);
  EXPECT_EQ(net_.bytes_received(c_), 500);
  EXPECT_EQ(net_.messages_delivered(), 2u);
}

TEST_F(NetworkTest, EgressSharingBetweenDestinations) {
  // Two messages from a to different destinations serialize on a's egress.
  SimTime d1 = -1, d2 = -1;
  net_.send(a_, b_, 64 * kKiB, [&] { d1 = sim_.now(); });
  net_.send(a_, c_, 64 * kKiB, [&] { d2 = sim_.now(); });
  sim_.run();
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_EQ(d1, 2 * unit + microseconds(100));
  // Second message leaves egress only after the first finished serializing.
  EXPECT_EQ(d2, 2 * unit + unit + microseconds(300));
}

TEST(CrossTraffic, ConsumesBandwidthWhileRunning) {
  sim::Simulation sim(2);
  Network net(sim, {});
  const NodeId a = net.add_node("a", "/r0", Bandwidth::mbps(100));
  const NodeId b = net.add_node("b", "/r0", Bandwidth::mbps(100));
  CrossTraffic traffic(net, a, b, {});
  traffic.start();
  sim.run_until(seconds(1));
  traffic.stop();
  sim.run();
  // Each loop iteration pays egress + ingress serialization plus latency
  // (~10.7 ms per 64 KiB message), so ~93 messages ≈ 6 MB in one second.
  EXPECT_GT(traffic.bytes_sent(), 5 * kMiB);
  EXPECT_GT(traffic.messages_sent(), 80u);
}

TEST(CrossTraffic, ThinkTimeReducesLoad) {
  sim::Simulation sim(3);
  Network net(sim, {});
  const NodeId a = net.add_node("a", "/r0", Bandwidth::mbps(100));
  const NodeId b = net.add_node("b", "/r0", Bandwidth::mbps(100));
  CrossTraffic::Config cfg;
  cfg.think_time = milliseconds(100);
  CrossTraffic traffic(net, a, b, cfg);
  traffic.start();
  sim.run_until(seconds(1));
  traffic.stop();
  sim.run();
  EXPECT_LE(traffic.messages_sent(), 12u);
}

}  // namespace
}  // namespace smarth::net
