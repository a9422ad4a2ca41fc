#include "net/network.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

TEST_F(NetworkTest, SameRackSendCountsFiveEvents) {
  // Two serializations, two hand-offs between links and the propagation:
  // a hand-off that runs inside its serialize event still counts as one.
  net_.send(a_, b_, 64 * kKiB, [] {});
  sim_.run();
  EXPECT_EQ(sim_.events_executed(), 5u);
  EXPECT_EQ(sim_.events_scheduled(), 5u);
}

TEST_F(NetworkTest, SimultaneousEgressFinishesShareOneIngressInOrder) {
  // a's and c's egress serializations end at the same instant and both
  // messages go on to b's ingress. When each egress finishes, another event
  // is still due at that instant (the other serialize event, the probe, the
  // first delivery), so neither hands its message on in place: the probe,
  // queued behind both serialize events, finds b's ingress idle, as with
  // queued deliveries. Then a's message is served first.
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  std::vector<std::pair<char, SimTime>> arrivals;
  net_.send(a_, b_, 64 * kKiB, [&] { arrivals.push_back({'a', sim_.now()}); });
  net_.send(c_, b_, 64 * kKiB, [&] { arrivals.push_back({'c', sim_.now()}); });
  bool ingress_busy_at_probe = true;
  sim_.post_at(unit, "test",
               [&] { ingress_busy_at_probe = net_.ingress_link(b_).busy(); });
  sim_.run();
  EXPECT_FALSE(ingress_busy_at_probe);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], std::make_pair('a', 2 * unit + microseconds(100)));
  EXPECT_EQ(arrivals[1], std::make_pair('c', 3 * unit + microseconds(300)));
  // The probe plus five events for each message.
  EXPECT_EQ(sim_.events_executed(), 11u);
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
