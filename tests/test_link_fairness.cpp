// Tests for the bulk lane's per-flow round-robin scheduling: flows share a
// link approximately fairly (like per-connection TCP), single flows keep
// strict FIFO order, and control messages still preempt all bulk queues.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace smarth::net {
namespace {

class LinkFairnessTest : public ::testing::Test {
 protected:
  LinkFairnessTest() : link_(sim_, "l", Bandwidth::mbps(100), 0) {}
  sim::Simulation sim_;
  Link link_;
};

TEST_F(LinkFairnessTest, SingleFlowStaysFifo) {
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    link_.transmit(kKiB, [&order, i] { order.push_back(i); },
                   LinkPriority::kBulk, /*flow=*/7);
  }
  sim_.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(LinkFairnessTest, TwoFlowsInterleave) {
  // Flow A queues 8 messages first; flow B's messages must not wait for all
  // of A (round-robin interleaving).
  std::vector<char> order;
  for (int i = 0; i < 8; ++i) {
    link_.transmit(kKiB, [&order] { order.push_back('A'); },
                   LinkPriority::kBulk, 1);
  }
  for (int i = 0; i < 8; ++i) {
    link_.transmit(kKiB, [&order] { order.push_back('B'); },
                   LinkPriority::kBulk, 2);
  }
  sim_.run();
  ASSERT_EQ(order.size(), 16u);
  // B's first message must arrive long before A drains.
  const auto first_b = std::find(order.begin(), order.end(), 'B');
  EXPECT_LE(first_b - order.begin(), 2);
  // And the tail should alternate rather than cluster.
  int transitions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] != order[i - 1]) ++transitions;
  }
  EXPECT_GE(transitions, 10);
}

TEST_F(LinkFairnessTest, ThroughputSharedEvenly) {
  // Two saturating flows of equal demand finish within ~one message of each
  // other.
  SimTime done_a = 0;
  SimTime done_b = 0;
  for (int i = 0; i < 50; ++i) {
    link_.transmit(64 * kKiB, [&] { done_a = sim_.now(); },
                   LinkPriority::kBulk, 1);
    link_.transmit(64 * kKiB, [&] { done_b = sim_.now(); },
                   LinkPriority::kBulk, 2);
  }
  sim_.run();
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_LE(std::abs(done_a - done_b), 2 * unit);
}

TEST_F(LinkFairnessTest, LateFlowJoinsRing) {
  // A flow arriving while another has a deep backlog still gets served at
  // ~half rate from its arrival.
  for (int i = 0; i < 64; ++i) {
    link_.transmit(64 * kKiB, [] {}, LinkPriority::kBulk, 1);
  }
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  SimTime late_delivery = -1;
  sim_.run_until(4 * unit);
  link_.transmit(64 * kKiB, [&] { late_delivery = sim_.now(); },
                 LinkPriority::kBulk, 2);
  sim_.run();
  // Without fairness it would wait for ~60 more backlog messages; with RR it
  // ships within a few service slots.
  EXPECT_LT(late_delivery, 9 * unit);
}

TEST_F(LinkFairnessTest, ControlBeatsAllFlows) {
  for (int i = 0; i < 16; ++i) {
    link_.transmit(64 * kKiB, [] {}, LinkPriority::kBulk,
                   static_cast<FlowKey>(i));
  }
  SimTime control_at = -1;
  link_.transmit(64, [&] { control_at = sim_.now(); },
                 LinkPriority::kControl);
  sim_.run();
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  // Only the in-flight bulk message delays it.
  EXPECT_LE(control_at, unit + Bandwidth::mbps(100).transmit_time(64) + 1);
}

TEST_F(LinkFairnessTest, QueueAccountingAcrossFlows) {
  link_.transmit(kKiB, [] {}, LinkPriority::kBulk, 1);
  link_.transmit(kKiB, [] {}, LinkPriority::kBulk, 2);
  link_.transmit(kKiB, [] {}, LinkPriority::kBulk, 2);
  link_.transmit(64, [] {}, LinkPriority::kControl);
  // One message is already in service; three remain queued.
  EXPECT_EQ(link_.queued_count(), 3u);
  sim_.run();
  EXPECT_EQ(link_.queued_count(), 0u);
  EXPECT_EQ(link_.messages_transmitted(), 4u);
}

TEST_F(LinkFairnessTest, ManyFlowsAllComplete) {
  int delivered = 0;
  for (int f = 0; f < 32; ++f) {
    for (int i = 0; i < 4; ++i) {
      link_.transmit(kKiB, [&delivered] { ++delivered; },
                     LinkPriority::kBulk, static_cast<FlowKey>(f));
    }
  }
  sim_.run();
  EXPECT_EQ(delivered, 128);
}

TEST(LinkServiceOrder, ExactSequenceAndTimes) {
  // Pins the full service order: three flows with uneven backlogs share the
  // link round-robin; flow 2 drains and later rejoins at the back of the
  // ring; a control message jumps every bulk queue; pause() lets the message
  // in service finish and starts nothing until resume().
  sim::Simulation sim;
  const Bandwidth rate = Bandwidth::mbps(8);
  const SimDuration latency = microseconds(10);
  Link link(sim, "l", rate, latency);
  const Bytes bulk = 1000;
  const Bytes control = 100;
  const SimDuration u = rate.transmit_time(bulk);
  const SimDuration c = rate.transmit_time(control);

  std::vector<std::pair<std::string, SimTime>> log;
  auto send = [&](const std::string& label, Bytes size, LinkPriority priority,
                  FlowKey flow) {
    link.transmit(
        size, [&log, &sim, label] { log.emplace_back(label, sim.now()); },
        priority, flow);
  };
  for (const char* label : {"A1", "A2", "A3", "A4"}) {
    send(label, bulk, LinkPriority::kBulk, 1);
  }
  send("B1", bulk, LinkPriority::kBulk, 2);
  for (const char* label : {"C1", "C2", "C3"}) {
    send(label, bulk, LinkPriority::kBulk, 3);
  }
  sim.schedule_at(5 * u / 2, "test",
                  [&] { send("X", control, LinkPriority::kControl, 0); });
  sim.schedule_at(7 * u / 2, "test",
                  [&] { send("B2", bulk, LinkPriority::kBulk, 2); });
  sim.schedule_at(11 * u / 2, "test", [&] { link.pause(); });
  sim.schedule_at(7 * u, "test", [&] { link.resume(); });
  sim.run();

  const std::vector<std::pair<std::string, SimTime>> expected = {
      {"A1", u + latency},
      {"A2", 2 * u + latency},
      {"B1", 3 * u + latency},
      {"X", 3 * u + c + latency},
      {"C1", 4 * u + c + latency},
      {"A3", 5 * u + c + latency},
      {"C2", 6 * u + c + latency},
      {"B2", 8 * u + latency},
      {"A4", 9 * u + latency},
      {"C3", 10 * u + latency},
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(link.messages_transmitted(), 10u);
  EXPECT_EQ(link.queued_count(), 0u);
  EXPECT_EQ(link.busy_time(), 9 * u + c);
}

}  // namespace
}  // namespace smarth::net
