#include "net/link.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace smarth::net {
namespace {

TEST(Link, SerializationTimeMatchesCapacity) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  SimTime delivered = -1;
  link.transmit(64 * kKiB, [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, Bandwidth::mbps(100).transmit_time(64 * kKiB));
}

TEST(Link, LatencyAddsAfterSerialization) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), milliseconds(2));
  SimTime delivered = -1;
  link.transmit(64 * kKiB, [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered,
            Bandwidth::mbps(100).transmit_time(64 * kKiB) + milliseconds(2));
}

TEST(Link, FifoQueueingSharesSerially) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(80), 0);
  std::vector<SimTime> deliveries;
  const Bytes size = 10 * kKiB;
  for (int i = 0; i < 3; ++i) {
    link.transmit(size, [&] { deliveries.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  const SimDuration unit = Bandwidth::mbps(80).transmit_time(size);
  EXPECT_EQ(deliveries[0], unit);
  EXPECT_EQ(deliveries[1], 2 * unit);
  EXPECT_EQ(deliveries[2], 3 * unit);
}

TEST(Link, ZeroSizeStillPaysLatency) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), microseconds(500));
  SimTime delivered = -1;
  link.transmit(0, [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, microseconds(500));
}

TEST(Link, UnlimitedCapacitySerializesInstantly) {
  sim::Simulation sim;
  Link link(sim, "l", kUnlimitedBandwidth, 0);
  SimTime delivered = -1;
  link.transmit(gib(1), [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, 0);
}

TEST(Link, CapacityChangeAppliesToNextMessage) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  std::vector<SimTime> deliveries;
  link.transmit(64 * kKiB, [&] { deliveries.push_back(sim.now()); });
  link.transmit(64 * kKiB, [&] { deliveries.push_back(sim.now()); });
  // Halve capacity while the first message is in flight.
  sim.schedule_at(microseconds(1), "test",
                  [&] { link.set_capacity(Bandwidth::mbps(50)); });
  sim.run();
  const SimDuration fast = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  const SimDuration slow = Bandwidth::mbps(50).transmit_time(64 * kKiB);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], fast);        // in-flight message unaffected
  EXPECT_EQ(deliveries[1], fast + slow);  // successor pays the new rate
}

TEST(Link, PauseHoldsQueueResumeDrains) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  link.pause();
  SimTime delivered = -1;
  link.transmit(64 * kKiB, [&] { delivered = sim.now(); });
  sim.schedule_at(milliseconds(10), "test", [&] { link.resume(); });
  sim.run();
  EXPECT_EQ(delivered,
            milliseconds(10) + Bandwidth::mbps(100).transmit_time(64 * kKiB));
}

TEST(Link, PauseDoesNotAbortInFlightMessage) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  SimTime first = -1;
  SimTime second = -1;
  link.transmit(64 * kKiB, [&] { first = sim.now(); });
  link.transmit(64 * kKiB, [&] { second = sim.now(); });
  sim.schedule_at(microseconds(10), "test", [&] { link.pause(); });
  sim.schedule_at(milliseconds(20), "test", [&] { link.resume(); });
  sim.run();
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_EQ(first, unit);  // finished despite the pause
  EXPECT_EQ(second, milliseconds(20) + unit);
}

TEST(Link, Statistics) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  link.transmit(32 * kKiB, [] {});
  link.transmit(32 * kKiB, [] {});
  EXPECT_EQ(link.queued_count(), 1u);  // one in flight, one queued
  EXPECT_EQ(link.queued_bytes(), 32 * kKiB);
  sim.run();
  EXPECT_EQ(link.bytes_transmitted(), 64 * kKiB);
  EXPECT_EQ(link.messages_transmitted(), 2u);
  EXPECT_EQ(link.busy_time(),
            Bandwidth::mbps(100).transmit_time(64 * kKiB));
  EXPECT_FALSE(link.busy());
}

// A link with no latency hands a message on inside the serialize event that
// frees it when nothing else is due at that instant (DESIGN.md §10). These
// pin the order and times the queued `link.deliver` event gave.

TEST(Link, ZeroSizeSuccessorKeepsItsPlaceBehindHandedOffMessage) {
  // The zero-size message starts serializing in the event that ends m's
  // serialization, at the same instant. m is delivered first, and an event
  // m's callback posts now runs after the successor's serialize event.
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  std::vector<std::string> order;
  std::uint64_t transmitted_at_probe = 0;
  link.transmit(64 * kKiB, [&] {
    order.push_back("m");
    sim.post_now("test", [&] {
      order.push_back("probe");
      transmitted_at_probe = link.messages_transmitted();
    });
  });
  link.transmit(0, [&] { order.push_back("zero"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"m", "probe", "zero"}));
  EXPECT_EQ(transmitted_at_probe, 2u);
  EXPECT_EQ(sim.now(), Bandwidth::mbps(100).transmit_time(64 * kKiB));
  // Two serializations, two deliveries and the probe.
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.events_scheduled(), 5u);
}

TEST(Link, DeliveryCallbackMayTransmitAgain) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  std::vector<SimTime> deliveries;
  std::vector<bool> busy_at_delivery;
  std::function<void()> send_next = [&] {
    deliveries.push_back(sim.now());
    busy_at_delivery.push_back(link.busy());
    if (deliveries.size() < 3) link.transmit(64 * kKiB, send_next);
  };
  link.transmit(64 * kKiB, send_next);
  sim.run();
  const SimDuration unit = Bandwidth::mbps(100).transmit_time(64 * kKiB);
  EXPECT_EQ(deliveries, (std::vector<SimTime>{unit, 2 * unit, 3 * unit}));
  EXPECT_EQ(busy_at_delivery, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(link.messages_transmitted(), 3u);
  EXPECT_EQ(link.queued_count(), 0u);
  EXPECT_EQ(sim.events_executed(), 6u);
}

TEST(Link, NegativeSizeThrows) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  EXPECT_THROW(link.transmit(-1, [] {}), std::logic_error);
}

}  // namespace
}  // namespace smarth::net
