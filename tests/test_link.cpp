#include "net/link.hpp"

#include <gtest/gtest.h>

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

TEST(Link, NegativeSizeThrows) {
  sim::Simulation sim;
  Link link(sim, "l", Bandwidth::mbps(100), 0);
  EXPECT_THROW(link.transmit(-1, [] {}), std::logic_error);
}

}  // namespace
}  // namespace smarth::net
