// Unit tests of the client-side RPC retry wrapper: first-attempt success,
// recovery across a server outage, bounded give-up, duplicate-response
// hygiene when a slow response races its own timeout, and the retry and
// RpcBus drop/loss counters they record in the metrics registry.
#include "rpc/retry.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {
namespace {

class RetryTest : public ::testing::Test {
 protected:
  RetryTest() : sim_(1), net_(sim_), bus_(net_) {
    metrics::global_registry().reset();
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    server_ = net_.add_node("server", "/r0", Bandwidth::mbps(1000));
  }

  RetryPolicy fast_policy() const {
    RetryPolicy policy;
    policy.timeout = milliseconds(500);
    policy.max_attempts = 4;
    policy.backoff_base = milliseconds(100);
    policy.backoff_max = seconds(1);
    policy.jitter = 0.2;
    return policy;
  }

  static std::uint64_t count(const char* name) {
    return metrics::global_registry().counter_value(name);
  }

  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  NodeId client_, server_;
};

TEST_F(RetryTest, SucceedsFirstAttempt) {
  std::optional<int> response;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 42; },
      [&response](int value) { response = value; }, [] { FAIL(); });
  sim_.run_until(seconds(5));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, 42);
  EXPECT_EQ(count("rpc.retries"), 0u);
  EXPECT_EQ(count("rpc.give_ups"), 0u);
}

TEST_F(RetryTest, RetriesThroughServerOutage) {
  // Server is down for the first two attempt windows, then comes back; the
  // call must eventually succeed and account the extra attempts.
  bus_.set_host_down(server_, true);
  sim_.schedule_at(milliseconds(1400),
                   [this] { bus_.set_host_down(server_, false); });
  std::optional<int> response;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [&response](int value) { response = value; }, [] { FAIL(); });
  sim_.run_until(seconds(30));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, 7);
  EXPECT_GE(count("rpc.retries"), 1u);
  EXPECT_EQ(count("rpc.give_ups"), 0u);
  EXPECT_GE(count("rpc.calls_dropped"), 1u);
}

TEST_F(RetryTest, GivesUpAfterBoundedAttempts) {
  bus_.set_host_down(server_, true);
  int give_ups = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [](int) { FAIL() << "server is down; no response should arrive"; },
      [&give_ups] { ++give_ups; });
  sim_.run_until(seconds(60));
  EXPECT_EQ(give_ups, 1);
  EXPECT_EQ(count("rpc.give_ups"), 1u);
  // max_attempts=4 means exactly 3 retries beyond the first.
  EXPECT_EQ(count("rpc.retries"), 3u);
}

TEST_F(RetryTest, SlowResponseSettlesExactlyOnce) {
  // Chaos delay pushes every response past the per-attempt timeout, so a
  // retry fires while attempt 1's response is still in flight. The first
  // response to land wins; later ones must be ignored.
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);
  bus_.set_chaos(chaos);
  int responses = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [&responses](int) { ++responses; }, [] { FAIL(); });
  sim_.run_until(seconds(30));
  EXPECT_EQ(responses, 1);
  EXPECT_GE(count("rpc.retries"), 1u);
  EXPECT_GT(count("rpc.messages_delayed"), 0u);
}

TEST_F(RetryTest, ChaosLossForcesGiveUp) {
  RpcChaos chaos;
  chaos.loss_probability = 1.0;
  bus_.set_chaos(chaos);
  int give_ups = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [](int) { FAIL(); }, [&give_ups] { ++give_ups; });
  sim_.run_until(seconds(60));
  EXPECT_EQ(give_ups, 1);
  // Every attempt's request vanished.
  EXPECT_GE(count("rpc.messages_lost"), 4u);
}

TEST_F(RetryTest, DroppedCallCounterTracksHostDownCalls) {
  bus_.set_host_down(server_, true);
  bus_.call<int>(client_, server_, [] { return 1; }, [](int) { FAIL(); });
  sim_.run_until(seconds(1));
  EXPECT_EQ(count("rpc.calls_dropped"), 1u);
  EXPECT_EQ(bus_.calls_completed(), 0u);
  EXPECT_EQ(bus_.calls_started(), 1u);
}

}  // namespace
}  // namespace smarth::rpc
