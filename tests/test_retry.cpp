// Unit tests of the client-side RPC retry wrapper: first-attempt success,
// recovery across a server outage, bounded give-up, duplicate-response
// hygiene when a slow response races its own timeout, and the retry and
// RpcBus drop/loss counters they record in the metrics registry. Also the
// one-attempt deadline call, and the lifetime of a retried call's record.
#include "rpc/retry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

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
  sim_.schedule_at(milliseconds(1400), "test",
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

// --- call_with_deadline -----------------------------------------------------

TEST_F(RetryTest, DeadlineDeliversResponseThatBeatsIt) {
  std::vector<int> settled;
  call_with_deadline<int>(
      bus_, sim_, client_, server_,
      [](std::function<void(int)> respond) { respond(5); }, seconds(1),
      "test.deadline", -1, [&settled](int v) { settled.push_back(v); });
  sim_.run();
  EXPECT_EQ(settled, std::vector<int>{5});
  EXPECT_EQ(count("rpc.give_ups"), 0u);
}

TEST_F(RetryTest, DeadlineSettlesFirstAndDropsLateResponse) {
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);  // each way: past the deadline
  bus_.set_chaos(chaos);
  std::vector<int> settled;
  call_with_deadline<int>(
      bus_, sim_, client_, server_, [] { return 5; }, milliseconds(500),
      "test.deadline", -1, [&settled](int v) { settled.push_back(v); });
  sim_.run();
  EXPECT_EQ(settled, std::vector<int>{-1});
  EXPECT_EQ(bus_.calls_completed(), 1u);  // the late response did arrive
  EXPECT_EQ(count("rpc.give_ups"), 0u);
}

TEST_F(RetryTest, DeadlineSettlesOnceForDownPeer) {
  bus_.set_host_down(server_, true);
  std::vector<int> settled;
  call_with_deadline<int>(
      bus_, sim_, client_, server_, [] { return 5; }, milliseconds(500),
      "test.deadline", -1, [&settled](int v) { settled.push_back(v); });
  // The request was dropped on the spot: the deadline is all that is left.
  EXPECT_EQ(sim_.pending_category_summary(), "test.deadline×1");
  sim_.run();
  EXPECT_EQ(settled, std::vector<int>{-1});
  EXPECT_EQ(sim_.now(), milliseconds(500));
  EXPECT_EQ(count("rpc.calls_dropped"), 1u);
  EXPECT_EQ(count("rpc.give_ups"), 0u);
}

// --- retried-call record lifetime --------------------------------------------

/// Counts its destructions; every callback of a retried call shares one, so
/// it dies exactly when the call's record and all its closures are gone.
struct Token {
  int* destroyed;
  ~Token() { ++*destroyed; }
};

TEST_F(RetryTest, RecordFreedOnceAfterSuccessWithLateDuplicate) {
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);
  bus_.set_chaos(chaos);
  int destroyed = 0;
  int responses = 0;
  auto token = std::make_shared<Token>(&destroyed);
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [token] { return 7; },
      [token, &responses](int) { ++responses; }, [token] { FAIL(); });
  token.reset();
  sim_.run();
  EXPECT_EQ(responses, 1);
  EXPECT_GE(bus_.calls_completed(), 2u);  // a duplicate arrived and was dropped
  EXPECT_EQ(destroyed, 1);
}

TEST_F(RetryTest, RecordFreedOnceAfterGiveUp) {
  bus_.set_host_down(server_, true);
  int destroyed = 0;
  int give_ups = 0;
  auto token = std::make_shared<Token>(&destroyed);
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [token] { return 7; },
      [token](int) { FAIL(); }, [token, &give_ups] { ++give_ups; });
  token.reset();
  sim_.run();
  EXPECT_EQ(give_ups, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST_F(RetryTest, RecordFreedOnceAfterOverloadedRelaunch) {
  int destroyed = 0;
  int served = 0;
  std::optional<int> response;
  auto token = std::make_shared<Token>(&destroyed);
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_,
      [token, &served] { return ++served == 1 ? -1 : 7; },
      [token, &response](int v) { response = v; }, [token] { FAIL(); },
      "test", {}, nullptr, [token](const int& v) { return v < 0; });
  token.reset();
  sim_.run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, 7);
  EXPECT_EQ(count("rpc.overload_retries"), 1u);
  EXPECT_EQ(destroyed, 1);
}

/// A capture that counts its live copies: once every closure holding one is
/// destroyed, exactly once each, the count is back to zero.
struct Live {
  explicit Live(int* count) : count_(count) { ++*count_; }
  Live(const Live& other) : count_(other.count_) { ++*count_; }
  Live(Live&& other) noexcept : count_(std::exchange(other.count_, nullptr)) {}
  Live& operator=(const Live&) = delete;
  ~Live() {
    if (count_ != nullptr) --*count_;
  }
  int* count_;
};

TEST_F(RetryTest, ResponseAfterGiveUpFreesEveryCaptureOnce) {
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);  // each way: past every timeout
  bus_.set_chaos(chaos);
  RetryPolicy policy = fast_policy();
  policy.max_attempts = 2;
  int live = 0;
  int give_ups = 0;
  bool responded = false;
  {
    const Live probe(&live);
    call_with_retry<int>(
        bus_, sim_, policy, client_, server_, [probe] { return 7; },
        [probe, &responded](int) { responded = true; },
        [probe, &give_ups] { ++give_ups; }, "test", {}, [probe] { return -1; },
        [probe](const int& v) { return v < 0; });
  }
  sim_.run();
  EXPECT_EQ(give_ups, 1);
  EXPECT_FALSE(responded);
  EXPECT_EQ(bus_.calls_completed(), 2u);  // both responses landed late
  EXPECT_EQ(live, 0);
}

TEST_F(RetryTest, HandlerAfterDeadlineFreesEveryCaptureOnce) {
  // The server is slow: its handler runs after the client settled on the
  // fallback.
  RpcConfig config;
  config.service_time = seconds(2);
  RpcBus bus(net_, config);
  int live = 0;
  bool handled = false;
  std::vector<int> settled;
  {
    const Live probe(&live);
    call_with_deadline<int>(
        bus, sim_, client_, server_,
        [probe, &handled] {
          handled = true;
          return 5;
        },
        milliseconds(500), "test.deadline", -1,
        [probe, &settled](int v) { settled.push_back(v); });
  }
  sim_.run();
  EXPECT_TRUE(handled);
  EXPECT_EQ(settled, std::vector<int>{-1});
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace smarth::rpc
