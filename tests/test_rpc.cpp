#include "rpc/rpc_bus.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "fn_job.hpp"
#include "net/network.hpp"
#include "rpc/service_queue.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim_(1), net_(sim_), bus_(net_) {
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(100));
    server_ = net_.add_node("server", "/r0", Bandwidth::mbps(100));
  }
  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  NodeId client_, server_;
};

TEST_F(RpcTest, CallRoundTrip) {
  int response = 0;
  bus_.call<int>(client_, server_, [] { return 42; },
                 [&](int v) { response = v; });
  sim_.run();
  EXPECT_EQ(response, 42);
  EXPECT_EQ(bus_.calls_started(), 1u);
  EXPECT_EQ(bus_.calls_completed(), 1u);
}

TEST_F(RpcTest, CallPaysNetworkAndServiceTime) {
  SimTime responded_at = -1;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { responded_at = sim_.now(); });
  sim_.run();
  // Request wire + service + response wire; must exceed the pure service
  // time and two propagation delays.
  EXPECT_GT(responded_at, bus_.config().service_time);
  EXPECT_LT(responded_at, milliseconds(10));
}

TEST_F(RpcTest, CallAsyncDeferredResponse) {
  int response = 0;
  bus_.call_async<int>(
      client_, server_,
      [this](std::function<void(int)> respond) {
        // Server finishes the work one second later.
        sim_.schedule_after(seconds(1), "test",
                            [respond = std::move(respond)] { respond(7); });
      },
      [&](int v) { response = v; });
  sim_.run();
  EXPECT_EQ(response, 7);
  EXPECT_GT(sim_.now(), seconds(1));
}

TEST_F(RpcTest, DownServerNeverResponds) {
  bus_.set_host_down(server_, true);
  bool responded = false;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { responded = true; });
  sim_.run();
  EXPECT_FALSE(responded);
  EXPECT_EQ(bus_.calls_completed(), 0u);
}

TEST_F(RpcTest, ServerDiesMidFlight) {
  bool responded = false;
  bool handled = false;
  bus_.call<int>(client_, server_,
                 [&] {
                   handled = true;
                   return 1;
                 },
                 [&](int) { responded = true; });
  // Kill the server before the request can arrive.
  sim_.schedule_at(1, "test", [&] { bus_.set_host_down(server_, true); });
  sim_.run();
  EXPECT_FALSE(handled);
  EXPECT_FALSE(responded);
}

TEST_F(RpcTest, HostCanComeBack) {
  bus_.set_host_down(server_, true);
  bus_.set_host_down(server_, false);
  int response = 0;
  bus_.call<int>(client_, server_, [] { return 5; },
                 [&](int v) { response = v; });
  sim_.run();
  EXPECT_EQ(response, 5);
}

TEST_F(RpcTest, NotifyIsOneWay) {
  bool handled = false;
  bus_.notify(client_, server_, [&] { handled = true; });
  sim_.run();
  EXPECT_TRUE(handled);
}

TEST_F(RpcTest, NotifyToDownHostDropped) {
  bus_.set_host_down(server_, true);
  bool handled = false;
  bus_.notify(client_, server_, [&] { handled = true; });
  sim_.run();
  EXPECT_FALSE(handled);
}

TEST_F(RpcTest, PointerResponseType) {
  // Responses must be copyable (std::function constraint); shared ownership
  // is the supported way to move heavyweight payloads.
  std::shared_ptr<int> got;
  bus_.call<std::shared_ptr<int>>(
      client_, server_, [] { return std::make_shared<int>(9); },
      [&](std::shared_ptr<int> v) { got = std::move(v); });
  sim_.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 9);
}

TEST_F(RpcTest, ControlPriorityBypassesBulkQueue) {
  // Saturate the client's egress with bulk data, then issue an RPC: the
  // request must not wait for megabytes of bulk to serialize.
  for (int i = 0; i < 64; ++i) {
    net_.send(client_, server_, 64 * kKiB, [] {});
  }
  SimTime responded_at = -1;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { responded_at = sim_.now(); });
  sim_.run();
  const SimDuration bulk_total =
      Bandwidth::mbps(100).transmit_time(64 * 64 * kKiB);
  EXPECT_LT(responded_at, bulk_total / 4);
}

std::uint64_t dropped_calls() {
  return metrics::global_registry().counter_value("rpc.calls_dropped");
}

TEST_F(RpcTest, FlatNotifyToReceiverDyingInServiceIsDropped) {
  RpcConfig config;
  config.service_time = seconds(1);
  RpcBus bus(net_, config);
  const std::uint64_t dropped_before = dropped_calls();
  bool handled = false;
  bus.notify(client_, server_, [&] { handled = true; });
  // The request lands within a millisecond; the receiver dies while the
  // notification sits in its service delay.
  sim_.schedule_at(milliseconds(500), "test",
                   [&] { bus.set_host_down(server_, true); });
  sim_.run();
  EXPECT_FALSE(handled);
  EXPECT_EQ(dropped_calls(), dropped_before + 1);
}

TEST_F(RpcTest, ShedRejectionFromDeadServerIsDropped) {
  ServiceQueue::Config qc;
  qc.admission_control = true;
  qc.queue_capacity = 1;
  qc.cost_meta = seconds(1);
  ServiceQueue queue(sim_, qc);
  bus_.set_service_queue(server_, &queue);
  // The first call occupies the server; the second waits in the addBlock
  // band and fills the one-op queue.
  bus_.call<int>(client_, server_, [] { return 1; }, [](int) {},
                 {ServiceClass::kMeta});
  bool rejected = false;
  bus_.call<int>(client_, server_, [] { return 2; },
                 [&](int) { rejected = true; }, {ServiceClass::kAddBlock},
                 [] { return -1; });
  std::uint64_t dropped_at_shed = 0;
  sim_.schedule_at(milliseconds(500), "test", [&] {
    // The server dies; a heartbeat then displaces the queued call, whose
    // rejection now has no live server to leave from.
    bus_.set_host_down(server_, true);
    const std::uint64_t before = dropped_calls();
    submit(queue, ServiceClass::kHeartbeat, -1, [] {}, nullptr);
    dropped_at_shed = dropped_calls() - before;
  });
  sim_.run();
  EXPECT_EQ(queue.counters().shed_total, 1u);
  EXPECT_EQ(dropped_at_shed, 1u);
  EXPECT_FALSE(rejected);
  EXPECT_EQ(bus_.calls_completed(), 0u);
}

// --- call record lifetime ----------------------------------------------------

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

TEST_F(RpcTest, ShedRejectionFreesEveryCaptureOnce) {
  ServiceQueue::Config qc;
  qc.admission_control = true;
  qc.queue_capacity = 1;
  qc.cost_meta = seconds(1);
  ServiceQueue queue(sim_, qc);
  bus_.set_service_queue(server_, &queue);
  int live = 0;
  int rejections = 0;
  bool handled = false;
  {
    const Live probe(&live);
    // Occupies the server, then fills the queue; the third call is shed.
    for (int i = 0; i < 3; ++i) {
      bus_.call<int>(
          client_, server_,
          [probe, &handled, i] {
            handled = handled || i == 2;
            return 1;
          },
          [probe, &rejections](int v) { rejections += v < 0 ? 1 : 0; },
          {ServiceClass::kMeta}, [probe] { return -1; });
    }
  }
  EXPECT_GT(live, 0);  // held by the in-flight call records
  sim_.run();
  EXPECT_EQ(rejections, 1);
  EXPECT_FALSE(handled);
  EXPECT_EQ(queue.counters().shed_total, 1u);
  EXPECT_EQ(live, 0);
}

TEST_F(RpcTest, ServerCrashWithQueuedOpsFreesEveryCaptureOnce) {
  ServiceQueue::Config qc;
  qc.cost_meta = seconds(1);
  ServiceQueue queue(sim_, qc);
  bus_.set_service_queue(server_, &queue);
  int live = 0;
  int handled = 0;
  {
    const Live probe(&live);
    for (int i = 0; i < 4; ++i) {
      bus_.call<int>(
          client_, server_,
          [probe, &handled] {
            ++handled;
            return 1;
          },
          [probe](int) {}, {ServiceClass::kMeta});
      bus_.notify(client_, server_, [probe, &handled] { ++handled; },
                  {ServiceClass::kMeta});
    }
  }
  // The first op is in service, seven wait, when the server dies.
  sim_.schedule_at(milliseconds(500), "test",
                   [&] { bus_.set_host_down(server_, true); });
  sim_.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(queue.counters().served, 8u);
  EXPECT_EQ(bus_.calls_completed(), 0u);
  EXPECT_EQ(live, 0);
}

TEST_F(RpcTest, DestroyedQueueDiscardsItsOpsOnce) {
  int live = 0;
  {
    ServiceQueue::Config qc;
    qc.cost_meta = seconds(1);
    ServiceQueue queue(sim_, qc);
    bus_.set_service_queue(server_, &queue);
    const Live probe(&live);
    for (int i = 0; i < 3; ++i) {
      bus_.call<int>(client_, server_, [probe] { return 1; }, [probe](int) {},
                     {ServiceClass::kMeta});
    }
    sim_.run_until(milliseconds(500));  // one in service, two queued
    EXPECT_EQ(live, 1 + 3 * 2);  // the probe, and a handler and a response
                                 // per call
    bus_.set_service_queue(server_, nullptr);
  }
  // Like a cluster torn down mid-run: the queue goes first and the
  // simulation never runs its pending service slot.
  EXPECT_EQ(live, 0);
}

TEST_F(RpcTest, AsyncResponderOutlivingTheCallFreesItOnce) {
  int live = 0;
  int responses = 0;
  {
    const Live probe(&live);
    bus_.call_async<int>(
        client_, server_,
        [this, probe](Responder<int> respond) {
          sim_.schedule_after(seconds(1), "test",
                              [respond, probe] { respond(3); });
        },
        [probe, &responses](int v) { responses += v; });
  }
  sim_.run();
  EXPECT_EQ(responses, 3);
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace smarth::rpc
