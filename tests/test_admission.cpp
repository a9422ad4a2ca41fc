// Namenode service-capacity model and overload defense: the ServiceQueue's
// two modes (undefended FIFO vs admission control with priority bands,
// bounded depth, heartbeat batching, tenant caps), the typed-rejection retry
// path in call_with_retry.
#include "rpc/service_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fn_job.hpp"
#include "net/network.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {
namespace {

class ServiceQueueTest : public ::testing::Test {
 protected:
  ServiceQueueTest() : sim_(1) { metrics::global_registry().reset(); }

  ServiceQueue make_queue(ServiceQueue::Config config) {
    return ServiceQueue(sim_, config);
  }

  sim::Simulation sim_;
};

TEST_F(ServiceQueueTest, UndefendedServesInArrivalOrderAtPerClassCost) {
  ServiceQueue::Config config;  // admission off: the undefended namenode
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  std::vector<SimTime> done_at;
  const auto record = [&](const char* name) {
    return [&order, &done_at, this, name] {
      order.push_back(name);
      done_at.push_back(sim_.now());
    };
  };
  submit(queue, ServiceClass::kMeta, -1, record("meta"), nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, record("addblock"), nullptr);
  submit(queue, ServiceClass::kHeartbeat, -1, record("heartbeat"), nullptr);
  sim_.run();
  // Strict FIFO across classes: no priority in the undefended queue.
  ASSERT_EQ(order, (std::vector<std::string>{"meta", "addblock", "heartbeat"}));
  EXPECT_EQ(done_at[0], microseconds(150));
  EXPECT_EQ(done_at[1], microseconds(150 + 350));
  EXPECT_EQ(done_at[2], microseconds(150 + 350 + 30));
  EXPECT_EQ(queue.counters().admitted, 3u);
  EXPECT_EQ(queue.counters().served, 3u);
  EXPECT_EQ(queue.counters().shed_total, 0u);
}

TEST_F(ServiceQueueTest, UndefendedQueueDelayGrowsUnboundedly) {
  ServiceQueue::Config config;
  ServiceQueue queue(sim_, config);
  SimTime last_done = 0;
  for (int i = 0; i < 10; ++i) {
    submit(queue, ServiceClass::kAddBlock, -1,
           [&last_done, this] { last_done = sim_.now(); }, nullptr);
  }
  sim_.run();
  // One server, no shedding: the 10th op waits for the other nine.
  EXPECT_EQ(last_done, 10 * microseconds(350));
  EXPECT_EQ(queue.counters().shed_total, 0u);
}

TEST_F(ServiceQueueTest, AdmissionServesHeartbeatsBeforeMetaBeforeAddBlock) {
  ServiceQueue::Config config;
  config.admission_control = true;
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  const auto record = [&order](const char* name) {
    return [&order, name] { order.push_back(name); };
  };
  // First op goes straight into service; the rest queue behind it and must
  // come out in priority order, not arrival order.
  submit(queue, ServiceClass::kAddBlock, -1, record("addblock1"), nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, record("addblock2"), nullptr);
  submit(queue, ServiceClass::kMeta, -1, record("meta"), nullptr);
  submit(queue, ServiceClass::kHeartbeat, -1, record("heartbeat"), nullptr);
  sim_.run();
  ASSERT_EQ(order, (std::vector<std::string>{"addblock1", "heartbeat", "meta",
                                             "addblock2"}));
}

TEST_F(ServiceQueueTest, AdmissionBatchesQueuedHeartbeats) {
  ServiceQueue::Config config;
  config.admission_control = true;
  ServiceQueue queue(sim_, config);
  int heartbeats_served = 0;
  SimTime batch_done = 0;
  submit(queue, ServiceClass::kMeta, -1, [] {}, nullptr);  // occupy the server
  for (int i = 0; i < 5; ++i) {
    submit(queue, ServiceClass::kHeartbeat, -1,
           [&heartbeats_served, &batch_done, this] {
             ++heartbeats_served;
             batch_done = sim_.now();
           },
           nullptr);
  }
  sim_.run();
  EXPECT_EQ(heartbeats_served, 5);
  EXPECT_EQ(queue.counters().heartbeat_batches, 1u);
  EXPECT_EQ(queue.counters().heartbeats_batched, 5u);
  // One slot: full cost for the first heartbeat + 25% marginal for the rest,
  // after the meta op that was in service.
  const SimDuration batch_cost =
      microseconds(30) + 4 * microseconds(30) / 4;  // 30 + 4 * 30 * 0.25
  EXPECT_EQ(batch_done, microseconds(150) + batch_cost);
}

TEST_F(ServiceQueueTest, OpsSubmittedDuringServiceWaitForTheNextSlot) {
  ServiceQueue::Config config;
  config.admission_control = true;
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  std::vector<SimTime> done_at;
  const auto record = [&](std::string name) {
    order.push_back(std::move(name));
    done_at.push_back(sim_.now());
  };
  // Each heartbeat's handler submits a meta op from inside the batch in
  // service; it must queue behind the batch, not join it.
  for (int i = 0; i < 3; ++i) {
    submit(queue, ServiceClass::kHeartbeat, -1,
           [&, i] {
             record("hb" + std::to_string(i));
             submit(queue, ServiceClass::kMeta, -1,
                    [&, i] { record("meta" + std::to_string(i)); }, nullptr);
           },
           nullptr);
  }
  sim_.run();
  ASSERT_EQ(order, (std::vector<std::string>{"hb0", "hb1", "hb2", "meta0",
                                             "meta1", "meta2"}));
  // hb0 alone, then hb1 + hb2 as one batch (30 us + 25% marginal), then the
  // metas one slot each.
  const SimTime batch_done = microseconds(30) + microseconds(30) * 5 / 4;
  EXPECT_EQ(done_at, (std::vector<SimTime>{
                         microseconds(30), batch_done, batch_done,
                         batch_done + microseconds(150),
                         batch_done + microseconds(300),
                         batch_done + microseconds(450)}));
  EXPECT_EQ(queue.counters().served, 6u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST_F(ServiceQueueTest, AdmissionShedsArrivalWithNoLowerBandToDisplace) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 2;
  config.per_tenant_addblock_cap = 0;  // isolate the capacity path
  ServiceQueue queue(sim_, config);
  int served = 0;
  bool shed = false;
  submit(queue, ServiceClass::kAddBlock, -1, [&served] { ++served; }, nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, [&served] { ++served; }, nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, [&served] { ++served; }, nullptr);
  // Queue full of equal-priority ops: the arrival itself is shed, now.
  submit(queue, ServiceClass::kAddBlock, -1,
         [&served] { ++served; }, [&shed] { shed = true; });
  EXPECT_TRUE(shed);
  sim_.run();
  EXPECT_EQ(served, 3);
  EXPECT_EQ(queue.counters().shed_total, 1u);
  EXPECT_EQ(queue.counters().shed_add_blocks, 1u);
  EXPECT_EQ(queue.counters().addblock_cap_rejections, 0u);
}

TEST_F(ServiceQueueTest, AdmissionDisplacesNewestLowerPriorityOp) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 2;
  config.per_tenant_addblock_cap = 0;
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  bool newest_shed = false;
  const auto record = [&order](const char* name) {
    return [&order, name] { order.push_back(name); };
  };
  submit(queue, ServiceClass::kAddBlock, -1, record("in-service"), nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, record("oldest"), nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, record("newest"),
         [&newest_shed] { newest_shed = true; });
  // Full queue, but the heartbeat outranks the queued addBlocks: it evicts
  // the newest one instead of being dropped.
  submit(queue, ServiceClass::kHeartbeat, -1, record("heartbeat"), nullptr);
  sim_.run();
  EXPECT_TRUE(newest_shed);
  ASSERT_EQ(order, (std::vector<std::string>{"in-service", "heartbeat",
                                             "oldest"}));
  EXPECT_EQ(queue.counters().shed_total, 1u);
  EXPECT_EQ(queue.counters().shed_add_blocks, 1u);
}

TEST_F(ServiceQueueTest, PerTenantAddBlockCapRejectsAndReleases) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.per_tenant_addblock_cap = 2;
  ServiceQueue queue(sim_, config);
  int served = 0;
  bool capped = false;
  submit(queue, ServiceClass::kAddBlock, 7, [&served] { ++served; }, nullptr);
  submit(queue, ServiceClass::kAddBlock, 7, [&served] { ++served; }, nullptr);
  submit(queue, ServiceClass::kAddBlock, 7, [&served] { ++served; },
         [&capped] { capped = true; });
  EXPECT_TRUE(capped);
  EXPECT_EQ(queue.counters().addblock_cap_rejections, 1u);
  // A different tenant is not affected by tenant 7's cap.
  submit(queue, ServiceClass::kAddBlock, 8, [&served] { ++served; }, nullptr);
  sim_.run();
  EXPECT_EQ(served, 3);
  // Service completion released tenant 7's slots: the next one is admitted.
  bool capped_again = false;
  submit(queue, ServiceClass::kAddBlock, 7, [&served] { ++served; },
         [&capped_again] { capped_again = true; });
  sim_.run();
  EXPECT_FALSE(capped_again);
  EXPECT_EQ(served, 4);
}

TEST_F(ServiceQueueTest, CountersLandInMetricsRegistry) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 1;
  config.per_tenant_addblock_cap = 0;
  ServiceQueue queue(sim_, config);
  submit(queue, ServiceClass::kAddBlock, -1, [] {}, nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, [] {}, nullptr);
  submit(queue, ServiceClass::kAddBlock, -1, [] {}, nullptr);  // shed
  sim_.run();
  const metrics::Registry& reg = metrics::global_registry();
  EXPECT_EQ(reg.find_counter("nn.rpc.admitted")->value(), 2u);
  EXPECT_EQ(reg.find_counter("nn.rpc.shed")->value(), 1u);
  EXPECT_NE(reg.find_histogram("nn.rpc.queue_wait_ns"), nullptr);
  EXPECT_NE(reg.find_histogram("nn.rpc.sojourn_ns"), nullptr);
}

// --- typed-rejection retry through the bus ---------------------------------

class OverloadRetryTest : public ::testing::Test {
 protected:
  OverloadRetryTest() : sim_(1), net_(sim_), bus_(net_) {
    metrics::global_registry().reset();
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(100));
    server_ = net_.add_node("server", "/r0", Bandwidth::mbps(100));
  }
  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  NodeId client_, server_;
};

TEST_F(OverloadRetryTest, RetryOnRelaunchesAfterBackoffUntilSuccess) {
  int handler_calls = 0;
  int response = -1;
  SimTime responded_at = 0;
  // First attempt answers 0 ("overloaded"); the retry answers 42.
  call_with_retry<int>(
      bus_, sim_, RetryPolicy{}, client_, server_,
      [&handler_calls] { return ++handler_calls == 1 ? 0 : 42; },
      [&](int v) {
        response = v;
        responded_at = sim_.now();
      },
      [] { FAIL() << "gave up"; }, "test", {}, nullptr,
      [](const int& v) { return v == 0; });
  sim_.run();
  EXPECT_EQ(handler_calls, 2);
  EXPECT_EQ(response, 42);
  // The relaunch waited out a real backoff, not an immediate hammer.
  EXPECT_GT(responded_at, milliseconds(100));
  EXPECT_EQ(metrics::global_registry().find_counter("rpc.overload_retries")
                ->value(),
            1u);
  // A retryable response is not a timeout retry: both series stay distinct.
  EXPECT_EQ(metrics::global_registry().find_counter("rpc.retries")->value(),
            1u);
}

TEST_F(OverloadRetryTest, FinalAttemptDeliversTheRetryableResponse) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  int response = -1;
  bool gave_up = false;
  call_with_retry<int>(
      bus_, sim_, policy, client_, server_, [] { return 0; },
      [&response](int v) { response = v; }, [&gave_up] { gave_up = true; },
      "test", {}, nullptr, [](const int& v) { return v == 0; });
  sim_.run();
  // Attempts exhausted: the caller sees the overloaded answer and falls back
  // to its own budgeted wait instead of spinning forever.
  EXPECT_FALSE(gave_up);
  EXPECT_EQ(response, 0);
  EXPECT_EQ(metrics::global_registry().find_counter("rpc.overload_retries")
                ->value(),
            1u);
}

TEST_F(OverloadRetryTest, ShedResponseShortCircuitsTheServiceQueue) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 1;
  config.per_tenant_addblock_cap = 0;
  config.cost_add_block = seconds(1);
  ServiceQueue queue(sim_, config);
  bus_.set_service_queue(server_, &queue);
  std::vector<int> responses;
  for (int i = 0; i < 3; ++i) {
    bus_.call<int>(
        client_, server_, [] { return 1; },
        [&responses](int v) { responses.push_back(v); },
        CallOptions{ServiceClass::kAddBlock, -1}, [] { return -1; });
  }
  sim_.run();
  // One served, one queued+served, one shed with the typed response; every
  // caller heard back.
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(std::count(responses.begin(), responses.end(), -1), 1);
  EXPECT_EQ(std::count(responses.begin(), responses.end(), 1), 2);
  EXPECT_EQ(queue.counters().shed_total, 1u);
}

}  // namespace
}  // namespace smarth::rpc
