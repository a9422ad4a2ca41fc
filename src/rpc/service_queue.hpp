// Finite-capacity service model for an RPC server (the namenode). Installed
// on the RpcBus per server NodeId, it replaces the bus's flat per-call
// service_time with a serialized queue of modeled per-op costs, so heavy
// client traffic actually contends for namenode CPU the way it does in
// production — and, with admission control enabled, the server defends
// itself: bounded queue depth with priority-aware shedding (heartbeats/IBRs
// above client metadata ops above addBlock), heartbeat batch processing so
// datanode control load amortizes, and per-tenant in-flight addBlock caps so
// one client cannot starve the rest.
//
// Two modes share one queue object:
//  - service model only (`admission_control == false`): a single unbounded
//    FIFO served one op at a time at per-class cost. This is the honest
//    "undefended" namenode whose queue delay grows without bound past the
//    saturation knee.
//  - admission control (`admission_control == true`): three priority bands,
//    bounded total depth, shedding + displacement, batching, tenant caps.
//
// Everything is deterministic: no RNG, service order depends only on arrival
// order and class. Counters land in the metrics registry (nn.rpc.*), where
// the robustness table reads them; counters() keeps a per-queue copy for
// tests and benchmarks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/units.hpp"
#include "sim/simulation.hpp"

namespace smarth::rpc {

/// Service class of an RPC, used for cost modeling and admission priority.
/// kDefault is served at the same priority (and cost) as kMeta; only calls
/// whose class materially matters are tagged at the call site.
enum class ServiceClass { kDefault = 0, kHeartbeat, kMeta, kAddBlock };

/// Per-call options threaded from call sites through the bus to the queue.
struct CallOptions {
  ServiceClass svc = ServiceClass::kDefault;
  /// Tenant identity for per-client caps (client id for addBlock); -1 = none.
  std::int64_t tenant = -1;
};

class ServiceQueue {
 public:
  struct Config {
    bool admission_control = false;
    SimDuration cost_heartbeat = microseconds(30);
    SimDuration cost_meta = microseconds(150);
    SimDuration cost_add_block = microseconds(350);
    /// Bounded total queue depth (admission control only).
    int queue_capacity = 256;
    /// Max heartbeats coalesced into one service slot (admission only).
    int heartbeat_batch_max = 32;
    /// Marginal cost of each batched heartbeat after the first, as a
    /// fraction of cost_heartbeat.
    double batch_marginal_cost = 0.25;
    /// Max queued+in-service addBlock ops per tenant; <= 0 disables.
    int per_tenant_addblock_cap = 4;
  };

  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t served = 0;
    std::uint64_t shed_total = 0;
    std::uint64_t shed_heartbeats = 0;
    std::uint64_t shed_add_blocks = 0;
    std::uint64_t addblock_cap_rejections = 0;
    std::uint64_t heartbeat_batches = 0;
    std::uint64_t heartbeats_batched = 0;
  };

  ServiceQueue(sim::Simulation& sim, Config config);

  /// Submits one op. Exactly one of `serve` / `shed` eventually runs:
  /// `serve` after the op's turn in the queue plus its service cost, `shed`
  /// immediately if admission control rejects it (may be null — a shed
  /// notification is simply dropped, which is the point: a shed heartbeat's
  /// handler never executes, so it cannot feed suspicion or re-registration).
  void submit(ServiceClass cls, std::int64_t tenant, std::function<void()> serve,
              std::function<void()> shed);

  const Counters& counters() const { return counters_; }
  /// Ops currently queued (not counting the batch in service).
  std::size_t depth() const;
  bool admission_control() const { return config_.admission_control; }

 private:
  struct Op {
    ServiceClass cls;
    std::int64_t tenant;
    std::function<void()> serve;
    std::function<void()> shed;
    SimTime enqueued_at;
  };

  SimDuration cost_of(ServiceClass cls) const;
  static int priority_of(ServiceClass cls);  // higher serves first
  /// Refreshes the nn.rpc.queue_depth gauge after any structural change, so
  /// the flight recorder can sample backlog as a time series.
  void update_depth_gauge();
  void shed_op(Op op, bool cap_rejection);
  void enqueue(Op op);
  void maybe_serve();

  sim::Simulation& sim_;
  Config config_;
  Counters counters_;
  bool busy_ = false;
  /// Undefended mode: strict arrival-order FIFO across classes.
  std::deque<Op> fifo_;
  /// Admission mode: one band per priority level (index = priority).
  std::deque<Op> bands_[3];
  /// Queued + in-service addBlock ops per tenant.
  std::unordered_map<std::int64_t, int> tenant_add_blocks_;
};

}  // namespace smarth::rpc
