#include "rpc/service_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {

namespace {

metrics::Counter& reg_counter(metrics::Counter*& handle, const char* name) {
  if (handle == nullptr) handle = &metrics::global_registry().counter(name);
  return *handle;
}

metrics::LatencyHistogram& reg_histogram(metrics::LatencyHistogram*& handle,
                                         const char* name) {
  if (handle == nullptr) handle = &metrics::global_registry().histogram(name);
  return *handle;
}

}  // namespace

void ServiceQueue::update_depth_gauge() {
  if (metrics_.queue_depth == nullptr) {
    metrics_.queue_depth = &metrics::global_registry().gauge(
        "nn.rpc.queue_depth");
  }
  metrics_.queue_depth->set(static_cast<double>(depth()));
}

ServiceQueue::ServiceQueue(sim::Simulation& sim, Config config)
    : sim_(sim), config_(config) {
  SMARTH_CHECK(config_.cost_heartbeat > 0);
  SMARTH_CHECK(config_.cost_meta > 0);
  SMARTH_CHECK(config_.cost_add_block > 0);
  SMARTH_CHECK(config_.queue_capacity > 0);
  SMARTH_CHECK(config_.heartbeat_batch_max >= 1);
}

SimDuration ServiceQueue::cost_of(ServiceClass cls) const {
  switch (cls) {
    case ServiceClass::kHeartbeat:
      return config_.cost_heartbeat;
    case ServiceClass::kAddBlock:
      return config_.cost_add_block;
    case ServiceClass::kMeta:
    case ServiceClass::kDefault:
      return config_.cost_meta;
  }
  return config_.cost_meta;
}

int ServiceQueue::priority_of(ServiceClass cls) {
  switch (cls) {
    case ServiceClass::kHeartbeat:
      return 2;
    case ServiceClass::kMeta:
    case ServiceClass::kDefault:
      return 1;
    case ServiceClass::kAddBlock:
      return 0;
  }
  return 1;
}

std::size_t ServiceQueue::depth() const {
  if (!config_.admission_control) return fifo_.size();
  return bands_[0].size() + bands_[1].size() + bands_[2].size();
}

void ServiceQueue::shed_op(Op op, bool cap_rejection) {
  ++counters_.shed_total;
  reg_counter(metrics_.shed, "nn.rpc.shed").add();
  if (op.cls == ServiceClass::kHeartbeat) {
    ++counters_.shed_heartbeats;
    reg_counter(metrics_.shed_heartbeats, "nn.rpc.shed_heartbeats").add();
  } else if (op.cls == ServiceClass::kAddBlock) {
    ++counters_.shed_add_blocks;
    reg_counter(metrics_.shed_add_blocks, "nn.rpc.shed_add_blocks").add();
  }
  if (cap_rejection) {
    ++counters_.addblock_cap_rejections;
    reg_counter(metrics_.addblock_cap_rejections,
                "nn.rpc.addblock_cap_rejections")
        .add();
  }
  if (op.shed) op.shed();
}

void ServiceQueue::enqueue(Op op) {
  ++counters_.admitted;
  reg_counter(metrics_.admitted, "nn.rpc.admitted").add();
  if (config_.admission_control && op.cls == ServiceClass::kAddBlock &&
      op.tenant >= 0) {
    ++tenant_add_blocks_[op.tenant];
  }
  if (!config_.admission_control) {
    fifo_.push_back(std::move(op));
  } else {
    bands_[priority_of(op.cls)].push_back(std::move(op));
  }
  maybe_serve();
  update_depth_gauge();
}

void ServiceQueue::submit(ServiceClass cls, std::int64_t tenant,
                          std::function<void()> serve,
                          std::function<void()> shed) {
  Op op{cls, tenant, std::move(serve), std::move(shed), sim_.now()};
  if (!config_.admission_control) {
    enqueue(std::move(op));  // unbounded FIFO: the undefended namenode
    return;
  }
  if (cls == ServiceClass::kAddBlock && config_.per_tenant_addblock_cap > 0 &&
      tenant >= 0) {
    auto it = tenant_add_blocks_.find(tenant);
    if (it != tenant_add_blocks_.end() &&
        it->second >= config_.per_tenant_addblock_cap) {
      shed_op(std::move(op), /*cap_rejection=*/true);
      return;
    }
  }
  if (depth() >= static_cast<std::size_t>(config_.queue_capacity)) {
    // Displacement: an arriving higher-priority op evicts the newest queued
    // op from the lowest non-empty band strictly below it; otherwise the
    // arrival itself is shed.
    const int prio = priority_of(cls);
    int victim_band = -1;
    for (int b = 0; b < prio; ++b) {
      if (!bands_[b].empty()) {
        victim_band = b;
        break;
      }
    }
    if (victim_band < 0) {
      shed_op(std::move(op), /*cap_rejection=*/false);
      return;
    }
    Op victim = std::move(bands_[victim_band].back());
    bands_[victim_band].pop_back();
    if (victim.cls == ServiceClass::kAddBlock && victim.tenant >= 0) {
      auto it = tenant_add_blocks_.find(victim.tenant);
      if (it != tenant_add_blocks_.end() && it->second > 0) --it->second;
    }
    shed_op(std::move(victim), /*cap_rejection=*/false);
  }
  enqueue(std::move(op));
}

void ServiceQueue::maybe_serve() {
  if (busy_) return;
  SimDuration cost = 0;
  if (!config_.admission_control) {
    if (fifo_.empty()) return;
    batch_.push_back(std::move(fifo_.front()));
    fifo_.pop_front();
    cost = cost_of(batch_.front().cls);
  } else {
    int band = -1;
    for (int b = 2; b >= 0; --b) {
      if (!bands_[b].empty()) {
        band = b;
        break;
      }
    }
    if (band < 0) return;
    if (band == priority_of(ServiceClass::kHeartbeat)) {
      // Coalesce queued heartbeats/IBRs into one service slot: full cost for
      // the first, a marginal fraction for each additional one.
      const int n = static_cast<int>(
          std::min<std::size_t>(bands_[band].size(),
                                static_cast<std::size_t>(
                                    config_.heartbeat_batch_max)));
      for (int i = 0; i < n; ++i) {
        batch_.push_back(std::move(bands_[band].front()));
        bands_[band].pop_front();
      }
      cost = config_.cost_heartbeat +
             static_cast<SimDuration>(
                 static_cast<double>(config_.cost_heartbeat) *
                 config_.batch_marginal_cost * (n - 1));
      if (n > 1) {
        ++counters_.heartbeat_batches;
        counters_.heartbeats_batched += static_cast<std::uint64_t>(n);
        reg_counter(metrics_.heartbeat_batches, "nn.rpc.heartbeat_batches")
            .add();
        reg_counter(metrics_.heartbeats_batched, "nn.rpc.heartbeats_batched")
            .add(static_cast<std::uint64_t>(n));
      }
    } else {
      batch_.push_back(std::move(bands_[band].front()));
      bands_[band].pop_front();
      cost = cost_of(batch_.front().cls);
    }
  }
  busy_ = true;
  update_depth_gauge();
  const SimTime start = sim_.now();
  auto& wait_hist = reg_histogram(metrics_.queue_wait, "nn.rpc.queue_wait_ns");
  for (const Op& op : batch_) {
    wait_hist.observe(static_cast<double>(start - op.enqueued_at));
  }
  sim_.schedule_after(cost, "rpc.service", [this] { finish_batch(); });
}

void ServiceQueue::finish_batch() {
  auto& sojourn_hist = reg_histogram(metrics_.sojourn, "nn.rpc.sojourn_ns");
  const SimTime done = sim_.now();
  // Handlers may submit more ops; busy_ keeps them queued until the batch
  // is cleared.
  for (Op& op : batch_) {
    sojourn_hist.observe(static_cast<double>(done - op.enqueued_at));
    if (config_.admission_control && op.cls == ServiceClass::kAddBlock &&
        op.tenant >= 0) {
      auto it = tenant_add_blocks_.find(op.tenant);
      if (it != tenant_add_blocks_.end() && it->second > 0) --it->second;
    }
    ++counters_.served;
    if (op.serve) op.serve();
  }
  batch_.clear();
  busy_ = false;
  maybe_serve();
}

}  // namespace smarth::rpc
