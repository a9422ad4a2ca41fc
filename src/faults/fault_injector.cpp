#include "faults/fault_injector.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace {

/// One instant on the shared "faults" track; every injection execution point
/// funnels through here so traces show the fault timeline next to the
/// pipelines it perturbs.
void trace_fault(const char* name, smarth::trace::Args args) {
  if (smarth::trace::active()) {
    smarth::trace::recorder()->instant(smarth::trace::Category::kFault,
                                       "faults", name, std::move(args));
  }
}

std::string idx_str(std::size_t index) { return std::to_string(index); }

/// Counts one applied injection in the registry as faults.<class>; the
/// robustness table's "faults injected" row sums every faults.* counter.
void count_fault(const char* fault_class) {
  smarth::metrics::global_registry()
      .counter(std::string("faults.") + fault_class)
      .add();
}

}  // namespace

namespace smarth::faults {

FaultInjector::FaultInjector(cluster::Cluster& cluster,
                             std::uint64_t chaos_seed)
    : cluster_(cluster), rng_(chaos_seed),
      bitrot_rng_(chaos_seed ^ 0xb17707b17707ULL) {
  busy_until_.assign(cluster_.datanode_count(), 0);
}

void FaultInjector::crash(std::size_t datanode_index, SimTime at) {
  hdfs::Datanode* dn = &cluster_.datanode(datanode_index);
  cluster_.sim().schedule_at(at, [this, dn, datanode_index] {
    if (dn->crashed()) return;
    SMARTH_KV(LogLevel::kInfo, "faults", "crash").kv("dn", datanode_index);
    trace_fault("crash", {{"dn", idx_str(datanode_index)}});
    dn->crash();
    count_fault("crashes");
  });
}

void FaultInjector::crash_and_rejoin(std::size_t datanode_index, SimTime at,
                                     SimTime rejoin_at) {
  SMARTH_CHECK_MSG(rejoin_at > at, "rejoin must come after the crash");
  crash(datanode_index, at);
  hdfs::Datanode* dn = &cluster_.datanode(datanode_index);
  cluster_.sim().schedule_at(rejoin_at, [this, dn, datanode_index] {
    if (!dn->crashed()) return;
    SMARTH_KV(LogLevel::kInfo, "faults", "rejoin").kv("dn", datanode_index);
    trace_fault("rejoin", {{"dn", idx_str(datanode_index)}});
    dn->restart();
    count_fault("restarts");
  });
  mark_busy(datanode_index, rejoin_at);
}

void FaultInjector::fail_slow(std::size_t datanode_index, SimTime from,
                              SimTime until, double disk_factor,
                              double nic_factor) {
  SMARTH_CHECK_MSG(until > from, "fail-slow window must have positive length");
  hdfs::Datanode* dn = &cluster_.datanode(datanode_index);
  const NodeId node = cluster_.datanode_id(datanode_index);
  net::Network* net = &cluster_.network();

  cluster_.sim().schedule_at(from, [this, dn, net, node, datanode_index, until,
                                    disk_factor, nic_factor] {
    const Bandwidth disk_before = dn->disk().write_bandwidth();
    const Bandwidth nic_before = net->node_nic(node);
    if (disk_factor > 1.0 && !disk_before.is_unlimited()) {
      dn->disk().set_write_bandwidth(Bandwidth::bits_per_second(
          disk_before.bits_per_second() / disk_factor));
    }
    if (nic_factor > 1.0 && !nic_before.is_unlimited()) {
      net->set_node_nic(node, Bandwidth::bits_per_second(
                                  nic_before.bits_per_second() / nic_factor));
    }
    count_fault("fail_slows");
    SMARTH_KV(LogLevel::kInfo, "faults", "fail-slow")
        .kv("dn", datanode_index)
        .kv("disk_factor", disk_factor)
        .kv("nic_factor", nic_factor)
        .kv("until", format_duration(until));
    trace_fault("fail-slow start", {{"dn", idx_str(datanode_index)},
                                    {"disk_factor", std::to_string(disk_factor)},
                                    {"nic_factor", std::to_string(nic_factor)}});
    cluster_.sim().schedule_at(until,
                               [dn, net, node, disk_before, nic_before,
                                datanode_index] {
                                 dn->disk().set_write_bandwidth(disk_before);
                                 net->set_node_nic(node, nic_before);
                                 SMARTH_KV(LogLevel::kInfo, "faults",
                                           "fail-slow-over")
                                     .kv("dn", datanode_index);
                                 trace_fault("fail-slow end",
                                             {{"dn", idx_str(datanode_index)}});
                               });
  });
  mark_busy(datanode_index, until);
}

void FaultInjector::flap_node(std::size_t datanode_index, SimTime down_at,
                              SimTime up_at) {
  SMARTH_CHECK_MSG(up_at > down_at, "flap window must have positive length");
  const NodeId node = cluster_.datanode_id(datanode_index);
  net::Network* net = &cluster_.network();
  cluster_.sim().schedule_at(down_at, [this, net, node, datanode_index] {
    SMARTH_KV(LogLevel::kInfo, "faults", "flap-down").kv("dn", datanode_index);
    trace_fault("flap down", {{"dn", idx_str(datanode_index)}});
    net->set_node_isolated(node, true);
    count_fault("flaps");
  });
  cluster_.sim().schedule_at(up_at, [net, node, datanode_index] {
    SMARTH_KV(LogLevel::kInfo, "faults", "flap-up").kv("dn", datanode_index);
    trace_fault("flap up", {{"dn", idx_str(datanode_index)}});
    net->set_node_isolated(node, false);
  });
  mark_busy(datanode_index, up_at);
}

void FaultInjector::partition_racks(const std::string& rack_a,
                                    const std::string& rack_b, SimTime sever_at,
                                    SimTime heal_at) {
  SMARTH_CHECK_MSG(heal_at > sever_at,
                   "partition window must have positive length");
  net::Network* net = &cluster_.network();
  cluster_.sim().schedule_at(sever_at, [this, net, rack_a, rack_b] {
    SMARTH_KV(LogLevel::kInfo, "faults", "partition")
        .kv("rack_a", rack_a)
        .kv("rack_b", rack_b);
    trace_fault("partition", {{"rack_a", rack_a}, {"rack_b", rack_b}});
    net->set_rack_partition(rack_a, rack_b, true);
    count_fault("partitions");
  });
  cluster_.sim().schedule_at(heal_at, [net, rack_a, rack_b] {
    SMARTH_KV(LogLevel::kInfo, "faults", "partition-healed")
        .kv("rack_a", rack_a)
        .kv("rack_b", rack_b);
    trace_fault("partition healed", {{"rack_a", rack_a}, {"rack_b", rack_b}});
    net->set_rack_partition(rack_a, rack_b, false);
  });
}

void FaultInjector::corrupt_nth_packet(std::size_t datanode_index,
                                       std::uint64_t nth) {
  cluster_.datanode(datanode_index).inject_checksum_error_on_nth_packet(nth);
  count_fault("corruptions");
}

std::uint64_t FaultInjector::one_shot_salt(std::size_t datanode_index,
                                           SimTime at) {
  // Hash, not an Rng draw: the header promises deterministic one-shots never
  // consume chaos randomness.
  SplitMix64 sm(static_cast<std::uint64_t>(at) * 1000003ULL +
                static_cast<std::uint64_t>(datanode_index));
  return sm.next();
}

void FaultInjector::bitrot(std::size_t datanode_index, SimTime at) {
  hdfs::Datanode* dn = &cluster_.datanode(datanode_index);
  const std::uint64_t salt = one_shot_salt(datanode_index, at);
  cluster_.sim().schedule_at(at, [this, dn, datanode_index, salt] {
    if (dn->rot_random_finalized_chunk(salt)) {
      SMARTH_KV(LogLevel::kInfo, "faults", "bitrot").kv("dn", datanode_index);
      trace_fault("bitrot", {{"dn", idx_str(datanode_index)}});
      count_fault("bitrot_flips");
    }
  });
}

void FaultInjector::crash_client(std::size_t client_index, SimTime at) {
  cluster_.sim().schedule_at(at, [this, client_index] {
    if (cluster_.client_crashed(client_index)) return;
    SMARTH_KV(LogLevel::kInfo, "faults", "client-crash")
        .kv("client", client_index);
    trace_fault("client crash", {{"client", idx_str(client_index)}});
    cluster_.crash_client(client_index);
    count_fault("client_crashes");
  });
}

void FaultInjector::crash_and_rejoin_client(std::size_t client_index,
                                            SimTime at, SimTime rejoin_at) {
  SMARTH_CHECK_MSG(rejoin_at > at, "rejoin must come after the crash");
  crash_client(client_index, at);
  cluster_.sim().schedule_at(rejoin_at, [this, client_index] {
    if (!cluster_.client_crashed(client_index)) return;
    SMARTH_KV(LogLevel::kInfo, "faults", "client-rejoin")
        .kv("client", client_index);
    trace_fault("client rejoin", {{"client", idx_str(client_index)}});
    cluster_.restart_client(client_index);
    count_fault("client_restarts");
  });
  mark_client_busy(client_index, rejoin_at);
}

void FaultInjector::crash_namenode(SimTime at) {
  cluster_.sim().schedule_at(at, [this] {
    if (cluster_.namenode_crashed()) return;
    SMARTH_KV(LogLevel::kWarn, "faults", "nn-crash");
    trace_fault("nn crash", {});
    cluster_.crash_namenode();
    count_fault("nn_crashes");
  });
}

void FaultInjector::crash_and_restart_namenode(SimTime at, SimTime restart_at) {
  SMARTH_CHECK_MSG(restart_at > at, "restart must come after the crash");
  crash_namenode(at);
  cluster_.sim().schedule_at(restart_at, [this] {
    if (!cluster_.namenode_crashed()) return;
    SMARTH_KV(LogLevel::kInfo, "faults", "nn-restart");
    trace_fault("nn restart", {});
    cluster_.restart_namenode();
    count_fault("nn_restarts");
  });
  nn_busy_until_ = std::max(nn_busy_until_, restart_at);
}

void FaultInjector::crash_and_failover_namenode(SimTime at,
                                                SimTime failover_at) {
  SMARTH_CHECK_MSG(failover_at > at, "failover must come after the crash");
  crash_namenode(at);
  cluster_.sim().schedule_at(failover_at, [this] {
    if (!cluster_.namenode_crashed()) return;
    SMARTH_KV(LogLevel::kInfo, "faults", "nn-failover");
    trace_fault("nn failover", {});
    cluster_.failover_namenode();
    count_fault("nn_failovers");
  });
  nn_busy_until_ = std::max(nn_busy_until_, failover_at);
}

void FaultInjector::set_rpc_chaos(double loss_probability,
                                  SimDuration delay_mean,
                                  SimDuration delay_jitter) {
  rpc::RpcChaos chaos;
  chaos.loss_probability = loss_probability;
  chaos.delay_mean = delay_mean;
  chaos.delay_jitter = delay_jitter;
  cluster_.rpc().set_chaos(chaos);
}

void FaultInjector::start_chaos(const ChaosRates& rates, SimDuration tick) {
  SMARTH_CHECK_MSG(tick > 0, "chaos tick must be positive");
  rates_ = rates;
  tick_ = tick;
  set_rpc_chaos(rates_.rpc_loss, rates_.rpc_delay_mean,
                rates_.rpc_delay_jitter);
  if (rates_.crash_per_minute <= 0.0 && rates_.fail_slow_per_minute <= 0.0 &&
      rates_.flap_per_minute <= 0.0 && rates_.client_crash_per_minute <= 0.0 &&
      rates_.bitrot_per_replica_hour <= 0.0 &&
      rates_.nn_crash_per_minute <= 0.0) {
    return;  // only RPC chaos requested; no sampling loop needed
  }
  chaos_task_ = std::make_unique<sim::PeriodicTask>(cluster_.sim(), tick_,
                                                    [this] { chaos_tick(); });
  chaos_task_->start();
}

void FaultInjector::stop_chaos() {
  if (chaos_task_) chaos_task_->stop();
  cluster_.rpc().set_chaos(rpc::RpcChaos{});
}

bool FaultInjector::chaos_running() const {
  return chaos_task_ != nullptr && chaos_task_->running();
}

bool FaultInjector::node_busy(std::size_t index) const {
  return busy_until_[index] > cluster_.sim().now();
}

void FaultInjector::mark_busy(std::size_t index, SimTime until) {
  if (index < busy_until_.size()) {
    busy_until_[index] = std::max(busy_until_[index], until);
  }
}

bool FaultInjector::client_busy(std::size_t index) const {
  return index < client_busy_until_.size() &&
         client_busy_until_[index] > cluster_.sim().now();
}

void FaultInjector::mark_client_busy(std::size_t index, SimTime until) {
  if (client_busy_until_.size() < cluster_.client_count()) {
    client_busy_until_.resize(cluster_.client_count(), 0);
  }
  if (index < client_busy_until_.size()) {
    client_busy_until_[index] = std::max(client_busy_until_[index], until);
  }
}

void FaultInjector::chaos_tick() {
  const double per_minute_to_per_tick =
      to_seconds(tick_) / 60.0;
  const SimTime now = cluster_.sim().now();
  for (std::size_t i = 0; i < cluster_.datanode_count(); ++i) {
    // One draw per enabled fault class per node per tick, whether or not the
    // node is busy: the consumption pattern stays fixed, so a fault firing
    // early never shifts every later draw.
    const bool crash_hit =
        rates_.crash_per_minute > 0.0 &&
        rng_.uniform() < rates_.crash_per_minute * per_minute_to_per_tick;
    const bool slow_hit =
        rates_.fail_slow_per_minute > 0.0 &&
        rng_.uniform() < rates_.fail_slow_per_minute * per_minute_to_per_tick;
    const bool flap_hit =
        rates_.flap_per_minute > 0.0 &&
        rng_.uniform() < rates_.flap_per_minute * per_minute_to_per_tick;
    if (node_busy(i)) continue;
    if (crash_hit) {
      crash_and_rejoin(i, now, now + rates_.rejoin_delay);
    } else if (slow_hit) {
      fail_slow(i, now, now + rates_.fail_slow_duration,
                rates_.fail_slow_factor, rates_.fail_slow_factor);
    } else if (flap_hit) {
      flap_node(i, now, now + rates_.flap_duration);
    }
  }
  // Client draws come after all datanode draws, and only when the class is
  // enabled, so seeds that never ask for writer crashes keep the exact
  // fault timeline they had before this class existed.
  if (rates_.client_crash_per_minute > 0.0) {
    for (std::size_t i = 0; i < cluster_.client_count(); ++i) {
      const bool hit =
          rng_.uniform() <
          rates_.client_crash_per_minute * per_minute_to_per_tick;
      if (!hit || client_busy(i)) continue;
      crash_and_rejoin_client(i, now, now + rates_.client_rejoin_delay);
    }
  }
  // The namenode draw is last on the shared stream and only happens when the
  // class is enabled, so seeds predating control-plane chaos keep their exact
  // datanode/client fault timelines. The draw itself is unconditional (stream
  // alignment); only the application is gated on the namenode being up and no
  // recovery being pending.
  if (rates_.nn_crash_per_minute > 0.0) {
    const bool hit =
        rng_.uniform() < rates_.nn_crash_per_minute * per_minute_to_per_tick;
    if (hit && !cluster_.namenode_crashed() && nn_busy_until_ <= now) {
      if (rates_.nn_failover && cluster_.standby_enabled()) {
        crash_and_failover_namenode(now, now + rates_.nn_restart_delay);
      } else {
        crash_and_restart_namenode(now, now + rates_.nn_restart_delay);
      }
    }
  }
  // Bit-rot draws come from a dedicated stream (see bitrot_rng_), so this
  // block is invisible to the other classes' timelines. The per-tick
  // probability scales with the node's finalized replica count: rot is a
  // per-byte-at-rest phenomenon, and empty disks cannot decay. No busy
  // gating — media decays during crash and throttle windows too.
  if (rates_.bitrot_per_replica_hour > 0.0) {
    const double per_hour_to_per_tick = to_seconds(tick_) / 3600.0;
    for (std::size_t i = 0; i < cluster_.datanode_count(); ++i) {
      const auto replicas = static_cast<double>(
          cluster_.datanode(i).block_store().finalized_count());
      const double p =
          rates_.bitrot_per_replica_hour * replicas * per_hour_to_per_tick;
      if (bitrot_rng_.uniform() >= p) continue;
      if (cluster_.datanode(i).rot_random_finalized_chunk(
              bitrot_rng_.next())) {
        SMARTH_KV(LogLevel::kInfo, "faults", "chaos-bitrot").kv("dn", i);
        trace_fault("bitrot", {{"dn", idx_str(i)}});
        count_fault("bitrot_flips");
      }
    }
  }
}

}  // namespace smarth::faults
