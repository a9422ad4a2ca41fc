// The chaos engine: a single place that turns a Cluster into a hostile one.
// Two modes compose freely:
//
//  * Deterministic one-shot injections — crash-and-rejoin, fail-slow windows
//    (disk and/or NIC throttled by a factor, then restored), NIC flaps
//    (node isolated then healed), checksum corruption, RPC loss/delay — each
//    scheduled at explicit simulated times. workload::FaultPlan is a
//    declarative list of these one-shots. Rack partitions are a Network
//    capability (net::Network::set_rack_partition), driven directly.
//
//  * Seeded chaos mode — a periodic tick samples per-datanode Bernoulli
//    trials from configurable per-minute rates and applies the same
//    injections with durations drawn from the chaos Rng. The injector owns
//    its own generator, so a (chaos seed, rates, cluster seed) triple
//    reproduces the fault timeline bit-for-bit, independent of how much
//    randomness the workload itself consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/periodic_task.hpp"

namespace smarth::faults {

/// Per-minute event rates (and shape parameters) for seeded chaos mode.
/// A rate of r means each datanode suffers that fault ~r times per simulated
/// minute, sampled independently per tick.
struct ChaosRates {
  double crash_per_minute = 0.0;      ///< crash-and-rejoin events
  double fail_slow_per_minute = 0.0;  ///< transient disk+NIC degradation
  double flap_per_minute = 0.0;       ///< NIC isolation windows

  /// Writer-crash chaos: each client host suffers ~r crash-and-rejoin
  /// events per simulated minute. The crashed writer's leases expire and
  /// the namenode recovers its under-construction blocks.
  double client_crash_per_minute = 0.0;

  /// Bit-rot chaos: each *finalized replica* decays ~r times per simulated
  /// hour (scaled by how many finalized replicas the node actually holds, so
  /// fuller disks rot more — like real media). Each event flips one stored
  /// chunk at rest; detection is left to verified reads and the block
  /// scanner. Sampled from a dedicated Rng stream so enabling it never
  /// shifts the other classes' timelines.
  double bitrot_per_replica_hour = 0.0;

  /// Control-plane loss chaos: the namenode process dies ~r times per
  /// simulated minute and comes back after nn_restart_delay — via a cold
  /// restart (fsimage + edit-log tail) or, when nn_failover is set and a
  /// standby is enabled, a warm failover. While the namenode is down, client
  /// RPCs fall into their retry backoff and heartbeats are dropped; on
  /// recovery the namenode runs in safe mode until replicas re-report.
  double nn_crash_per_minute = 0.0;

  /// Control-plane chaos, applied to the RPC bus when any() holds.
  double rpc_loss = 0.0;              ///< per-message drop probability
  SimDuration rpc_delay_mean = 0;     ///< extra control-message latency
  SimDuration rpc_delay_jitter = 0;   ///< uniform extra on top of the mean

  // Shape parameters for sampled events.
  SimDuration rejoin_delay = seconds(5);        ///< crash -> restart
  SimDuration fail_slow_duration = seconds(10); ///< throttle window
  double fail_slow_factor = 8.0;                ///< bandwidth divisor
  SimDuration flap_duration = seconds(2);       ///< isolation window
  SimDuration client_rejoin_delay = seconds(10);///< writer crash -> reboot
  SimDuration nn_restart_delay = seconds(5);    ///< nn crash -> recovery start
  bool nn_failover = false;  ///< recover via standby instead of cold restart

  bool any() const {
    return crash_per_minute > 0.0 || fail_slow_per_minute > 0.0 ||
           flap_per_minute > 0.0 || client_crash_per_minute > 0.0 ||
           bitrot_per_replica_hour > 0.0 || nn_crash_per_minute > 0.0 ||
           rpc_loss > 0.0 || rpc_delay_mean > 0;
  }
};

/// Every applied injection (deterministic or chaos) is counted in the metrics
/// registry as faults.<class>: crashes, restarts, fail_slows, flaps,
/// corruptions, client_crashes, client_restarts, bitrot_flips, nn_crashes,
/// nn_restarts and nn_failovers.
class FaultInjector {
 public:
  /// `chaos_seed` seeds the injector's private Rng (chaos mode and duration
  /// jitter); deterministic one-shot APIs never draw from it.
  explicit FaultInjector(cluster::Cluster& cluster,
                         std::uint64_t chaos_seed = 0xc4a05c4a05ULL);

  // --- Deterministic one-shot injections ------------------------------------
  /// Hard crash with no rejoin (the node stays dark).
  void crash(std::size_t datanode_index, SimTime at);
  /// Crash at `at`, reboot (cleared staging, re-registration, block
  /// re-report) at `rejoin_at`.
  void crash_and_rejoin(std::size_t datanode_index, SimTime at,
                        SimTime rejoin_at);
  /// Fail-slow window: divides the node's disk write bandwidth by
  /// `disk_factor` and its NIC by `nic_factor` during [from, until), then
  /// restores the previous rates. Factors <= 1 leave that resource alone.
  void fail_slow(std::size_t datanode_index, SimTime from, SimTime until,
                 double disk_factor, double nic_factor);
  /// Link flap: the node's NIC drops every message during [down_at, up_at).
  void flap_node(std::size_t datanode_index, SimTime down_at, SimTime up_at);
  /// Checksum corruption on the nth packet arriving at the node (1-based).
  void corrupt_nth_packet(std::size_t datanode_index, std::uint64_t nth);
  /// Bit-rot at rest: at time `at`, one pseudo-randomly chosen chunk of one
  /// finalized replica on the node decays (its stored CRC goes stale).
  /// Deterministic — the (datanode_index, at) pair fully determines which
  /// chunk rots; nothing is drawn from the chaos Rng. No-op when the node
  /// holds no finalized data yet.
  void bitrot(std::size_t datanode_index, SimTime at);
  /// Writer crash with no reboot: the client host goes dark, its heartbeat
  /// stops, and every stream it owned aborts mid-write. Lease recovery is
  /// the only path by which its files leave under-construction.
  void crash_client(std::size_t client_index, SimTime at);
  /// Writer crash at `at`, host reboot (heartbeat resumes, no stream state
  /// survives) at `rejoin_at`.
  void crash_and_rejoin_client(std::size_t client_index, SimTime at,
                               SimTime rejoin_at);
  /// Namenode crash with no recovery: the control plane stays dark. Client
  /// RPCs burn through their retry budgets; heartbeats and blockReceived
  /// notifications drop on the floor.
  void crash_namenode(SimTime at);
  /// Namenode crash at `at`, cold restart initiated at `restart_at` (service
  /// resumes after the process-boot delay plus edit-log replay, in safe mode
  /// until enough replicas re-report).
  void crash_and_restart_namenode(SimTime at, SimTime restart_at);
  /// Namenode crash at `at`, warm standby promotion at `failover_at`
  /// (cluster.enable_standby() must have been called).
  void crash_and_failover_namenode(SimTime at, SimTime failover_at);
  /// Installs RPC chaos on the bus (loss probability + delay distribution).
  void set_rpc_chaos(double loss_probability, SimDuration delay_mean,
                     SimDuration delay_jitter);

  // --- Seeded chaos mode ------------------------------------------------------
  /// Starts the sampling loop. Each tick draws, per datanode, one Bernoulli
  /// trial per enabled fault class with p = rate * tick / minute; a node
  /// already serving a fault window is skipped (draws still happen, keeping
  /// the stream aligned). Also installs the rates' RPC chaos.
  void start_chaos(const ChaosRates& rates,
                   SimDuration tick = milliseconds(500));
  void stop_chaos();
  bool chaos_running() const;

  const ChaosRates& rates() const { return rates_; }

 private:
  void chaos_tick();
  bool node_busy(std::size_t index) const;
  void mark_busy(std::size_t index, SimTime until);
  bool client_busy(std::size_t index) const;
  void mark_client_busy(std::size_t index, SimTime until);

  cluster::Cluster& cluster_;
  Rng rng_;
  /// Dedicated stream for bit-rot chaos draws: enabling the class must not
  /// shift the crash/slow/flap/client timelines existing seeds rely on.
  Rng bitrot_rng_;
  ChaosRates rates_;
  std::unique_ptr<sim::PeriodicTask> chaos_task_;
  SimDuration tick_ = milliseconds(500);
  /// Per-datanode end of the current fault window (chaos mode skips busy
  /// nodes so windows never overlap on one node).
  std::vector<SimTime> busy_until_;
  /// Same ledger for client hosts; sized lazily because clients can be
  /// added after the injector is constructed.
  std::vector<SimTime> client_busy_until_;
  /// End of the current namenode outage window (chaos never stacks a second
  /// crash on a pending recovery).
  SimTime nn_busy_until_ = 0;
};

}  // namespace smarth::faults
