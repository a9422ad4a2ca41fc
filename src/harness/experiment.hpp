// Experiment runner: the one per-run lifecycle. Each run builds a fresh
// cluster (each protocol gets an identical, independently seeded world) on
// a freshly reset metrics registry, with its trace run and, when asked, its
// flight-recorder run; applies the scenario's traffic shaping and faults;
// uploads one file (or runs an open-loop load); lets the scenario settle
// the run; and reads the row's extra numbers off the same cluster. Every
// bench_paper row (figures, Table I, ablations, extensions) and every
// smarthsim world (single run, open loop, sweep seed) is a Scenario run
// through this.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "model/cost_model.hpp"
#include "trace/flight_recorder.hpp"
#include "workload/open_loop.hpp"

namespace smarth::harness {

/// Reads a run's extra numbers (first-hop speed, staging high water, read
/// rate, makespan, ...) once its measured upload has finished, whether it
/// completed or failed, and the scenario has settled the run.
using Observer = std::function<std::vector<double>(const hdfs::StreamStats&)>;

struct Scenario {
  std::string label = {};
  /// Builds the cluster spec for a given seed (fresh world per run).
  std::function<cluster::ClusterSpec(std::uint64_t seed)> make_spec = {};
  /// Applies throttles / faults / extra clients before the upload starts.
  std::function<void(cluster::Cluster&)> prepare = {};
  /// Optional: called on the run's own cluster after `prepare`, just before
  /// the measured upload starts in `protocol`. It may start work that runs
  /// alongside that upload (staged readers, extra writers) and returns the
  /// observer for the same run. It and the observer may throw to fail the
  /// run.
  std::function<Observer(cluster::Cluster&, cluster::Protocol)> observe = {};
  Bytes file_size = 8 * kGiB;
  std::string path = "/data/input.bin";
  /// Optional: an open-loop multi-tenant load that runs in place of the
  /// measured upload (no file is written at `path`); the observer gets its
  /// outcome folded into upload stats (see Run::stats).
  std::optional<workload::OpenLoopConfig> open_loop = {};
  /// Optional: samples the run on a flight recorder of this config. Its run
  /// begins before the cluster is built (the cluster attaches its sampler
  /// then) and ends before the observer, which reads it through
  /// metrics::flight_recorder(); Run::flight hands it back.
  std::optional<metrics::FlightRecorderConfig> flight = {};
  /// Optional: called on the run's own cluster once the measured upload (or
  /// the open-loop load) has ended, before the flight run finishes. It may
  /// drive the simulation on (recovery waits, read-backs), so that time is
  /// sampled and counted in Run::events, and the observer sees a run whose
  /// quiescence watchdogs have seen all of it.
  std::function<void(cluster::Cluster&, const hdfs::StreamStats&)> settle =
      {};
};

/// One run's outcome.
struct Run {
  /// The measured upload's stats, or the open-loop load's as one upload:
  /// its makespan and the bytes of its completed uploads, failed when a job
  /// was left stuck.
  hdfs::StreamStats stats;
  /// The open-loop load's own result, when the scenario ran one.
  std::optional<workload::OpenLoopResult> open_loop;
  /// The observer's numbers (empty when the scenario does not observe).
  std::vector<double> observed;
  /// Events the run's simulation executed, `settle` included.
  std::uint64_t events = 0;
  /// The finished flight-recorder run (empty without Scenario::flight).
  metrics::FlightRun flight;
};

/// Runs one protocol once: resets the thread's metrics registry (the
/// registry then holds this run's metrics until the next run resets it),
/// names the trace run after the protocol when a trace recorder is
/// installed and points its clock at the run's simulation until the run
/// ends, and names the flight run after the protocol too. Throws only on
/// harness misuse or from the scenario's hooks (a failed upload is reported
/// in the stats).
Run run_protocol(const Scenario& scenario, cluster::Protocol protocol,
                 std::uint64_t seed = 42);

/// Pre-warms the SMARTH speed machinery: seeds the client's tracker and the
/// namenode's speed board with the steady-state client->datanode rates
/// implied by the current NIC and throttle configuration. Benches that model
/// steady-state behaviour (and tests comparing against the closed-form
/// model) use this to skip the exploration warm-up an 8 GB paper run
/// amortizes naturally.
void warm_speed_records(cluster::Cluster& cluster,
                        std::size_t client_index = 0);

/// The paper's Formula 1-3 parameters (§III-D) for uploading `file_size` on
/// `spec` under a cross-rack throttle (0 = none), as a speed-warmed run
/// sees them: Tw is one packet's disk service plus checksum verification,
/// Tn an addBlock round trip plus the setup chain, Bmax the datanode NIC
/// (warmed SMARTH keeps the first hop on the client's rack) and Bmin the
/// throttle where it is tighter.
model::CostParams paper_cost_params(const cluster::ClusterSpec& spec,
                                    double cross_rack_mbps, Bytes file_size);

/// SMARTH's replica-drain makespan in seconds (0 without a throttle): at
/// most |datanodes|/replication pipelines drain at once, each block crosses
/// the throttled hop, so the upload takes ceil(blocks/n) rounds of one
/// block at the throttle. A steady-state rate bound would be too optimistic
/// for files only a few blocks long.
double replica_drain_seconds(const cluster::ClusterSpec& spec,
                             double cross_rack_mbps, Bytes file_size);

/// Convenience scenario constructors used across benches ------------------

/// Two-rack scenario: cluster by builder + cross-rack throttle (unlimited
/// bandwidth when `throttle` is kUnlimitedBandwidth).
Scenario two_rack_scenario(
    const std::string& label,
    std::function<cluster::ClusterSpec(std::uint64_t)> make_spec,
    Bandwidth cross_rack_throttle, Bytes file_size);

/// Contention scenario: throttle the first `slow_nodes` datanodes to
/// `node_bandwidth` (the paper's Figs. 10-12).
Scenario contention_scenario(
    const std::string& label,
    std::function<cluster::ClusterSpec(std::uint64_t)> make_spec,
    std::size_t slow_nodes, Bandwidth node_bandwidth, Bytes file_size);

}  // namespace smarth::harness
