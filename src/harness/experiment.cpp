#include "harness/experiment.hpp"

#include "common/check.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::harness {

namespace {

/// Points the installed trace recorder's clock at one run's simulation for
/// the guard's lifetime: the recorder outlives the cluster, its clock must
/// not.
class TraceClock {
 public:
  explicit TraceClock(const sim::Simulation& sim) {
    if (trace::active()) {
      trace::recorder()->set_time_source([&sim] { return sim.now(); });
    }
  }
  ~TraceClock() {
    if (trace::active()) trace::recorder()->set_time_source(nullptr);
  }
  TraceClock(const TraceClock&) = delete;
  TraceClock& operator=(const TraceClock&) = delete;
};

}  // namespace

Run run_protocol(const Scenario& scenario, cluster::Protocol protocol,
                 std::uint64_t seed) {
  SMARTH_CHECK_MSG(static_cast<bool>(scenario.make_spec),
                   "scenario has no spec builder");
  const char* name = cluster::protocol_name(protocol);
  // Before the cluster exists: datanodes cache registry references at
  // construction, which a later reset would dangle.
  metrics::global_registry().reset();
  if (trace::active()) trace::recorder()->begin_run(name);
  // Declared before the cluster, which attaches its sampler to the current
  // flight run when it is built and detaches when it is destroyed.
  std::optional<metrics::FlightRecorder> flight;
  std::optional<metrics::ScopedFlightInstall> flight_install;
  if (scenario.flight) {
    flight_install.emplace(&flight.emplace(*scenario.flight));
    flight->begin_run(name, seed);
  }
  cluster::Cluster cluster(scenario.make_spec(seed));
  const TraceClock clock(cluster.sim());
  if (scenario.prepare) scenario.prepare(cluster);
  const Observer observer =
      scenario.observe ? scenario.observe(cluster, protocol) : nullptr;
  Run run;
  if (scenario.open_loop) {
    const workload::OpenLoopResult& load = run.open_loop.emplace(
        workload::OpenLoopWorkload(protocol, *scenario.open_loop)
            .run(cluster));
    run.stats.started_at = load.started_at;
    run.stats.finished_at = load.finished_at;
    run.stats.file_size = load.bytes_completed;
    run.stats.failed = load.stuck > 0;
  } else {
    run.stats = cluster.run_upload(scenario.path, scenario.file_size, protocol);
  }
  if (scenario.settle) scenario.settle(cluster, run.stats);
  run.events = cluster.sim().events_executed();
  // While the cluster is alive: the quiescence watchdogs read the live
  // registry and a firing's dump wants the pending-event summary.
  if (flight) flight->finish_run(cluster.sim().now());
  if (observer) run.observed = observer(run.stats);
  if (flight) run.flight = flight->take_run();
  return run;
}

void warm_speed_records(cluster::Cluster& cluster, std::size_t client_index) {
  const auto& topology = cluster.network().topology();
  const NodeId client_node = cluster.client_node(client_index);
  const auto cross_throttle = cluster.network().cross_rack_throttle();
  std::vector<hdfs::SpeedRecord> records;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    const NodeId dn = cluster.datanode_id(i);
    Bandwidth speed = min(cluster.network().node_nic(client_node),
                          cluster.network().node_nic(dn));
    if (!topology.same_rack(client_node, dn) && cross_throttle) {
      speed = min(speed, *cross_throttle);
    }
    // Feed the client tracker a synthetic one-block observation at that rate.
    const Bytes sample = kMiB;
    const SimDuration elapsed = speed.transmit_time(sample);
    cluster.speed_tracker(client_index)
        .record(dn, sample, elapsed, cluster.sim().now());
    records.push_back(
        hdfs::SpeedRecord{dn, speed, cluster.sim().now()});
  }
  cluster.namenode().report_client_speeds(
      cluster.client(client_index).id(), records);
}

model::CostParams paper_cost_params(const cluster::ClusterSpec& spec,
                                    double cross_rack_mbps, Bytes file_size) {
  model::CostParams p;
  p.file_size = file_size;
  p.block_size = spec.hdfs.block_size;
  p.packet_size = spec.hdfs.packet_payload;
  p.t_c = spec.hdfs.packet_production_time;
  const auto& profile = spec.datanodes[0].profile;
  p.t_w = profile.disk_op_overhead +
          profile.disk_write.transmit_time(p.packet_size) +
          spec.hdfs.checksum_verify_time;
  p.t_n = milliseconds(2);
  const Bandwidth nic = profile.network;
  const Bandwidth cross =
      cross_rack_mbps > 0 ? Bandwidth::mbps(cross_rack_mbps) : nic;
  p.b_min = min(nic, cross);
  p.b_max = nic;
  return p;
}

double replica_drain_seconds(const cluster::ClusterSpec& spec,
                             double cross_rack_mbps, Bytes file_size) {
  if (cross_rack_mbps <= 0) return 0.0;
  const std::int64_t n = static_cast<std::int64_t>(spec.datanode_count()) /
                         spec.hdfs.replication;
  const std::int64_t blocks =
      (file_size + spec.hdfs.block_size - 1) / spec.hdfs.block_size;
  const std::int64_t rounds = (blocks + n - 1) / n;
  return static_cast<double>(rounds) *
         static_cast<double>(spec.hdfs.block_size) * 8.0 /
         (cross_rack_mbps * 1e6);
}

Scenario two_rack_scenario(
    const std::string& label,
    std::function<cluster::ClusterSpec(std::uint64_t)> make_spec,
    Bandwidth cross_rack_throttle, Bytes file_size) {
  Scenario scenario;
  scenario.label = label;
  scenario.make_spec = std::move(make_spec);
  scenario.file_size = file_size;
  scenario.prepare = [cross_rack_throttle](cluster::Cluster& cluster) {
    if (!cross_rack_throttle.is_unlimited()) {
      cluster.throttle_cross_rack(cross_rack_throttle);
    }
  };
  return scenario;
}

Scenario contention_scenario(
    const std::string& label,
    std::function<cluster::ClusterSpec(std::uint64_t)> make_spec,
    std::size_t slow_nodes, Bandwidth node_bandwidth, Bytes file_size) {
  Scenario scenario;
  scenario.label = label;
  scenario.make_spec = std::move(make_spec);
  scenario.file_size = file_size;
  scenario.prepare = [slow_nodes, node_bandwidth](cluster::Cluster& cluster) {
    SMARTH_CHECK(slow_nodes <= cluster.datanode_count());
    for (std::size_t i = 0; i < slow_nodes; ++i) {
      cluster.throttle_datanode(i, node_bandwidth);
    }
  };
  return scenario;
}

}  // namespace smarth::harness
