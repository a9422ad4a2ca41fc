// smarthsim — command-line driver for the simulator. The flags describe one
// harness::Scenario (cluster, throttles, fault injector and every scheduled
// fault, recovery waits and read-back), and every world runs through
// harness::run_protocol: one upload per requested protocol, or the
// open-loop multi-tenant workload under --clients, followed by a report
// (optionally with a pipeline-concurrency timeline and protocol-level
// logging). --sweep-seeds runs the same scenario for N seeds on worker
// threads and merges the results.
//
//   smarthsim --cluster=medium --size-gb=8 --throttle-mbps=50
//   smarthsim --cluster=hetero --protocol=both --timeline
//   smarthsim --cluster=small --slow-nodes=2 --slow-mbps=50 --crash=3@30
//   smarthsim --cluster=small --crash=3@10 --rejoin=3@25 --fail-slow=1@5-20@8
//   smarthsim --cluster=small --crash=0@10,1@12,0@40 --rejoin=0@25
//   smarthsim --chaos-rates=crash=2,failslow=4,rpcloss=0.05 --chaos-seed=7
//   smarthsim --bitrot=0@40,1@45 --scan-mbps=16 --read-back
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "common/flags.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/report.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/straggler.hpp"
#include "trace/trace_recorder.hpp"
#include "workload/fault_plan.hpp"
#include "workload/open_loop.hpp"

using namespace smarth;

namespace {

cluster::ClusterSpec spec_from_flags(const FlagSet& flags,
                                     std::uint64_t seed) {
  const std::string name = flags.get("cluster");
  cluster::ClusterSpec spec;
  if (name == "hetero" || name == "heterogeneous") {
    spec = cluster::heterogeneous_cluster(seed);
  } else {
    const auto datanodes = static_cast<std::size_t>(
        flags.get_int("datanodes").value_or(9));
    spec = cluster::homogeneous_cluster(cluster::instance_by_name(name),
                                        datanodes, seed);
  }
  if (const auto block_mb = flags.get_int("block-mb")) {
    spec.hdfs.block_size = *block_mb * kMiB;
  }
  if (const auto repl = flags.get_int("replication")) {
    spec.hdfs.replication = static_cast<int>(*repl);
  }
  if (const auto scan = flags.get_double("scan-mbps"); scan && *scan > 0) {
    spec.hdfs.scanner_bytes_per_second =
        static_cast<Bytes>(*scan * static_cast<double>(kMiB));
  }
  // --fidelity is validated in main() before any run.
  if (flags.get("fidelity") == "block") {
    spec.hdfs.fidelity = hdfs::DataFidelity::kBlock;
  }
  if (const auto tol = flags.get_double("fidelity-tolerance");
      tol && *tol > 0) {
    spec.hdfs.block_fidelity_tolerance = *tol;
  }
  // Gray-failure defenses (all default off; see HdfsConfig).
  if (flags.get_bool("hedged-reads")) spec.hdfs.hedged_reads = true;
  if (flags.get_bool("slow-evict")) spec.hdfs.slow_node_eviction = true;
  // Control-plane overload model (default off; see HdfsConfig). Admission
  // control implies the service model — shedding needs a queue to bound.
  if (flags.get_bool("nn-service-model")) spec.hdfs.nn_service_model = true;
  if (flags.get_bool("nn-admission-control")) {
    spec.hdfs.nn_service_model = true;
    spec.hdfs.nn_admission_control = true;
  }
  return spec;
}

/// Writes an export file and says so on stderr; exits 1 when it cannot
/// open, write or close it.
void write_output(const std::string& path, const std::string& content,
                  const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the buffer, so a full disk may only show up here.
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s to %s: %s\n", what, path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes --timeseries-out: every run of `flight`, as CSV for a .csv path
/// and JSON otherwise.
void write_timeseries(const std::string& path,
                      const metrics::FlightRecorder& flight) {
  write_output(path,
               ends_with(path, ".csv") ? flight.to_csv() : flight.to_json(),
               "time series");
}

using Snapshots = std::vector<std::pair<std::string, std::string>>;

/// Writes one snapshot per protocol run as {"<protocol>":<snapshot>,...},
/// or, given a CSV header, as that header followed by every snapshot's
/// rows. Shared by --metrics-out and --editlog-out.
void write_snapshots(const std::string& path, const char* what,
                     const Snapshots& snapshots,
                     const char* csv_header = nullptr) {
  std::string out;
  if (csv_header != nullptr) {
    out = csv_header;
    for (const auto& [name, body] : snapshots) out += body;
  } else {
    out = "{";
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + snapshots[i].first + "\":" + snapshots[i].second;
    }
    out += "}\n";
  }
  write_output(path, out, what);
}

/// A typo'd fault flag silently running a fault-free experiment is worse
/// than an abort: fail loudly instead.
[[noreturn]] void fault_flag_error(const std::string& flag,
                                   const std::string& detail) {
  std::fprintf(stderr, "malformed --%s: %s\n", flag.c_str(), detail.c_str());
  std::exit(2);
}

/// One fault-spec number, parsed strictly: the whole field must be a finite
/// number, so a typo like "5x" exits 2 instead of running at 5 s.
double spec_number(const std::string& flag, const std::string& field) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(field, &used);
  } catch (const std::logic_error&) {
    used = 0;
  }
  if (used == 0 || used != field.size() || !std::isfinite(value)) {
    fault_flag_error(flag, "not a number: '" + field + "'");
  }
  return value;
}

/// Parses --chaos-rates: crash=<per-min>,failslow=<per-min>,flap=<per-min>,
/// clientcrash=<per-min>,bitrot=<per-replica-hour>,nncrash=<per-min>,
/// rpcloss=<prob>,rpcdelay-ms=<ms>,rpcjitter-ms=<ms>,rejoin-s=<s>,
/// slowdur-s=<s>,slowfactor=<x>,flapdur-s=<s>,clientrejoin-s=<s>,
/// nnrestart-s=<s>,nnfailover=<0|1>.
faults::ChaosRates parse_chaos_rates(const std::string& text) {
  faults::ChaosRates rates;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    start = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      fault_flag_error("chaos-rates", "expected <key>=<value>, got '" +
                                          item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const double v = spec_number("chaos-rates", value);
    if (key == "crash") rates.crash_per_minute = v;
    else if (key == "failslow") rates.fail_slow_per_minute = v;
    else if (key == "flap") rates.flap_per_minute = v;
    else if (key == "clientcrash") rates.client_crash_per_minute = v;
    else if (key == "bitrot") rates.bitrot_per_replica_hour = v;
    else if (key == "clientrejoin-s") rates.client_rejoin_delay = seconds_f(v);
    else if (key == "rpcloss") rates.rpc_loss = v;
    else if (key == "rpcdelay-ms") rates.rpc_delay_mean = milliseconds_f(v);
    else if (key == "rpcjitter-ms") rates.rpc_delay_jitter = milliseconds_f(v);
    else if (key == "rejoin-s") rates.rejoin_delay = seconds_f(v);
    else if (key == "slowdur-s") rates.fail_slow_duration = seconds_f(v);
    else if (key == "slowfactor" || key == "failslow-factor") {
      if (v <= 0) {
        fault_flag_error("chaos-rates",
                         "failslow-factor must be positive, got " + value);
      }
      rates.fail_slow_factor = v;
    }
    else if (key == "flapdur-s") rates.flap_duration = seconds_f(v);
    else if (key == "nncrash") rates.nn_crash_per_minute = v;
    else if (key == "nnrestart-s") rates.nn_restart_delay = seconds_f(v);
    else if (key == "nnfailover") rates.nn_failover = v != 0.0;
    else fault_flag_error("chaos-rates", "unknown key: " + key);
  }
  return rates;
}

/// A flag that must be a positive number when given (`what` names it in
/// the error). main() checks every such flag before any run, even when this
/// run does not consume it: a silently ignored or clamped knob runs the
/// wrong experiment.
std::optional<double> positive_flag(const FlagSet& flags,
                                    const std::string& name,
                                    const std::string& what =
                                        "a positive number") {
  if (!flags.has(name)) return std::nullopt;
  const auto value = flags.get_double(name);
  if (!value || *value <= 0) {
    fault_flag_error(name, "must be " + what + ", got " + flags.get(name));
  }
  return value;
}

/// A datanode index, which must name a node of the cluster the flags
/// describe (`datanodes` of them): a wrong one would abort the run.
std::size_t spec_datanode(const std::string& flag, const std::string& field,
                          std::size_t datanodes) {
  const double index = spec_number(flag, field);
  if (index < 0 || index != std::floor(index)) {
    fault_flag_error(flag, "not a datanode index: '" + field + "'");
  }
  if (index >= static_cast<double>(datanodes)) {
    fault_flag_error(flag, "datanode " + field + " is not in a cluster of " +
                               std::to_string(datanodes));
  }
  return static_cast<std::size_t>(index);
}

SimDuration spec_seconds(const std::string& flag, const std::string& field) {
  const double at = spec_number(flag, field);
  if (at < 0) fault_flag_error(flag, "negative time: '" + field + "'");
  return seconds_f(at);
}

using NodeTimes = std::vector<std::pair<std::size_t, SimDuration>>;

/// Parses a "<datanode>@<seconds>[,...]" list (--crash, --rejoin,
/// --bitrot). An empty list or item exits 2.
NodeTimes node_times(const FlagSet& flags, const std::string& flag,
                     std::size_t datanodes) {
  const std::string spec = flags.get(flag);
  NodeTimes out;
  std::size_t start = 0;
  do {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    const auto at = item.find('@');
    if (at == std::string::npos) {
      fault_flag_error(flag,
                       "expected <datanode>@<seconds>[,...], got " + spec);
    }
    out.emplace_back(spec_datanode(flag, item.substr(0, at), datanodes),
                     spec_seconds(flag, item.substr(at + 1)));
    start = comma + 1;
  } while (start <= spec.size());
  return out;
}

struct NodeWindow {
  std::size_t node;
  SimDuration from;
  SimDuration until;
};

/// Parses a "<datanode>@<from>-<until>" window (--fail-slow, --flap);
/// `shape` names the expected syntax in the error.
NodeWindow node_window(const std::string& flag, const std::string& spec,
                       const std::string& shape, std::size_t datanodes) {
  const auto at = spec.find('@');
  const auto dash = spec.find('-', at);
  if (at == std::string::npos || dash == std::string::npos) {
    fault_flag_error(flag, "expected " + shape + ", got " + spec);
  }
  const NodeWindow w{spec_datanode(flag, spec.substr(0, at), datanodes),
                     spec_seconds(flag, spec.substr(at + 1, dash - at - 1)),
                     spec_seconds(flag, spec.substr(dash + 1))};
  if (w.until <= w.from) {
    fault_flag_error(flag, "the window must end after it starts: " + spec);
  }
  return w;
}

/// Parses the one-shot fault flags (--crash/--rejoin/--fail-slow/--flap/
/// --bitrot) into a FaultPlan for a cluster of `datanodes`. Exits loudly on
/// malformed specs.
workload::FaultPlan plan_from_flags(const FlagSet& flags,
                                    std::size_t datanodes) {
  workload::FaultPlan plan;
  if (flags.has("crash")) {
    // A datanode's k-th --rejoin entry reboots it after its k-th --crash
    // entry, so it must come later.
    const NodeTimes rejoins =
        flags.has("rejoin") ? node_times(flags, "rejoin", datanodes)
                            : NodeTimes{};
    std::vector<bool> paired(rejoins.size(), false);
    for (const auto& [node, at] : node_times(flags, "crash", datanodes)) {
      std::size_t r = 0;
      while (r < rejoins.size() && (paired[r] || rejoins[r].first != node)) {
        ++r;
      }
      if (r == rejoins.size()) {
        plan.crash(node, at);
        continue;
      }
      paired[r] = true;
      if (rejoins[r].second <= at) {
        fault_flag_error("rejoin", "datanode " + std::to_string(node) +
                                       " must rejoin after its crash");
      }
      plan.crash_and_rejoin(node, at, rejoins[r].second);
    }
    for (std::size_t r = 0; r < rejoins.size(); ++r) {
      if (!paired[r]) {
        fault_flag_error("rejoin", "datanode " +
                                       std::to_string(rejoins[r].first) +
                                       " has no --crash to rejoin from");
      }
    }
  } else if (flags.has("rejoin")) {
    fault_flag_error("rejoin", "requires --crash");
  }
  if (flags.has("fail-slow")) {
    // --fail-slow=<datanode>@<from>-<until>[@<factor>]; --fail-slow-factor
    // is the first-class severity knob: it supplies (or overrides) the
    // factor here and of chaos failslow events, so sweeps vary one flag.
    const std::string fs = flags.get("fail-slow");
    const auto at2 = fs.find('@', fs.find('-'));
    const NodeWindow w = node_window("fail-slow", fs.substr(0, at2),
                                     "<datanode>@<from>-<until>[@<factor>]",
                                     datanodes);
    std::optional<double> factor = positive_flag(flags, "fail-slow-factor");
    if (at2 != std::string::npos) {
      const double spec_factor = spec_number("fail-slow", fs.substr(at2 + 1));
      if (!factor) factor = spec_factor;
    }
    if (!factor) {
      fault_flag_error("fail-slow",
                       "no severity: append @<factor> or set "
                       "--fail-slow-factor");
    }
    if (*factor <= 0) {
      fault_flag_error("fail-slow", "factor must be positive, got " + fs);
    }
    plan.fail_slow(w.node, w.from, w.until, *factor);
  }
  if (flags.has("flap")) {
    const NodeWindow w =
        node_window("flap", flags.get("flap"), "<datanode>@<down>-<up>",
                    datanodes);
    plan.flap(w.node, w.from, w.until);
  }
  if (flags.has("bitrot")) {
    // --bitrot=<datanode>@<seconds>[,...]: one finalized chunk at rest
    // flips on that node at that time.
    for (const auto& [node, at] : node_times(flags, "bitrot", datanodes)) {
      plan.bitrot(node, at);
    }
  }
  return plan;
}

/// Builds the open-loop workload config from flags. Values are validated in
/// main() before any run; defaults here match OpenLoopConfig except the
/// arrival rate, which scales with the tenant count when not given.
workload::OpenLoopConfig open_loop_config_from_flags(const FlagSet& flags) {
  workload::OpenLoopConfig cfg;
  cfg.clients =
      static_cast<int>(flags.get_int("clients").value_or(cfg.clients));
  cfg.arrival_rate = flags.get_double("arrival-rate")
                         .value_or(0.2 * static_cast<double>(cfg.clients));
  cfg.zipf_s = flags.get_double("zipf-s").value_or(cfg.zipf_s);
  if (const auto dur = flags.get_double("open-loop-duration")) {
    cfg.duration = seconds_f(*dur);
  }
  return cfg;
}

/// Whether this run injects faults or, in open-loop mode, models namenode
/// overload. Then a failed upload or read-back, a shed job or a stuck job is
/// a measured outcome; without them it is a harness error. It also turns the
/// robustness tables on.
bool faults_active(const FlagSet& flags, const workload::FaultPlan& plan) {
  const bool overload_model = flags.get_bool("nn-service-model") ||
                              flags.get_bool("nn-admission-control");
  return !plan.empty() || flags.has("chaos-rates") ||
         flags.has("client-crash") || flags.has("nn-crash") ||
         (flags.has("clients") && overload_model);
}

/// Everything a run takes from the flags, parsed once before any world is
/// built, so a malformed spec exits 2 on the main thread and never inside a
/// sweep worker.
struct Experiment {
  explicit Experiment(const FlagSet& f) : flags(f) {}

  const FlagSet& flags;
  std::uint64_t base_seed = 42;
  std::uint64_t chaos_base = 1;  ///< chaos seed of base_seed's world
  bool open_loop = false;
  workload::FaultPlan plan;
  std::optional<SimTime> client_crash_at;
  std::optional<SimTime> nn_crash_at;
  SimDuration nn_outage = seconds(3);
  std::optional<faults::ChaosRates> chaos;
  /// Under --timeseries-out or --timeline: every run's flight recorder.
  std::optional<metrics::FlightRecorderConfig> flight;
};

Experiment experiment_from_flags(const FlagSet& flags) {
  Experiment exp(flags);
  exp.base_seed =
      static_cast<std::uint64_t>(flags.get_int("seed").value_or(42));
  exp.chaos_base =
      static_cast<std::uint64_t>(flags.get_int("chaos-seed").value_or(1));
  exp.open_loop = flags.has("clients");
  const std::size_t datanodes =
      spec_from_flags(flags, exp.base_seed).datanode_count();
  exp.plan = plan_from_flags(flags, datanodes);
  if (flags.get_int("slow-nodes").value_or(0) >
      static_cast<std::int64_t>(datanodes)) {
    fault_flag_error("slow-nodes", "more than the cluster's " +
                                       std::to_string(datanodes) +
                                       " datanodes");
  }
  if (flags.has("client-crash")) {
    // --client-crash=<seconds>: the writer host dies mid-upload; lease
    // recovery must close the file at its salvaged prefix.
    exp.client_crash_at =
        spec_seconds("client-crash", flags.get("client-crash"));
  }
  if (flags.has("nn-crash")) {
    // --nn-crash=<seconds>: the namenode dies mid-upload and recovery starts
    // after --nn-outage seconds — a cold restart from fsimage + edit-log
    // tail, or a warm standby promotion under --nn-failover.
    exp.nn_crash_at = spec_seconds("nn-crash", flags.get("nn-crash"));
    if (const auto outage = positive_flag(flags, "nn-outage")) {
      exp.nn_outage = seconds_f(*outage);
    }
  }
  if (flags.has("chaos-rates")) {
    exp.chaos = parse_chaos_rates(flags.get("chaos-rates"));
    if (const auto factor = positive_flag(flags, "fail-slow-factor")) {
      exp.chaos->fail_slow_factor = *factor;
    }
  }
  // One recorder config serves both --timeseries-out and --timeline.
  if (flags.has("timeseries-out") || flags.get_bool("timeline")) {
    exp.flight = metrics::FlightRecorderConfig{
        .sample_interval = seconds_f(
            positive_flag(flags, "sample-interval",
                          "a positive number of seconds")
                .value_or(1.0))};
  }
  return exp;
}

/// The path of the measured upload and of its read-back.
constexpr const char* kUploadPath = "/data/cli.bin";

/// Applies --verbose / --log-level with the logger's clock on `cluster`;
/// main() restores the quiet default after the run. Sweep workers leave the
/// Logger alone: it is process-global.
void apply_log_flags(const FlagSet& flags, cluster::Cluster& cluster) {
  LogLevel level = LogLevel::kWarn;
  bool chosen = false;
  if (flags.get_bool("verbose")) {
    level = LogLevel::kInfo;
    chosen = true;
  }
  // --log-level wins over --verbose; validated in main() before any run.
  if (const std::string name = flags.get("log-level"); !name.empty()) {
    chosen = parse_log_level(name, level);
  }
  if (chosen) {
    Logger::instance().set_level(level);
    Logger::instance().set_time_source(
        [&cluster] { return cluster.sim().now(); });
  }
}

/// Drives the simulation on after the upload's callback. Under
/// --client-crash, until lease recovery has closed the file: it must never
/// stay under construction past hdfs::lease_recovery_wait. Under
/// --nn-crash, until the scheduled outage and recovery have landed and the
/// namenode has left safe mode, even when the upload beat the crash or
/// failed before the recovery ended: the robustness counters and
/// --editlog-out should reflect the whole timeline, and a recovery that
/// never completes is a bug worth failing on, not silently truncating.
void drive_after_upload(const Experiment& exp, cluster::Cluster& cluster) {
  sim::Simulation& sim = cluster.sim();
  if (exp.client_crash_at) {
    if (sim.now() <= *exp.client_crash_at) {
      sim.run_until(*exp.client_crash_at + milliseconds(1));
    }
    const auto closed = [&cluster] {
      const hdfs::FileEntry* entry =
          cluster.namenode().file_by_path(kUploadPath);
      return entry == nullptr || entry->state == hdfs::FileState::kClosed;
    };
    if (!sim.run_until_done(
            closed, sim.now() + hdfs::lease_recovery_wait(cluster.config()))) {
      std::fprintf(stderr,
                   "lease recovery failed to close the file within the "
                   "recovery budget\n");
      std::exit(1);
    }
  }
  if (exp.nn_crash_at) {
    const SimTime recovery_start = *exp.nn_crash_at + exp.nn_outage;
    if (sim.now() <= recovery_start) {
      sim.run_until(recovery_start + milliseconds(1));
    }
    const auto recovered = [&cluster] {
      return !cluster.namenode_crashed() && !cluster.namenode().safe_mode();
    };
    if (!sim.run_until_done(recovered, sim.now() + seconds(120))) {
      std::fprintf(stderr,
                   "namenode recovery did not complete within the budget\n");
      std::exit(1);
    }
  }
}

/// What a single run keeps beyond harness::Run: the read-back under
/// --read-back and the edit log under --editlog-out.
struct Aftermath {
  std::optional<hdfs::ReadStats> read;
  std::string editlog_json;
};

/// The flags' world for `seed` as one harness scenario, which single-run,
/// open-loop and sweep modes all run through harness::run_protocol.
/// `prepare` applies the cross-rack throttle and the slow nodes; `observe`
/// arms a fault injector with --client-crash, --nn-crash, the fault plan and
/// chaos, in that order (same-time events fire in FIFO order, so the order
/// is part of the result), and its observer keeps the injector until the
/// run is over; `settle` drives the run through its recoveries and
/// read-back. `aftermath` is null for sweep seeds, which run quiet and keep
/// no read-back or edit log.
harness::Scenario scenario_from_flags(const Experiment& exp,
                                      std::uint64_t seed,
                                      Aftermath* aftermath) {
  const FlagSet& flags = exp.flags;
  harness::Scenario scenario;
  scenario.make_spec = [&flags](std::uint64_t s) {
    return spec_from_flags(flags, s);
  };
  scenario.prepare = [&flags, aftermath](cluster::Cluster& cluster) {
    if (aftermath != nullptr) apply_log_flags(flags, cluster);
    if (const auto throttle = flags.get_double("throttle-mbps");
        throttle && *throttle > 0) {
      cluster.throttle_cross_rack(Bandwidth::mbps(*throttle));
    }
    const auto slow_nodes = flags.get_int("slow-nodes").value_or(0);
    const double slow_mbps = flags.get_double("slow-mbps").value_or(50);
    for (std::int64_t i = 0; i < slow_nodes; ++i) {
      cluster.throttle_datanode(static_cast<std::size_t>(i),
                                Bandwidth::mbps(slow_mbps));
    }
  };
  const std::uint64_t chaos_seed = exp.chaos_base + (seed - exp.base_seed);
  scenario.observe = [&exp, chaos_seed](cluster::Cluster& cluster,
                                        cluster::Protocol) {
    auto injector =
        std::make_shared<faults::FaultInjector>(cluster, chaos_seed);
    if (exp.client_crash_at) injector->crash_client(0, *exp.client_crash_at);
    if (exp.nn_crash_at) {
      const SimTime recovery_at = *exp.nn_crash_at + exp.nn_outage;
      if (exp.flags.get_bool("nn-failover")) {
        cluster.enable_standby();
        injector->crash_and_failover_namenode(*exp.nn_crash_at, recovery_at);
      } else {
        injector->crash_and_restart_namenode(*exp.nn_crash_at, recovery_at);
      }
    }
    if (!exp.plan.empty()) exp.plan.apply(*injector);
    if (exp.chaos) {
      // Warm failover needs a standby tailing the log before the first crash.
      if (exp.chaos->nn_failover) cluster.enable_standby();
      injector->start_chaos(*exp.chaos);
    }
    return harness::Observer([injector](const hdfs::StreamStats&) {
      return std::vector<double>{};
    });
  };
  if (exp.open_loop) {
    scenario.open_loop = open_loop_config_from_flags(flags);
  } else {
    scenario.path = kUploadPath;
    scenario.file_size = static_cast<Bytes>(
        flags.get_double("size-gb").value_or(1.0) * static_cast<double>(kGiB));
  }
  scenario.flight = exp.flight;
  scenario.settle = [&exp, aftermath](cluster::Cluster& cluster,
                                      const hdfs::StreamStats& stats) {
    drive_after_upload(exp, cluster);
    if (aftermath == nullptr) return;
    if (exp.flags.get_bool("read-back") && !stats.failed) {
      // Let every scheduled rot land before reading: a --bitrot past the
      // upload's end would otherwise never fire (the simulation stops when
      // the last requested operation completes).
      SimTime last_rot = 0;
      for (const workload::FaultPlan::Bitrot& b : exp.plan.bitrots) {
        last_rot = std::max(last_rot, b.at);
      }
      if (cluster.sim().now() <= last_rot) {
        cluster.sim().run_until(last_rot + milliseconds(1));
      }
      // Read the file back through the checksum-verifying stream; rotted
      // replicas fail over and get reported to the namenode.
      aftermath->read = cluster.run_download(kUploadPath);
    }
    if (exp.flags.has("editlog-out")) {
      aftermath->editlog_json = cluster.edit_log().to_json();
    }
  };
  return scenario;
}

/// --sweep-seeds mode: N independent worlds per protocol, one per seed,
/// spread over --jobs worker threads. Share-nothing: each seed runs the same
/// scenario as a single run, on a fresh thread-local metrics registry, so
/// every per-seed result is identical to running that seed alone and the
/// merged report is independent of thread scheduling. Each seed's flight
/// run is added to `flight` in seed order.
int run_sweeps(const Experiment& exp,
               const std::vector<cluster::Protocol>& protocols,
               metrics::FlightRecorder& flight) {
  const FlagSet& flags = exp.flags;
  const int seeds = static_cast<int>(flags.get_int("sweep-seeds").value_or(0));
  const int jobs = static_cast<int>(flags.get_int("jobs").value_or(0));
  const bool faults = faults_active(flags, exp.plan);
  const bool want_summary = flags.get_bool("fault-summary") || faults;

  int exit_code = 0;
  std::vector<double> mean_by_protocol;
  for (const cluster::Protocol protocol : protocols) {
    harness::SweepSummary sweep = harness::run_seed_sweep(
        exp.base_seed, seeds, jobs,
        [&](std::uint64_t seed) {
          return harness::run_protocol(
              scenario_from_flags(exp, seed, nullptr), protocol, seed);
        });
    if (exp.flight) {
      for (harness::SeedRun& run : sweep.runs) {
        if (!run.errored) flight.add_run(std::move(run.flight));
      }
    }
    std::printf("%s sweep, %d seeds from %llu:\n%s",
                cluster::protocol_name(protocol), seeds,
                static_cast<unsigned long long>(exp.base_seed),
                harness::render_sweep(sweep).c_str());
    if (want_summary) {
      std::printf("%s merged robustness:\n%s",
                  cluster::protocol_name(protocol),
                  metrics::render_fault_summary(sweep.merged).c_str());
    }
    mean_by_protocol.push_back(sweep.mean_seconds);
    if (sweep.errored > 0) exit_code = 1;
    if (!faults && sweep.merged.counter_value("write.failed_uploads") > 0) {
      exit_code = 1;
    }
  }
  if (mean_by_protocol.size() == 2 && mean_by_protocol[1] > 0) {
    std::printf("mean improvement: %.1f%%\n",
                (mean_by_protocol[0] / mean_by_protocol[1] - 1.0) * 100.0);
  }
  const std::string timeseries_out = flags.get("timeseries-out");
  if (!timeseries_out.empty()) write_timeseries(timeseries_out, flight);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("smarthsim");
  flags.declare("cluster", "small | medium | large | hetero", "small");
  flags.declare("datanodes", "datanode count for homogeneous clusters", "9");
  flags.declare("size-gb", "upload size in GiB (fractional ok)", "1");
  flags.declare("protocol", "hdfs | smarth | both", "both");
  flags.declare("throttle-mbps", "cross-rack throttle (0 = none)", "0");
  flags.declare("slow-nodes", "number of individually throttled datanodes",
                "0");
  flags.declare("slow-mbps", "bandwidth of the slow datanodes", "50");
  flags.declare("crash", "crash faults: <datanode>@<seconds>[,...]", "");
  flags.declare("rejoin",
                "reboot crashed nodes: <datanode>@<seconds>[,...], each "
                "after a --crash of that node", "");
  flags.declare("fail-slow",
                "fail-slow window: <datanode>@<from>-<until>[@<factor>]", "");
  flags.declare("fail-slow-factor",
                "fail-slow severity: slowdown multiplier (> 0) applied to "
                "--fail-slow windows and chaos failslow events", "");
  flags.declare("flap", "NIC flap window: <datanode>@<down>-<up>", "");
  flags.declare("client-crash",
                "writer crash at <seconds>; lease recovery closes the file",
                "");
  flags.declare("nn-crash",
                "namenode crash at <seconds>; recovery starts after "
                "--nn-outage", "");
  flags.declare("nn-outage",
                "seconds between the namenode crash and recovery start", "3");
  flags.declare("editlog-out",
                "write the namenode edit log as JSON after the run(s)", "");
  flags.declare("bitrot",
                "at-rest chunk rot: <datanode>@<seconds>[,...]", "");
  flags.declare("scan-mbps",
                "block-scanner scrub budget in MiB/s (0 = scanner off)", "0");
  flags.declare("chaos-rates",
                "seeded chaos, e.g. crash=2,bitrot=0.5,rpcloss=0.05", "");
  flags.declare("chaos-seed", "seed for the chaos engine's RNG", "1");
  flags.declare("block-mb", "HDFS block size in MiB", "64");
  flags.declare("replication", "replication factor", "3");
  flags.declare("seed", "simulation seed", "42");
  flags.declare("fidelity",
                "data-path granularity: packet (reference) | block "
                "(coalesced macro-transfers, ~10x fewer events)", "packet");
  flags.declare("fidelity-tolerance",
                "block-mode timing distortion ceiling as a fraction of a "
                "block's transfer time", "0.05");
  flags.declare("sweep-seeds",
                "run N independent seeds (counting up from --seed) per "
                "protocol and merge the results (0 = single-run mode)", "0");
  flags.declare("jobs",
                "worker threads for --sweep-seeds (0 = one per core)", "0");
  flags.declare("trace-out",
                "write a Chrome trace_event JSON of all runs (open in "
                "Perfetto / chrome://tracing)", "");
  flags.declare("metrics-out",
                "write metrics registry snapshots; .csv extension selects "
                "CSV, anything else JSON", "");
  flags.declare("timeseries-out",
                "write flight-recorder time series (one sample per "
                "--sample-interval of simulated time, plus watchdog dumps); "
                ".csv extension selects CSV, anything else JSON", "");
  flags.declare("sample-interval",
                "flight-recorder sampling cadence in simulated seconds "
                "(fractional ok)", "1");
  flags.declare("log-level",
                "log threshold: trace|debug|info|warn|error|off "
                "(overrides --verbose)", "");
  flags.declare_bool("straggler-report",
                     "print a per-upload critical-path breakdown naming the "
                     "dominant straggler datanode");
  flags.declare_bool("read-back",
                     "read the file back after the upload, verifying "
                     "checksums and failing over rotted replicas");
  flags.declare_bool("timeline",
                     "print a pipeline-concurrency chart from the flight "
                     "recorder's samples (one per --sample-interval; a run "
                     "past 4096 samples charts the last 4096)");
  flags.declare_bool("nn-failover",
                     "recover the crashed namenode by promoting the warm "
                     "standby instead of a cold restart");
  flags.declare("clients",
                "open-loop mode: tenant client hosts generating Poisson "
                "arrivals (round-robin over racks); replaces the single "
                "upload", "");
  flags.declare("arrival-rate",
                "open-loop aggregate arrival rate in jobs/s "
                "(default: 0.2 per client)", "");
  flags.declare("zipf-s",
                "open-loop Zipf file-size exponent (rank k ~ k^-s)", "1.2");
  flags.declare("open-loop-duration",
                "open-loop arrival window in seconds", "60");
  flags.declare_bool("nn-service-model",
                     "model namenode RPC service capacity: a single-server "
                     "queue with per-op service costs (undefended FIFO)");
  flags.declare_bool("nn-admission-control",
                     "namenode overload defense: priority bands, bounded "
                     "queue with load shedding, heartbeat batching, "
                     "per-client addBlock caps (implies --nn-service-model)");
  flags.declare_bool("hedged-reads",
                     "gray-failure read defense: race a second replica when "
                     "a block read stalls past the hedge threshold");
  flags.declare_bool("slow-evict",
                     "gray-failure write defense: evict a mid-block "
                     "straggler datanode and splice in a replacement");
  flags.declare_bool("fault-summary", "print robustness counters per run");
  flags.declare_bool("verbose", "protocol-level logging");
  flags.declare_bool("help", "show usage");

  if (const Status parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_bool("help")) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }

  if (const std::string level = flags.get("log-level"); !level.empty()) {
    LogLevel parsed;
    if (!parse_log_level(level, parsed)) {
      std::fprintf(stderr, "unknown --log-level=%s\n", level.c_str());
      return 2;
    }
  }
  if (const std::string name = flags.get("cluster");
      name != "small" && name != "medium" && name != "large" &&
      name != "hetero" && name != "heterogeneous") {
    std::fprintf(stderr,
                 "unknown --cluster=%s (expected small, medium, large or "
                 "hetero)\n",
                 name.c_str());
    return 2;
  }
  if (const std::string fidelity = flags.get("fidelity");
      fidelity != "packet" && fidelity != "block") {
    std::fprintf(stderr, "unknown --fidelity=%s (expected packet or block)\n",
                 fidelity.c_str());
    return 2;
  }
  // Knobs fail eagerly, even when this run does not consume them. A
  // malformed integer would fall back to its default, and an out-of-range
  // one abort, divide by zero (--block-mb=0) or, for a negative
  // --datanodes, wrap to a cluster too large to allocate.
  using IntKnob = std::pair<const char*, std::int64_t>;  // name, minimum
  for (const auto& [name, min] :
       {IntKnob{"datanodes", 3}, IntKnob{"block-mb", 1},
        IntKnob{"replication", 1}, IntKnob{"slow-nodes", 0},
        IntKnob{"sweep-seeds", 0}, IntKnob{"clients", 1}}) {
    if (!flags.has(name)) continue;
    const auto value = flags.get_int(name);
    if (!value || *value < min) {
      fault_flag_error(name, "must be an integer of at least " +
                                 std::to_string(min) + ", got " +
                                 flags.get(name));
    }
  }
  // A size under one byte truncates to an empty upload, and one of 2^63
  // bytes or more overflows Bytes; either would abort the run.
  if (const auto size_gb = positive_flag(flags, "size-gb");
      size_gb && !(*size_gb * static_cast<double>(kGiB) >= 1.0 &&
                   *size_gb * static_cast<double>(kGiB) < 0x1p63)) {
    fault_flag_error("size-gb", "must be at least one byte and below 8 EiB, "
                                "got " + flags.get("size-gb"));
  }
  (void)positive_flag(flags, "fail-slow-factor");
  const bool open_loop = flags.has("clients");
  for (const char* name : {"arrival-rate", "zipf-s", "open-loop-duration"}) {
    if (flags.has(name) && !open_loop) {
      fault_flag_error(name, "requires --clients (open-loop mode)");
    }
  }
  (void)positive_flag(flags, "arrival-rate");
  (void)positive_flag(flags, "zipf-s");
  (void)positive_flag(flags, "open-loop-duration",
                      "a positive number of seconds");
  const std::string trace_out = flags.get("trace-out");
  const std::string metrics_out = flags.get("metrics-out");
  const bool want_straggler = flags.get_bool("straggler-report");
  trace::TraceRecorder recorder;
  if (!trace_out.empty() || want_straggler) trace::install(&recorder);

  // Validate the cadence eagerly: a bad --sample-interval exits 2 even
  // without --timeseries-out.
  (void)positive_flag(flags, "sample-interval",
                      "a positive number of seconds");
  const std::string timeseries_out = flags.get("timeseries-out");
  const bool want_timeline = flags.get_bool("timeline");

  const std::string protocol_choice = flags.get("protocol");
  std::vector<cluster::Protocol> protocols;
  if (protocol_choice == "hdfs" || protocol_choice == "both") {
    protocols.push_back(cluster::Protocol::kHdfs);
  }
  if (protocol_choice == "smarth" || protocol_choice == "both") {
    protocols.push_back(cluster::Protocol::kSmarth);
  }
  if (protocols.empty()) {
    std::fprintf(stderr, "unknown --protocol=%s\n", protocol_choice.c_str());
    return 2;
  }

  const bool sweeping = flags.get_int("sweep-seeds").value_or(0) > 0;
  if (sweeping) {
    // Sweep mode merges N share-nothing runs; the single-run observability
    // attachments (trace, per-run metrics export, timelines, client-crash
    // drive loop, read-back) are per-world and do not compose across it.
    if (!trace_out.empty() || !metrics_out.empty() || want_straggler ||
        want_timeline || flags.get_bool("read-back") ||
        flags.has("client-crash") || flags.has("nn-crash") ||
        flags.has("editlog-out")) {
      std::fprintf(stderr,
                   "--sweep-seeds does not combine with --trace-out, "
                   "--metrics-out, --straggler-report, --timeline, "
                   "--read-back, --client-crash, --nn-crash or "
                   "--editlog-out\n");
      return 2;
    }
  } else if (open_loop) {
    // The open-loop workload replaces the single upload; the single-upload
    // observability attachments don't describe it.
    if (flags.get_bool("read-back") || flags.has("client-crash") ||
        flags.has("nn-crash") || want_timeline ||
        flags.has("editlog-out") || want_straggler || !trace_out.empty()) {
      std::fprintf(stderr,
                   "--clients (open-loop mode) does not combine with "
                   "--read-back, --client-crash, --nn-crash, --timeline, "
                   "--editlog-out, --straggler-report or --trace-out\n");
      return 2;
    }
  }
  const Experiment exp = experiment_from_flags(flags);
  // Every run's flight run, for --timeseries-out and --timeline. Each run
  // samples on its own recorder inside harness::run_protocol; a run without
  // one schedules nothing and costs nothing.
  metrics::FlightRecorder flight(exp.flight.value_or(
      metrics::FlightRecorderConfig{}));
  if (sweeping) return run_sweeps(exp, protocols, flight);

  const bool faults = faults_active(flags, exp.plan);
  const bool want_summary = flags.get_bool("fault-summary") || faults;
  TextTable table(open_loop
                      ? std::vector<std::string>{"protocol", "jobs",
                                                 "completed", "failed", "stuck",
                                                 "goodput (MiB/s)", "p50 (s)",
                                                 "p95 (s)", "p99 (s)", "events"}
                      : std::vector<std::string>{
                            "protocol", "seconds", "throughput (Mbps)",
                            "blocks", "pipelines", "max concurrent",
                            "recoveries", "events"});
  std::vector<double> seconds_by_protocol;
  // Per-protocol registry snapshots, captured before the next run resets the
  // registry.
  Snapshots metric_snapshots;
  Snapshots editlog_snapshots;
  std::string straggler_text;
  int exit_code = 0;
  for (const cluster::Protocol protocol : protocols) {
    Aftermath aftermath;
    harness::Run run = harness::run_protocol(
        scenario_from_flags(exp, exp.base_seed, &aftermath), protocol,
        exp.base_seed);
    Logger::instance().set_level(LogLevel::kWarn);
    Logger::instance().set_time_source(nullptr);
    if (exp.flight) flight.add_run(std::move(run.flight));
    const char* name = cluster::protocol_name(protocol);
    if (flags.has("editlog-out")) {
      editlog_snapshots.emplace_back(name, aftermath.editlog_json);
    }
    if (!metrics_out.empty()) {
      metric_snapshots.emplace_back(
          name, ends_with(metrics_out, ".csv")
                    ? metrics::global_registry().to_csv(name)
                    : metrics::global_registry().to_json());
    }
    if (want_straggler) {
      const trace::StragglerReport report =
          trace::straggler_report(recorder, recorder.current_run());
      straggler_text += std::string(name) + " straggler attribution:\n" +
                        report.text;
    }
    if (const auto& r = run.open_loop) {
      table.add_row({name, std::to_string(r->jobs),
                     std::to_string(r->completed), std::to_string(r->failed),
                     std::to_string(r->stuck),
                     TextTable::num(r->goodput_mibps(), 1),
                     TextTable::num(r->latency_quantile(0.50)),
                     TextTable::num(r->latency_quantile(0.95)),
                     TextTable::num(r->latency_quantile(0.99)),
                     std::to_string(run.events)});
      if (!faults && (r->stuck > 0 || r->failed > 0)) {
        std::fprintf(stderr,
                     "%s open-loop run left %d stuck / %d failed jobs with "
                     "no faults active\n",
                     name, r->stuck, r->failed);
        exit_code = 1;
      }
    } else {
      const hdfs::StreamStats& stats = run.stats;
      if (stats.failed) {
        std::fprintf(stderr, "%s upload failed: %s\n", name,
                     stats.failure_reason.c_str());
        if (!faults) exit_code = 1;
      }
      if (aftermath.read && aftermath.read->failed) {
        std::fprintf(stderr, "%s read-back failed: %s\n", name,
                     aftermath.read->failure_reason.c_str());
        if (!faults) exit_code = 1;
      }
      seconds_by_protocol.push_back(to_seconds(stats.elapsed()));
      table.add_row({name, TextTable::num(to_seconds(stats.elapsed())),
                     TextTable::num(stats.throughput().mbps(), 1),
                     std::to_string(stats.blocks),
                     std::to_string(stats.pipelines_created),
                     std::to_string(stats.max_concurrent_pipelines),
                     std::to_string(stats.recoveries),
                     std::to_string(run.events)});
      if (want_timeline) {
        std::printf("%s\n", metrics::render_strip_chart(
                                 "pipeline concurrency", flight.runs().back(),
                                 flight.column("client.pipelines_open"))
                                 .c_str());
      }
    }
    if (want_summary) {
      std::printf(
          "%s robustness:\n%s", name,
          metrics::render_fault_summary(metrics::global_registry()).c_str());
    }
  }
  if (!straggler_text.empty()) std::printf("%s", straggler_text.c_str());
  if (!trace_out.empty()) {
    write_output(trace_out, trace::to_chrome_trace_json(recorder), "trace");
  }
  if (!timeseries_out.empty()) write_timeseries(timeseries_out, flight);
  if (!metrics_out.empty()) {
    write_snapshots(metrics_out, "metrics", metric_snapshots,
                    ends_with(metrics_out, ".csv")
                        ? "protocol,kind,name,count,value,mean,p50,p95,p99,"
                          "min,max\n"
                        : nullptr);
  }
  if (const std::string editlog_out = flags.get("editlog-out");
      !editlog_out.empty()) {
    write_snapshots(editlog_out, "edit log", editlog_snapshots);
  }
  std::printf("%s", table.to_string().c_str());
  if (seconds_by_protocol.size() == 2) {
    std::printf("improvement: %.1f%%\n",
                (seconds_by_protocol[0] / seconds_by_protocol[1] - 1.0) *
                    100.0);
  }
  return exit_code;
}
