// smarthsim — command-line driver for the simulator. Builds a cluster from
// flags, applies throttles and faults, runs one upload per requested
// protocol on fresh identical worlds, and prints a report (optionally with a
// pipeline-concurrency timeline and protocol-level logging).
//
//   smarthsim --cluster=medium --size-gb=8 --throttle-mbps=50
//   smarthsim --cluster=hetero --protocol=both --timeline
//   smarthsim --cluster=small --slow-nodes=2 --slow-mbps=50 --crash=3@30
//   smarthsim --cluster=small --crash=3@10 --rejoin=3@25 --fail-slow=1@5-20@8
//   smarthsim --chaos-rates=crash=2,failslow=4,rpcloss=0.05 --chaos-seed=7
//   smarthsim --bitrot=0@40,1@45 --scan-mbps=16 --read-back
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "common/flags.hpp"
#include "harness/sweep.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/report.hpp"
#include "metrics/timeline.hpp"
#include "sim/periodic_task.hpp"
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
                                     std::optional<std::uint64_t> seed_override =
                                         std::nullopt) {
  const std::string name = flags.get("cluster");
  const std::uint64_t seed = seed_override.value_or(
      static_cast<std::uint64_t>(flags.get_int("seed").value_or(42)));
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

struct RunOutcome {
  hdfs::StreamStats stats;
  std::optional<hdfs::ReadStats> read;
  metrics::Timeline concurrency{"pipeline concurrency"};
  std::uint64_t events = 0;
  std::string editlog_json;  ///< filled when --editlog-out is set
};

/// Splits "a=1,b=2" into (key, value) pairs.
std::vector<std::pair<std::string, std::string>> parse_kv_list(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    start = comma + 1;
  }
  return out;
}

void write_file_or_die(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// A typo'd fault flag silently running a fault-free experiment is worse
/// than an abort: fail loudly instead.
[[noreturn]] void fault_flag_error(const std::string& flag,
                                   const std::string& detail) {
  std::fprintf(stderr, "malformed --%s: %s\n", flag.c_str(), detail.c_str());
  std::exit(2);
}

/// Parses --chaos-rates: crash=<per-min>,failslow=<per-min>,flap=<per-min>,
/// clientcrash=<per-min>,bitrot=<per-replica-hour>,nncrash=<per-min>,
/// rpcloss=<prob>,rpcdelay-ms=<ms>,rpcjitter-ms=<ms>,rejoin-s=<s>,
/// slowdur-s=<s>,slowfactor=<x>,flapdur-s=<s>,clientrejoin-s=<s>,
/// nnrestart-s=<s>,nnfailover=<0|1>.
faults::ChaosRates parse_chaos_rates(const std::string& text) {
  faults::ChaosRates rates;
  for (const auto& [key, value] : parse_kv_list(text)) {
    double v = 0;
    try {
      v = std::stod(value);
    } catch (const std::exception&) {
      fault_flag_error("chaos-rates",
                       "value for '" + key + "' is not a number: " + value);
    }
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

/// Validated --fail-slow-factor: the first-class fail-slow severity knob.
/// When set it overrides the factor of --fail-slow windows and chaos
/// failslow events, so severity sweeps change one flag. Exits on <= 0.
std::optional<double> fail_slow_factor_flag(const FlagSet& flags) {
  if (!flags.has("fail-slow-factor")) return std::nullopt;
  const auto factor = flags.get_double("fail-slow-factor");
  if (!factor || *factor <= 0) {
    fault_flag_error("fail-slow-factor", "must be a positive number, got " +
                                             flags.get("fail-slow-factor"));
  }
  return factor;
}

/// Validated --sample-interval: the flight recorder's sampling cadence in
/// simulated seconds. Exits on non-positive values even when no
/// --timeseries-out consumes it this run (same eager policy as
/// --fail-slow-factor: a silently-ignored knob runs the wrong experiment).
SimDuration sample_interval_flag(const FlagSet& flags) {
  if (!flags.has("sample-interval")) return seconds(1);
  const auto interval = flags.get_double("sample-interval");
  if (!interval || *interval <= 0) {
    fault_flag_error("sample-interval",
                     "must be a positive number of seconds, got " +
                         flags.get("sample-interval"));
  }
  return seconds_f(*interval);
}

/// Parses the one-shot fault flags (--crash/--rejoin/--fail-slow/--flap/
/// --bitrot) into a FaultPlan. Exits loudly on malformed specs.
workload::FaultPlan plan_from_flags(const FlagSet& flags) {
  workload::FaultPlan plan;
  try {
    if (flags.has("crash")) {
      // --crash=<datanode>@<seconds>, optionally paired with --rejoin.
      const std::string crash = flags.get("crash");
      const auto at = crash.find('@');
      if (at == std::string::npos) {
        fault_flag_error("crash", "expected <datanode>@<seconds>, got " +
                                      crash);
      }
      const auto index =
          static_cast<std::size_t>(std::stol(crash.substr(0, at)));
      const SimDuration when = seconds_f(std::stod(crash.substr(at + 1)));
      SimDuration rejoin_at = 0;
      if (flags.has("rejoin")) {
        // --rejoin=<datanode>@<seconds>; must name the crashed node.
        const std::string rejoin = flags.get("rejoin");
        const auto rat = rejoin.find('@');
        if (rat == std::string::npos) {
          fault_flag_error("rejoin", "expected <datanode>@<seconds>, got " +
                                         rejoin);
        }
        if (static_cast<std::size_t>(std::stol(rejoin.substr(0, rat))) ==
            index) {
          rejoin_at = seconds_f(std::stod(rejoin.substr(rat + 1)));
        }
      }
      if (rejoin_at > when) {
        plan.crash_and_rejoin(index, when, rejoin_at);
      } else {
        plan.crash(index, when);
      }
    }
    if (flags.has("fail-slow")) {
      // --fail-slow=<datanode>@<from>-<until>[@<factor>]; --fail-slow-factor
      // supplies (or overrides) the severity, so sweeps vary one flag.
      const std::string fs = flags.get("fail-slow");
      const auto at = fs.find('@');
      const auto dash = fs.find('-', at);
      const auto at2 = fs.find('@', dash);
      if (at == std::string::npos || dash == std::string::npos) {
        fault_flag_error("fail-slow",
                         "expected <datanode>@<from>-<until>[@<factor>], "
                         "got " + fs);
      }
      const auto factor_flag = fail_slow_factor_flag(flags);
      double factor = 0;
      if (factor_flag) {
        factor = *factor_flag;
      } else if (at2 != std::string::npos) {
        factor = std::stod(fs.substr(at2 + 1));
      } else {
        fault_flag_error("fail-slow",
                         "no severity: append @<factor> or set "
                         "--fail-slow-factor");
      }
      if (factor <= 0) {
        fault_flag_error("fail-slow", "factor must be positive, got " + fs);
      }
      const auto until_len =
          at2 == std::string::npos ? std::string::npos : at2 - dash - 1;
      plan.fail_slow(
          static_cast<std::size_t>(std::stol(fs.substr(0, at))),
          seconds_f(std::stod(fs.substr(at + 1, dash - at - 1))),
          seconds_f(std::stod(fs.substr(dash + 1, until_len))), factor);
    }
    if (flags.has("flap")) {
      // --flap=<datanode>@<down>-<up>
      const std::string flap = flags.get("flap");
      const auto at = flap.find('@');
      const auto dash = flap.find('-', at);
      if (at == std::string::npos || dash == std::string::npos) {
        fault_flag_error("flap",
                         "expected <datanode>@<down>-<up>, got " + flap);
      }
      plan.flap(static_cast<std::size_t>(std::stol(flap.substr(0, at))),
                seconds_f(std::stod(flap.substr(at + 1, dash - at - 1))),
                seconds_f(std::stod(flap.substr(dash + 1))));
    }
    if (flags.has("bitrot")) {
      // --bitrot=<datanode>@<seconds>[,...]: one finalized chunk at rest
      // flips on that node at that time.
      const std::string spec = flags.get("bitrot");
      std::size_t start = 0;
      while (start < spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos) comma = spec.size();
        const std::string item = spec.substr(start, comma - start);
        const auto at = item.find('@');
        if (at == std::string::npos) {
          fault_flag_error("bitrot",
                           "expected <datanode>@<seconds>[,...], got " + item);
        }
        plan.bitrot(static_cast<std::size_t>(std::stol(item.substr(0, at))),
                    seconds_f(std::stod(item.substr(at + 1))));
        start = comma + 1;
      }
    }
  } catch (const std::logic_error&) {
    fault_flag_error("crash/rejoin/fail-slow/flap/bitrot",
                     "fault spec fields must be numeric");
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

struct OpenLoopOutcome {
  workload::OpenLoopResult result;
  std::uint64_t events = 0;
};

/// One open-loop run: fresh world, shared throttle/fault setup, the
/// multi-tenant arrival process instead of a single upload. `quiet` skips
/// process-global logger mutation (required on sweep worker threads).
OpenLoopOutcome run_open_loop_once(const FlagSet& flags,
                                   cluster::Protocol protocol, bool quiet,
                                   std::optional<std::uint64_t> seed_override =
                                       std::nullopt,
                                   std::optional<std::uint64_t> chaos_seed =
                                       std::nullopt) {
  metrics::global_registry().reset();
  if (metrics::flight_active()) {
    // Before the cluster exists: the constructor attaches the sampling task
    // to whichever run is current.
    metrics::flight_recorder()->begin_run(
        cluster::protocol_name(protocol),
        seed_override.value_or(
            static_cast<std::uint64_t>(flags.get_int("seed").value_or(42))));
  }
  cluster::Cluster cluster(spec_from_flags(flags, seed_override));
  faults::FaultInjector injector(
      cluster, chaos_seed.value_or(static_cast<std::uint64_t>(
                   flags.get_int("chaos-seed").value_or(1))));
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
  workload::FaultPlan plan = plan_from_flags(flags);
  if (!plan.empty()) plan.apply(injector);
  if (flags.has("chaos-rates")) {
    faults::ChaosRates rates = parse_chaos_rates(flags.get("chaos-rates"));
    if (const auto factor = fail_slow_factor_flag(flags)) {
      rates.fail_slow_factor = *factor;
    }
    if (rates.nn_failover) cluster.enable_standby();
    injector.start_chaos(rates);
  }
  if (!quiet) {
    LogLevel log_level = LogLevel::kWarn;
    bool log_level_chosen = false;
    if (flags.get_bool("verbose")) {
      log_level = LogLevel::kInfo;
      log_level_chosen = true;
    }
    if (const std::string level = flags.get("log-level"); !level.empty()) {
      log_level_chosen = parse_log_level(level, log_level);
    }
    if (log_level_chosen) {
      Logger::instance().set_level(log_level);
      Logger::instance().set_time_source(
          [&cluster] { return cluster.sim().now(); });
    }
  }

  OpenLoopOutcome outcome;
  workload::OpenLoopWorkload wl(protocol, open_loop_config_from_flags(flags));
  outcome.result = wl.run(cluster);
  outcome.events = cluster.sim().events_executed();
  // While the cluster is alive: quiescence monitors read the live registry
  // and a firing's dump wants the pending-event summary.
  if (metrics::flight_active()) {
    metrics::flight_recorder()->finish_run(cluster.sim().now());
  }
  if (!quiet) {
    Logger::instance().set_level(LogLevel::kWarn);
    Logger::instance().set_time_source(nullptr);
  }
  return outcome;
}

RunOutcome run_once(const FlagSet& flags, cluster::Protocol protocol) {
  // Fresh metrics per protocol run. Must happen before the cluster exists:
  // datanodes cache registry references at construction and a later reset
  // would dangle them.
  metrics::global_registry().reset();
  if (trace::active()) {
    trace::recorder()->begin_run(cluster::protocol_name(protocol));
  }
  if (metrics::flight_active()) {
    metrics::flight_recorder()->begin_run(
        cluster::protocol_name(protocol),
        static_cast<std::uint64_t>(flags.get_int("seed").value_or(42)));
  }
  cluster::Cluster cluster(spec_from_flags(flags));
  if (trace::active()) {
    trace::recorder()->set_time_source(
        [&cluster] { return cluster.sim().now(); });
  }
  faults::FaultInjector injector(
      cluster,
      static_cast<std::uint64_t>(flags.get_int("chaos-seed").value_or(1)));

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
  workload::FaultPlan plan = plan_from_flags(flags);
  std::optional<SimTime> client_crash_at;
  if (flags.has("client-crash")) {
    // --client-crash=<seconds>: the writer host dies mid-upload; lease
    // recovery must close the file at its salvaged prefix.
    try {
      client_crash_at = seconds_f(std::stod(flags.get("client-crash")));
    } catch (const std::logic_error&) {
      fault_flag_error("client-crash", "expected <seconds>, got " +
                                           flags.get("client-crash"));
    }
    injector.crash_client(0, *client_crash_at);
  }
  std::optional<SimTime> nn_crash_at;
  SimDuration nn_outage = seconds(3);
  if (flags.has("nn-crash")) {
    // --nn-crash=<seconds>: the namenode dies mid-upload and recovery starts
    // after --nn-outage seconds — a cold restart from fsimage + edit-log
    // tail, or a warm standby promotion under --nn-failover.
    try {
      nn_crash_at = seconds_f(std::stod(flags.get("nn-crash")));
    } catch (const std::logic_error&) {
      fault_flag_error("nn-crash",
                       "expected <seconds>, got " + flags.get("nn-crash"));
    }
    if (const auto outage = flags.get_double("nn-outage"); outage) {
      if (*outage <= 0) fault_flag_error("nn-outage", "must be positive");
      nn_outage = seconds_f(*outage);
    }
    if (flags.get_bool("nn-failover")) {
      cluster.enable_standby();
      injector.crash_and_failover_namenode(*nn_crash_at,
                                           *nn_crash_at + nn_outage);
    } else {
      injector.crash_and_restart_namenode(*nn_crash_at,
                                          *nn_crash_at + nn_outage);
    }
  }
  if (!plan.empty()) plan.apply(injector);
  if (flags.has("chaos-rates")) {
    faults::ChaosRates rates = parse_chaos_rates(flags.get("chaos-rates"));
    if (const auto factor = fail_slow_factor_flag(flags)) {
      rates.fail_slow_factor = *factor;
    }
    // Warm failover needs a standby tailing the log before the first crash.
    if (rates.nn_failover) cluster.enable_standby();
    injector.start_chaos(rates);
  }
  LogLevel log_level = LogLevel::kWarn;
  bool log_level_chosen = false;
  if (flags.get_bool("verbose")) {
    log_level = LogLevel::kInfo;
    log_level_chosen = true;
  }
  // --log-level wins over --verbose; validated in main() before any run.
  if (const std::string level = flags.get("log-level"); !level.empty()) {
    log_level_chosen = parse_log_level(level, log_level);
  }
  if (log_level_chosen) {
    Logger::instance().set_level(log_level);
    Logger::instance().set_time_source(
        [&cluster] { return cluster.sim().now(); });
  }

  RunOutcome outcome;
  const Bytes size =
      static_cast<Bytes>(flags.get_double("size-gb").value_or(1.0) *
                         static_cast<double>(kGiB));

  std::unique_ptr<sim::PeriodicTask> sampler;
  if (flags.get_bool("timeline")) {
    sampler = std::make_unique<sim::PeriodicTask>(
        cluster.sim(), seconds(1), "cli.sample", [&cluster, &outcome] {
          const hdfs::OutputStreamBase* stream = cluster.latest_stream();
          outcome.concurrency.record(
              cluster.sim().now(),
              stream != nullptr && !stream->finished()
                  ? static_cast<double>(stream->active_pipeline_count())
                  : 0.0);
        });
    sampler->start_with_delay(0);
  }

  outcome.stats = cluster.run_upload("/data/cli.bin", size, protocol);
  if (client_crash_at) {
    // The upload callback fired (success, or abort at crash time); now
    // drive the simulation until lease recovery has closed the file — it
    // must never stay under-construction past the hard limit plus the
    // recovery retry budget.
    const hdfs::HdfsConfig& cfg = cluster.config();
    sim::Simulation& sim = cluster.sim();
    if (sim.now() <= *client_crash_at) {
      sim.run_until(*client_crash_at + milliseconds(1));
    }
    const SimTime deadline =
        sim.now() + cfg.lease_hard_limit + cfg.lease_monitor_interval +
        cfg.lease_recovery_retry_interval *
            (cfg.lease_recovery_max_attempts + 2);
    while (sim.now() < deadline) {
      const hdfs::FileEntry* entry =
          cluster.namenode().file_by_path("/data/cli.bin");
      if (entry == nullptr || entry->state == hdfs::FileState::kClosed) break;
      sim.run_until(sim.now() + milliseconds(250));
    }
    const hdfs::FileEntry* entry =
        cluster.namenode().file_by_path("/data/cli.bin");
    if (entry != nullptr && entry->state != hdfs::FileState::kClosed) {
      std::fprintf(stderr,
                   "lease recovery failed to close the file within the "
                   "recovery budget\n");
      std::exit(1);
    }
  }
  if (nn_crash_at) {
    // Let the scheduled outage and recovery land even when the upload beat
    // the crash: the robustness counters and --editlog-out should reflect
    // the whole timeline, and a recovery that never completes is a bug
    // worth failing on, not silently truncating.
    sim::Simulation& sim = cluster.sim();
    const SimTime recovery_start = *nn_crash_at + nn_outage;
    if (sim.now() <= recovery_start) {
      sim.run_until(recovery_start + milliseconds(1));
    }
    const SimTime deadline = sim.now() + seconds(120);
    while (cluster.namenode_crashed() && sim.now() < deadline) {
      sim.run_until(sim.now() + milliseconds(250));
    }
    if (cluster.namenode_crashed()) {
      std::fprintf(stderr,
                   "namenode recovery did not complete within the budget\n");
      std::exit(1);
    }
  }
  if (flags.get_bool("read-back") && !outcome.stats.failed) {
    // Let every scheduled rot land before reading: a --bitrot past the
    // upload's end would otherwise never fire (the simulation stops when
    // the last requested operation completes).
    SimTime last_rot = 0;
    for (const workload::FaultPlan::Bitrot& b : plan.bitrots) {
      last_rot = std::max(last_rot, b.at);
    }
    if (cluster.sim().now() <= last_rot) {
      cluster.sim().run_until(last_rot + milliseconds(1));
    }
    // Read the file back through the checksum-verifying stream; rotted
    // replicas fail over and get reported to the namenode.
    outcome.read = cluster.run_download("/data/cli.bin");
  }
  outcome.events = cluster.sim().events_executed();
  if (flags.has("editlog-out")) {
    outcome.editlog_json = cluster.edit_log().to_json();
  }
  // While the cluster is alive: quiescence monitors read the live registry
  // and a firing's dump wants the pending-event summary.
  if (metrics::flight_active()) {
    metrics::flight_recorder()->finish_run(cluster.sim().now());
  }
  if (sampler) sampler->stop();
  Logger::instance().set_level(LogLevel::kWarn);
  Logger::instance().set_time_source(nullptr);
  // The recorder outlives this cluster; its clock must not.
  if (trace::active()) trace::recorder()->set_time_source(nullptr);
  return outcome;
}

/// --sweep-seeds mode: N independent worlds per protocol, one per seed,
/// spread over --jobs worker threads. Share-nothing: each seed runs on a
/// fresh thread-local metrics registry and builds its own cluster, so every
/// per-seed result is identical to running that seed alone and the merged
/// report is independent of thread scheduling.
int run_sweeps(const FlagSet& flags,
               const std::vector<cluster::Protocol>& protocols) {
  const int seeds = static_cast<int>(flags.get_int("sweep-seeds").value_or(0));
  const int jobs = static_cast<int>(flags.get_int("jobs").value_or(0));
  const auto base_seed =
      static_cast<std::uint64_t>(flags.get_int("seed").value_or(42));
  const auto chaos_base =
      static_cast<std::uint64_t>(flags.get_int("chaos-seed").value_or(1));
  const Bytes size =
      static_cast<Bytes>(flags.get_double("size-gb").value_or(1.0) *
                         static_cast<double>(kGiB));
  // Parse the shared fault plan once so a malformed flag fails fast, before
  // any thread spawns.
  const workload::FaultPlan plan = plan_from_flags(flags);
  const bool open_loop = flags.has("clients");
  // Under the overload model, shed/timed-out jobs are the measured outcome,
  // not a harness error — same exemption injected faults get.
  const bool overload_model = flags.get_bool("nn-service-model") ||
                              flags.get_bool("nn-admission-control");
  const bool faults_active = flags.has("chaos-rates") || !plan.empty() ||
                             (open_loop && overload_model);
  const bool want_summary = flags.get_bool("fault-summary") || faults_active;
  // Flight recorder: one per worker (thread_local install), fragments merged
  // in seed order below so the export is independent of thread scheduling.
  const std::string timeseries_out = flags.get("timeseries-out");
  const bool want_timeseries = !timeseries_out.empty();
  const bool timeseries_csv = ends_with(timeseries_out, ".csv");
  metrics::FlightRecorderConfig flight_config;
  flight_config.sample_interval = sample_interval_flag(flags);

  int exit_code = 0;
  std::vector<double> mean_by_protocol;
  std::vector<std::string> timeseries_fragments;
  for (const cluster::Protocol protocol : protocols) {
    const harness::SweepSummary sweep = harness::run_seed_sweep(
        base_seed, seeds, jobs,
        [&](std::uint64_t seed, harness::SeedRun& run) {
          std::optional<metrics::FlightRecorder> flight;
          std::optional<metrics::ScopedFlightInstall> flight_install;
          if (want_timeseries) {
            flight.emplace(flight_config);
            flight_install.emplace(&*flight);
          }
          if (open_loop) {
            // Per-job outcomes land in the registry; the synthetic
            // run.stats carries the makespan and completed bytes so the
            // sweep's seconds/throughput statistics stay meaningful.
            OpenLoopOutcome out = run_open_loop_once(
                flags, protocol, /*quiet=*/true, seed,
                chaos_base + (seed - base_seed));
            run.events = out.events;
            run.stats.started_at = out.result.started_at;
            run.stats.finished_at = out.result.finished_at;
            run.stats.file_size = out.result.bytes_completed;
            run.stats.failed = out.result.stuck > 0;
            if (flight) {
              run.timeseries =
                  timeseries_csv ? flight->csv_rows(0) : flight->run_json(0);
            }
            return;
          }
          if (flight) {
            flight->begin_run(cluster::protocol_name(protocol), seed);
          }
          cluster::Cluster cluster(spec_from_flags(flags, seed));
          faults::FaultInjector injector(cluster,
                                         chaos_base + (seed - base_seed));
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
          if (!plan.empty()) plan.apply(injector);
          if (flags.has("chaos-rates")) {
            faults::ChaosRates rates =
                parse_chaos_rates(flags.get("chaos-rates"));
            if (const auto factor = fail_slow_factor_flag(flags)) {
              rates.fail_slow_factor = *factor;
            }
            if (rates.nn_failover) cluster.enable_standby();
            injector.start_chaos(rates);
          }
          run.stats = cluster.run_upload("/data/sweep.bin", size, protocol);
          run.events = cluster.sim().events_executed();
          if (flight) {
            flight->finish_run(cluster.sim().now());
            run.timeseries =
                timeseries_csv ? flight->csv_rows(0) : flight->run_json(0);
          }
        });
    if (want_timeseries) {
      for (const harness::SeedRun& run : sweep.runs) {
        if (!run.timeseries.empty()) {
          timeseries_fragments.push_back(run.timeseries);
        }
      }
    }
    std::printf("%s sweep, %d seeds from %llu:\n%s",
                cluster::protocol_name(protocol), seeds,
                static_cast<unsigned long long>(base_seed),
                harness::render_sweep(sweep).c_str());
    if (want_summary) {
      std::printf("%s merged robustness:\n%s",
                  cluster::protocol_name(protocol),
                  metrics::render_fault_summary(sweep.merged).c_str());
    }
    mean_by_protocol.push_back(sweep.mean_seconds);
    if (sweep.errored > 0) exit_code = 1;
    if (!faults_active &&
        sweep.merged.counter_value("write.failed_uploads") > 0) {
      exit_code = 1;
    }
  }
  if (mean_by_protocol.size() == 2 && mean_by_protocol[1] > 0) {
    std::printf("mean improvement: %.1f%%\n",
                (mean_by_protocol[0] / mean_by_protocol[1] - 1.0) * 100.0);
  }
  if (want_timeseries) {
    // Assemble a to_json()/to_csv()-shaped document from the per-worker
    // fragments; the envelope comes from a recorder with the same config.
    const metrics::FlightRecorder envelope(flight_config);
    std::string out;
    if (timeseries_csv) {
      out = envelope.csv_header();
      for (const std::string& fragment : timeseries_fragments) out += fragment;
    } else {
      out = "{" + envelope.header_json() + ",\"runs\":[\n";
      for (std::size_t i = 0; i < timeseries_fragments.size(); ++i) {
        if (i > 0) out += ",\n";
        out += timeseries_fragments[i];
      }
      out += "\n]}\n";
    }
    write_file_or_die(timeseries_out, out);
    std::fprintf(stderr, "time series written to %s\n", timeseries_out.c_str());
  }
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
  flags.declare("crash", "crash fault: <datanode>@<seconds>", "");
  flags.declare("rejoin", "reboot a crashed node: <datanode>@<seconds>", "");
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
  flags.declare_bool("timeline", "print a pipeline-concurrency timeline");
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
  if (const std::string fidelity = flags.get("fidelity");
      fidelity != "packet" && fidelity != "block") {
    std::fprintf(stderr, "unknown --fidelity=%s (expected packet or block)\n",
                 fidelity.c_str());
    return 2;
  }
  // Validate severity eagerly: a bad --fail-slow-factor must exit 2 even
  // when no fault flag consumes it this run.
  (void)fail_slow_factor_flag(flags);
  // Open-loop parameters fail eagerly too: a silently-ignored or
  // silently-clamped rate would run the wrong saturation experiment.
  const bool open_loop = flags.has("clients");
  if (open_loop) {
    const auto clients = flags.get_int("clients");
    if (!clients || *clients <= 0) {
      fault_flag_error("clients", "must be a positive integer, got " +
                                      flags.get("clients"));
    }
  }
  if (flags.has("arrival-rate")) {
    if (!open_loop) {
      fault_flag_error("arrival-rate", "requires --clients (open-loop mode)");
    }
    const auto rate = flags.get_double("arrival-rate");
    if (!rate || *rate <= 0) {
      fault_flag_error("arrival-rate", "must be a positive number, got " +
                                           flags.get("arrival-rate"));
    }
  }
  if (flags.has("zipf-s")) {
    if (!open_loop) {
      fault_flag_error("zipf-s", "requires --clients (open-loop mode)");
    }
    const auto zipf = flags.get_double("zipf-s");
    if (!zipf || *zipf <= 0) {
      fault_flag_error("zipf-s", "must be a positive number, got " +
                                     flags.get("zipf-s"));
    }
  }
  if (flags.has("open-loop-duration")) {
    if (!open_loop) {
      fault_flag_error("open-loop-duration",
                       "requires --clients (open-loop mode)");
    }
    const auto duration = flags.get_double("open-loop-duration");
    if (!duration || *duration <= 0) {
      fault_flag_error("open-loop-duration",
                       "must be a positive number of seconds, got " +
                           flags.get("open-loop-duration"));
    }
  }
  const std::string trace_out = flags.get("trace-out");
  const std::string metrics_out = flags.get("metrics-out");
  const bool want_straggler = flags.get_bool("straggler-report");
  trace::TraceRecorder recorder;
  if (!trace_out.empty() || want_straggler) trace::install(&recorder);

  // Flight recorder: validate the cadence eagerly (a bad --sample-interval
  // exits 2 even without --timeseries-out), install only when requested —
  // a null recorder schedules nothing and costs nothing. Sweep workers
  // install their own thread_local recorders inside run_sweeps.
  const std::string timeseries_out = flags.get("timeseries-out");
  metrics::FlightRecorderConfig flight_config;
  flight_config.sample_interval = sample_interval_flag(flags);
  metrics::FlightRecorder flight(flight_config);
  if (!timeseries_out.empty()) metrics::install_flight_recorder(&flight);
  const auto write_timeseries = [&flight, &timeseries_out] {
    if (timeseries_out.empty()) return;
    write_file_or_die(timeseries_out, ends_with(timeseries_out, ".csv")
                                          ? flight.to_csv()
                                          : flight.to_json());
    std::fprintf(stderr, "time series written to %s\n",
                 timeseries_out.c_str());
  };

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

  if (flags.get_int("sweep-seeds").value_or(0) > 0) {
    // Sweep mode merges N share-nothing runs; the single-run observability
    // attachments (trace, per-run metrics export, timelines, client-crash
    // drive loop, read-back) are per-world and do not compose across it.
    if (!trace_out.empty() || !metrics_out.empty() || want_straggler ||
        flags.get_bool("timeline") || flags.get_bool("read-back") ||
        flags.has("client-crash") || flags.has("nn-crash") ||
        flags.has("editlog-out")) {
      std::fprintf(stderr,
                   "--sweep-seeds does not combine with --trace-out, "
                   "--metrics-out, --straggler-report, --timeline, "
                   "--read-back, --client-crash, --nn-crash or "
                   "--editlog-out\n");
      return 2;
    }
    return run_sweeps(flags, protocols);
  }

  if (open_loop) {
    // The open-loop workload replaces the single upload; the single-upload
    // observability attachments don't describe it.
    if (flags.get_bool("read-back") || flags.has("client-crash") ||
        flags.has("nn-crash") || flags.get_bool("timeline") ||
        flags.has("editlog-out") || want_straggler || !trace_out.empty()) {
      std::fprintf(stderr,
                   "--clients (open-loop mode) does not combine with "
                   "--read-back, --client-crash, --nn-crash, --timeline, "
                   "--editlog-out, --straggler-report or --trace-out\n");
      return 2;
    }
    const bool overload_model = flags.get_bool("nn-service-model") ||
                                flags.get_bool("nn-admission-control");
    const bool ol_faults = flags.has("chaos-rates") || flags.has("crash") ||
                           flags.has("fail-slow") || flags.has("flap") ||
                           flags.has("bitrot") || overload_model;
    const bool ol_summary = flags.get_bool("fault-summary") || ol_faults;
    TextTable table({"protocol", "jobs", "completed", "failed", "stuck",
                     "goodput (MiB/s)", "p50 (s)", "p95 (s)", "p99 (s)",
                     "events"});
    std::vector<std::pair<std::string, std::string>> metric_snapshots;
    int exit_code = 0;
    for (const cluster::Protocol protocol : protocols) {
      const OpenLoopOutcome outcome =
          run_open_loop_once(flags, protocol, /*quiet=*/false);
      if (!metrics_out.empty()) {
        const std::string name = cluster::protocol_name(protocol);
        metric_snapshots.emplace_back(
            name, ends_with(metrics_out, ".csv")
                      ? metrics::global_registry().to_csv(name)
                      : metrics::global_registry().to_json());
      }
      const workload::OpenLoopResult& r = outcome.result;
      table.add_row({cluster::protocol_name(protocol), std::to_string(r.jobs),
                     std::to_string(r.completed), std::to_string(r.failed),
                     std::to_string(r.stuck),
                     TextTable::num(r.goodput_mibps(), 1),
                     TextTable::num(r.latency_quantile(0.50)),
                     TextTable::num(r.latency_quantile(0.95)),
                     TextTable::num(r.latency_quantile(0.99)),
                     std::to_string(outcome.events)});
      if (ol_summary) {
        std::printf(
            "%s robustness:\n%s", cluster::protocol_name(protocol),
            metrics::render_fault_summary(metrics::global_registry()).c_str());
      }
      // Without faults or an overload model, every offered job must finish
      // cleanly; a stuck or failed job is a harness error, not a result.
      if (!ol_faults && (r.stuck > 0 || r.failed > 0)) {
        std::fprintf(stderr, "%s open-loop run left %d stuck / %d failed "
                             "jobs with no faults active\n",
                     cluster::protocol_name(protocol), r.stuck, r.failed);
        exit_code = 1;
      }
    }
    std::printf("%s", table.to_string().c_str());
    if (!metrics_out.empty()) {
      std::string out;
      if (ends_with(metrics_out, ".csv")) {
        out = "protocol,kind,name,count,value,mean,p50,p95,p99,min,max\n";
        for (const auto& [name, body] : metric_snapshots) out += body;
      } else {
        out = "{";
        for (std::size_t i = 0; i < metric_snapshots.size(); ++i) {
          if (i > 0) out += ",";
          out += "\"" + metric_snapshots[i].first +
                 "\":" + metric_snapshots[i].second;
        }
        out += "}\n";
      }
      write_file_or_die(metrics_out, out);
      std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
    }
    write_timeseries();
    return exit_code;
  }

  // Under injected faults a failed upload is a legitimate outcome worth
  // reporting (clean failure, not a hang); without faults it is an error.
  const bool faults_active = flags.has("chaos-rates") || flags.has("crash") ||
                             flags.has("fail-slow") || flags.has("flap") ||
                             flags.has("client-crash") ||
                             flags.has("nn-crash") || flags.has("bitrot");
  const bool want_summary = flags.get_bool("fault-summary") || faults_active;

  TextTable table({"protocol", "seconds", "throughput (Mbps)", "blocks",
                   "pipelines", "max concurrent", "recoveries", "events"});
  std::vector<double> seconds_by_protocol;
  // Per-protocol registry snapshots, captured before the next run resets the
  // registry.
  std::vector<std::pair<std::string, std::string>> metric_snapshots;
  std::vector<std::pair<std::string, std::string>> editlog_snapshots;
  std::string straggler_text;
  for (const cluster::Protocol protocol : protocols) {
    const RunOutcome outcome = run_once(flags, protocol);
    if (flags.has("editlog-out")) {
      editlog_snapshots.emplace_back(cluster::protocol_name(protocol),
                                     outcome.editlog_json);
    }
    if (!metrics_out.empty()) {
      const std::string name = cluster::protocol_name(protocol);
      metric_snapshots.emplace_back(
          name, ends_with(metrics_out, ".csv")
                    ? metrics::global_registry().to_csv(name)
                    : metrics::global_registry().to_json());
    }
    if (want_straggler) {
      const trace::StragglerReport report =
          trace::straggler_report(recorder, recorder.current_run());
      straggler_text += std::string(cluster::protocol_name(protocol)) +
                        " straggler attribution:\n" + report.text;
    }
    if (outcome.stats.failed) {
      std::fprintf(stderr, "%s upload failed: %s\n",
                   cluster::protocol_name(protocol),
                   outcome.stats.failure_reason.c_str());
      if (!faults_active) return 1;
    }
    if (outcome.read && outcome.read->failed) {
      std::fprintf(stderr, "%s read-back failed: %s\n",
                   cluster::protocol_name(protocol),
                   outcome.read->failure_reason.c_str());
      if (!faults_active) return 1;
    }
    seconds_by_protocol.push_back(to_seconds(outcome.stats.elapsed()));
    table.add_row({cluster::protocol_name(protocol),
                   TextTable::num(to_seconds(outcome.stats.elapsed())),
                   TextTable::num(outcome.stats.throughput().mbps(), 1),
                   std::to_string(outcome.stats.blocks),
                   std::to_string(outcome.stats.pipelines_created),
                   std::to_string(outcome.stats.max_concurrent_pipelines),
                   std::to_string(outcome.stats.recoveries),
                   std::to_string(outcome.events)});
    if (flags.get_bool("timeline") && !outcome.concurrency.empty()) {
      std::printf("%s\n", outcome.concurrency.render_ascii().c_str());
    }
    if (want_summary) {
      std::printf(
          "%s robustness:\n%s", cluster::protocol_name(protocol),
          metrics::render_fault_summary(metrics::global_registry()).c_str());
    }
  }
  if (!straggler_text.empty()) std::printf("%s", straggler_text.c_str());
  if (!trace_out.empty()) {
    write_file_or_die(trace_out, trace::to_chrome_trace_json(recorder));
    std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  }
  write_timeseries();
  if (!metrics_out.empty()) {
    std::string out;
    if (ends_with(metrics_out, ".csv")) {
      out = "protocol,kind,name,count,value,mean,p50,p95,p99,min,max\n";
      for (const auto& [name, body] : metric_snapshots) out += body;
    } else {
      out = "{";
      for (std::size_t i = 0; i < metric_snapshots.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + metric_snapshots[i].first +
               "\":" + metric_snapshots[i].second;
      }
      out += "}\n";
    }
    write_file_or_die(metrics_out, out);
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  if (const std::string editlog_out = flags.get("editlog-out");
      !editlog_out.empty()) {
    std::string out = "{";
    for (std::size_t i = 0; i < editlog_snapshots.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + editlog_snapshots[i].first +
             "\":" + editlog_snapshots[i].second;
    }
    out += "}\n";
    write_file_or_die(editlog_out, out);
    std::fprintf(stderr, "edit log written to %s\n", editlog_out.c_str());
  }
  std::printf("%s", table.to_string().c_str());
  if (seconds_by_protocol.size() == 2) {
    std::printf("improvement: %.1f%%\n",
                (seconds_by_protocol[0] / seconds_by_protocol[1] - 1.0) *
                    100.0);
  }
  return 0;
}
