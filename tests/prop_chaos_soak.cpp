// Property: under seeded chaos (crash-and-rejoin, fail-slow, NIC flaps,
// writer crashes and control-plane loss/delay all active at once) every
// upload either completes or fails cleanly — the simulation never hangs —
// no file stays under construction past the lease recovery budget unless a
// live client still renews its lease, and identical (cluster seed, chaos
// seed) pairs reproduce identical timelines. This is the soak harness for
// the hardened control plane: retries, backoff, recovery budgets,
// quarantine and lease recovery must bound every failure mode the chaos
// engine can produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/report.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

faults::ChaosRates soak_rates() {
  faults::ChaosRates rates;
  rates.crash_per_minute = 1.0;
  rates.fail_slow_per_minute = 2.0;
  rates.flap_per_minute = 1.0;
  // Writer crashes join the soak. Uploads only last a few simulated
  // seconds (a handful of 500 ms chaos ticks), so the per-minute rate is
  // deliberately high: at 8/min roughly one upload in four loses its
  // writer, enough for lease recovery to fire across 50 seeds while most
  // uploads still complete.
  rates.client_crash_per_minute = 8.0;
  rates.rpc_loss = 0.02;
  rates.rpc_delay_mean = milliseconds(1);
  rates.rpc_delay_jitter = milliseconds(2);
  rates.rejoin_delay = seconds(5);
  rates.fail_slow_duration = seconds(8);
  rates.fail_slow_factor = 8.0;
  rates.flap_duration = seconds(2);
  rates.client_rejoin_delay = seconds(8);
  // At-rest decay joins the soak: with a handful of finalized replicas per
  // node and 500 ms ticks this lands roughly one flip per run, enough for
  // the scanner/report/invalidate path to fire across the seed sweep while
  // drawing from its own RNG stream (the other classes' timelines don't
  // move).
  rates.bitrot_per_replica_hour = 30.0;
  return rates;
}

cluster::ClusterSpec soak_spec(
    std::uint64_t seed,
    hdfs::DataFidelity fidelity = hdfs::DataFidelity::kPacket) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.fidelity = fidelity;
  spec.hdfs.block_size = 4 * kMiB;
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.datanode_dead_interval = seconds(8);
  // Short lease limits so writer-crash recovery resolves within the soak.
  spec.hdfs.lease_soft_limit = seconds(6);
  spec.hdfs.lease_hard_limit = seconds(12);
  spec.hdfs.lease_monitor_interval = seconds(2);
  // Scrub at a modest budget so soak-injected rot is detected and reported
  // while the chaos is still running.
  spec.hdfs.scanner_bytes_per_second = 8 * kMiB;
  return spec;
}

struct SoakResult {
  SimDuration elapsed = 0;
  std::uint64_t events = 0;
  int recoveries = 0;
  std::uint64_t quarantine_events = 0;
  std::uint64_t under_replication_events = 0;
  std::uint64_t rpc_retries = 0;
  bool failed = false;
  std::uint64_t faults = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t uc_blocks_recovered = 0;
  Bytes bytes_salvaged = 0;
  std::uint64_t orphans_abandoned = 0;
  std::uint64_t bitrot_flips = 0;
  std::uint64_t scrub_rot_detected = 0;
  std::uint64_t bad_replica_reports = 0;
  std::uint64_t replicas_invalidated = 0;
  std::uint64_t nn_crashes = 0;
  std::uint64_t nn_restarts = 0;
  std::uint64_t nn_failovers = 0;
  std::uint64_t safe_mode_entries = 0;
  bool file_closed = false;
  // Gray-failure defense accounting (populated only when the soak runs with
  // the PR-8 defenses enabled).
  std::uint64_t slow_evictions = 0;
  int hedges = 0;
  int hedge_wins = 0;
  std::uint64_t slow_node_reports = 0;
  SimDuration read_elapsed = 0;
  bool read_failed = false;
  /// block value -> sorted (node, bytes) pairs.
  std::map<std::int64_t, std::map<std::int64_t, Bytes>> replicas;

  bool operator==(const SoakResult& other) const = default;
};

/// Drives one chaos-soaked upload with a bounded loop. The hard property is
/// "complete or fail cleanly before `deadline`": if neither happens the test
/// fails instead of hanging.
SoakResult soak_once(
    std::uint64_t seed,
    hdfs::DataFidelity fidelity = hdfs::DataFidelity::kPacket,
    const faults::ChaosRates& rates = soak_rates(),
    bool gray_defenses = false) {
  cluster::ClusterSpec spec = soak_spec(seed, fidelity);
  // The run's counts are read from the registry, which also feeds the hedge
  // pace baseline and the in-flight gauge; reset before cluster construction
  // (datanodes cache histogram pointers) so each run is self-contained.
  metrics::global_registry().reset();
  if (gray_defenses) {
    spec.hdfs.hedged_reads = true;
    spec.hdfs.slow_node_eviction = true;
  }
  // Flight-recorder invariant, asserted at the end of every soak: a run
  // that completes (or fails cleanly) must trip no watchdog. The default
  // goodput-stall window has to ride out every legitimate zero-progress gap
  // chaos produces — namenode outages, safe mode, retry backoff — or the
  // monitor would page a human on healthy recoveries.
  metrics::FlightRecorder flight;
  metrics::ScopedFlightInstall flight_install(&flight);
  flight.begin_run("soak", seed);
  Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(60));
  if (rates.nn_failover) cluster.enable_standby();
  faults::FaultInjector injector(cluster, /*chaos_seed=*/seed * 7919 + 1);
  injector.start_chaos(rates);

  const Protocol protocol =
      (seed % 2 == 0) ? Protocol::kHdfs : Protocol::kSmarth;
  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/soak", 16 * kMiB, protocol,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });

  const SimTime deadline = seconds(600);
  while (!stats.has_value() && cluster.sim().now() < deadline) {
    EXPECT_TRUE(
        cluster.sim().run_until(cluster.sim().now() + milliseconds(250)));
  }
  EXPECT_TRUE(stats.has_value())
      << "seed " << seed << ": upload neither completed nor failed by "
      << to_seconds(deadline) << "s — the control plane hung";

  SoakResult result;
  if (!stats.has_value()) {
    result.failed = true;
    return result;
  }
  // With the defenses on, read the file back while chaos is still running so
  // hedged reads race live fail-slow windows, not a healed cluster.
  std::optional<hdfs::ReadStats> read;
  if (gray_defenses && !stats->failed) {
    read = cluster.run_download("/soak");
  }
  injector.stop_chaos();
  // Control-plane outages must resolve once chaos stops: any scheduled
  // restart/failover lands and safe mode exits within its max wait. An
  // upload stuck under construction because the namenode never left safe
  // mode would be a liveness bug, so this is asserted, not just waited for.
  const SimTime control_deadline = cluster.sim().now() +
                                   rates.nn_restart_delay +
                                   soak_spec(seed).hdfs.safe_mode_max_wait +
                                   seconds(5);
  while (cluster.sim().now() < control_deadline &&
         (cluster.namenode_crashed() || cluster.namenode().safe_mode())) {
    cluster.sim().run_until(cluster.sim().now() + milliseconds(250));
  }
  EXPECT_FALSE(cluster.namenode_crashed())
      << "seed " << seed << ": namenode never restored after chaos stopped";
  EXPECT_FALSE(cluster.namenode().safe_mode())
      << "seed " << seed << ": safe mode never exited after chaos stopped";
  // Let in-flight fault windows close so the replica fingerprint is stable.
  cluster.sim().run_until(cluster.sim().now() + seconds(30));

  // Liveness invariant: no file stays under construction forever. Either
  // the upload closed it, or — when the writer crashed — the lease monitor
  // must close it at a consistent prefix within the hard limit plus the
  // recovery retry budget. A file still UC under a *live, renewing* holder
  // is legitimate (HDFS keeps a lease as long as its process renews).
  const SimDuration recovery_budget =
      soak_spec(seed).hdfs.lease_hard_limit +
      soak_spec(seed).hdfs.lease_monitor_interval +
      soak_spec(seed).hdfs.lease_recovery_retry_interval *
          (soak_spec(seed).hdfs.lease_recovery_max_attempts + 1);
  const SimTime uc_deadline = cluster.sim().now() + recovery_budget;
  while (cluster.sim().now() < uc_deadline) {
    const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/soak");
    if (entry == nullptr || entry->state == hdfs::FileState::kClosed ||
        !cluster.namenode().lease_manager().hard_expired(
            entry->lease_holder, cluster.sim().now())) {
      break;
    }
    cluster.sim().run_until(cluster.sim().now() + milliseconds(250));
  }
  if (const hdfs::FileEntry* entry =
          cluster.namenode().file_by_path("/soak")) {
    const bool closed = entry->state == hdfs::FileState::kClosed;
    EXPECT_TRUE(closed ||
                !cluster.namenode().lease_manager().hard_expired(
                    entry->lease_holder, cluster.sim().now()))
        << "seed " << seed
        << ": file abandoned under construction with an expired lease";
    result.file_closed = closed;
  }

  result.elapsed = stats->elapsed();
  result.events = cluster.sim().events_executed();
  const metrics::Registry& reg = metrics::global_registry();
  result.recoveries = stats->recoveries;
  result.quarantine_events = reg.counter_value("quarantine.events");
  result.under_replication_events =
      reg.counter_value("write.under_replication_events");
  result.rpc_retries = reg.counter_value("rpc.retries");
  result.failed = stats->failed;
  result.faults = reg.counter_sum("faults.");
  result.lease_expiries = cluster.namenode().lease_expiries();
  result.uc_blocks_recovered = cluster.namenode().uc_blocks_recovered();
  result.bytes_salvaged = cluster.namenode().bytes_salvaged();
  result.orphans_abandoned = cluster.namenode().orphans_abandoned();
  result.bitrot_flips = reg.counter_value("faults.bitrot_flips");
  result.bad_replica_reports =
      reg.counter_value("namenode.bad_replica_reports");
  result.nn_crashes = reg.counter_value("faults.nn_crashes");
  result.nn_restarts = reg.counter_value("faults.nn_restarts");
  result.nn_failovers = reg.counter_value("faults.nn_failovers");
  result.safe_mode_entries = reg.counter_value("namenode.safe_mode_entries");
  result.slow_evictions = reg.counter_value("write.slow_evictions");
  result.slow_node_reports = cluster.namenode().slow_node_reports();
  if (read.has_value()) {
    result.hedges = read->hedged_reads;
    result.hedge_wins = read->hedge_wins;
    result.read_elapsed = read->elapsed();
    result.read_failed = read->failed;
  }
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    result.scrub_rot_detected += cluster.datanode(i).scanner().rot_detected();
    result.replicas_invalidated += cluster.datanode(i).replicas_invalidated();
    for (const auto& replica :
         cluster.datanode(i).block_store().all_replicas()) {
      result.replicas[replica.block.value()][static_cast<std::int64_t>(i)] =
          replica.bytes;
    }
  }
  flight.finish_run(cluster.sim().now());
  if (!result.failed) {
    std::string tripped;
    for (const metrics::WatchdogFiring& f : flight.runs()[0].firings) {
      tripped += f.monitor + " @" + std::to_string(to_seconds(f.at)) +
                 "s: " + f.reason + "; ";
    }
    EXPECT_EQ(flight.total_firings(), 0u)
        << "seed " << seed << ": a completing soak run tripped " << tripped;
  }
  return result;
}

/// Seed count for the sweep: 50 per-PR, raised to 500 by the nightly CI job
/// through SMARTH_SOAK_SEEDS.
std::uint64_t soak_seed_count() {
  if (const char* env = std::getenv("SMARTH_SOAK_SEEDS")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 50;
}

TEST(ChaosSoak, SeedSweepCompletesOrFailsCleanly) {
  const std::uint64_t seeds = soak_seed_count();
  std::uint64_t completed = 0;
  std::uint64_t clean_failures = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_lease_expiries = 0;
  std::uint64_t total_bitrot_flips = 0;
  std::uint64_t total_scrub_detected = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult result = soak_once(seed);
    if (HasFatalFailure()) return;
    total_faults += result.faults;
    total_lease_expiries += result.lease_expiries;
    total_bitrot_flips += result.bitrot_flips;
    total_scrub_detected += result.scrub_rot_detected;
    if (result.failed) {
      ++clean_failures;
    } else {
      ++completed;
    }
  }
  // The rates are calibrated so chaos actually bites, yet the hardened
  // control plane rides most of it out.
  EXPECT_GT(total_faults, 0u);
  // Writer crashes must actually occur across the soak — otherwise the
  // lease-recovery invariant above was never exercised.
  EXPECT_GT(total_lease_expiries, 0u);
  // At-rest decay must both happen and get caught by the scrubbers, or the
  // integrity path sat idle for the whole soak.
  EXPECT_GT(total_bitrot_flips, 0u);
  EXPECT_GT(total_scrub_detected, 0u);
  EXPECT_GT(completed, seeds / 2) << "completed=" << completed
                                  << " clean_failures=" << clean_failures;
}

TEST(ChaosSoak, IdenticalSeedsProduceIdenticalTimelines) {
  for (std::uint64_t seed : {3u, 17u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult a = soak_once(seed);
    const SoakResult b = soak_once(seed);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.quarantine_events, b.quarantine_events);
    EXPECT_EQ(a.rpc_retries, b.rpc_retries);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.lease_expiries, b.lease_expiries);
    EXPECT_EQ(a.uc_blocks_recovered, b.uc_blocks_recovered);
    EXPECT_EQ(a.bytes_salvaged, b.bytes_salvaged);
    EXPECT_EQ(a.orphans_abandoned, b.orphans_abandoned);
    EXPECT_EQ(a.bitrot_flips, b.bitrot_flips);
    EXPECT_EQ(a.scrub_rot_detected, b.scrub_rot_detected);
    EXPECT_EQ(a.bad_replica_reports, b.bad_replica_reports);
    EXPECT_EQ(a.replicas_invalidated, b.replicas_invalidated);
    EXPECT_EQ(a.file_closed, b.file_closed);
    EXPECT_EQ(a.replicas, b.replicas);
  }
}

// Block fidelity must survive the same chaos: coalescing per-packet events
// into macro-transfer units cannot introduce hangs or nondeterminism in the
// recovery machinery. A subset of the sweep runs in block mode, and a
// same-seed pair must reproduce the identical timeline there too.
TEST(ChaosSoak, BlockFidelitySubsetCompletesOrFailsCleanly) {
  const std::uint64_t seeds = std::min<std::uint64_t>(soak_seed_count(), 12);
  std::uint64_t completed = 0;
  std::uint64_t clean_failures = 0;
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult result = soak_once(seed, hdfs::DataFidelity::kBlock);
    if (HasFatalFailure()) return;
    total_faults += result.faults;
    if (result.failed) {
      ++clean_failures;
    } else {
      ++completed;
    }
  }
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(completed, seeds / 2) << "completed=" << completed
                                  << " clean_failures=" << clean_failures;
}

TEST(ChaosSoak, BlockFidelityIdenticalSeedsProduceIdenticalTimelines) {
  for (std::uint64_t seed : {5u, 17u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult a = soak_once(seed, hdfs::DataFidelity::kBlock);
    const SoakResult b = soak_once(seed, hdfs::DataFidelity::kBlock);
    EXPECT_EQ(a, b);
  }
}

/// The soak rates with control-plane loss added on top: the namenode itself
/// crashes mid-chaos and comes back via cold restart, or — on a third of the
/// seeds — via standby failover.
faults::ChaosRates nn_soak_rates(std::uint64_t seed) {
  faults::ChaosRates rates = soak_rates();
  rates.nn_crash_per_minute = 8.0;
  rates.nn_restart_delay = seconds(3);
  rates.nn_failover = (seed % 3 == 0);
  // Control-plane outages stretch every upload across several extra chaos
  // ticks; at the base sweep's writer-crash rate most runs would lose their
  // writer before the namenode machinery gets exercised. The base sweep owns
  // lease-recovery coverage, so here writer crashes are dialed down.
  rates.client_crash_per_minute = 2.0;
  return rates;
}

// Satellite invariant: after a namenode restart and safe-mode exit no upload
// is left stuck under construction — every file either closes (upload or
// lease recovery) or its writer is demonstrably still alive and renewing.
// soak_once asserts exactly that (control-plane restored, safe mode exited,
// no abandoned UC file) for every run; this sweep makes sure those
// assertions actually see namenode crashes, restarts and failovers.
TEST(ChaosSoak, NamenodeCrashSubsetLeavesNoUploadStuckInUc) {
  const std::uint64_t seeds = std::min<std::uint64_t>(soak_seed_count(), 16);
  std::uint64_t completed = 0;
  std::uint64_t clean_failures = 0;
  std::uint64_t total_nn_crashes = 0;
  std::uint64_t total_nn_restarts = 0;
  std::uint64_t total_nn_failovers = 0;
  std::uint64_t total_safe_mode_entries = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult result =
        soak_once(seed, hdfs::DataFidelity::kPacket, nn_soak_rates(seed));
    if (HasFatalFailure()) return;
    total_nn_crashes += result.nn_crashes;
    total_nn_restarts += result.nn_restarts;
    total_nn_failovers += result.nn_failovers;
    total_safe_mode_entries += result.safe_mode_entries;
    if (result.failed) {
      ++clean_failures;
    } else {
      ++completed;
    }
  }
  // The control plane must actually have died and recovered across the sweep
  // or the invariant was never exercised.
  EXPECT_GT(total_nn_crashes, 0u);
  EXPECT_EQ(total_nn_restarts + total_nn_failovers, total_nn_crashes);
  EXPECT_GT(total_safe_mode_entries, 0u);
  EXPECT_GT(completed, seeds / 2) << "completed=" << completed
                                  << " clean_failures=" << clean_failures;
}

TEST(ChaosSoak, NamenodeCrashIdenticalSeedsProduceIdenticalTimelines) {
  for (std::uint64_t seed : {3u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult a =
        soak_once(seed, hdfs::DataFidelity::kPacket, nn_soak_rates(seed));
    const SoakResult b =
        soak_once(seed, hdfs::DataFidelity::kPacket, nn_soak_rates(seed));
    EXPECT_EQ(a, b);
  }
}

/// Fail-slow-heavy rates for the gray-failure subset: frequent, long,
/// severe slow windows and nothing else, so the PR-8 defenses — not the
/// crash machinery — are the only thing standing between an upload and the
/// straggler.
faults::ChaosRates fail_slow_heavy_rates() {
  faults::ChaosRates rates;
  rates.fail_slow_per_minute = 6.0;
  rates.fail_slow_duration = seconds(12);
  rates.fail_slow_factor = 8.0;
  return rates;
}

// Gray-failure subset: hedged reads + slow-node eviction enabled under
// fail-slow-heavy chaos. Every upload and read-back must complete (gray
// nodes never break liveness, only pace), and the hedge budget gauge must
// return to zero after every run — a leaked slot would eventually deny all
// hedging.
TEST(ChaosSoak, FailSlowHeavyDefensesOnCompletesWithoutHedgeLeak) {
  const std::uint64_t seeds = std::min<std::uint64_t>(soak_seed_count(), 12);
  std::uint64_t completed = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_hedges = 0;
  std::uint64_t total_evictions = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult result = soak_once(
        seed, hdfs::DataFidelity::kPacket, fail_slow_heavy_rates(),
        /*gray_defenses=*/true);
    if (HasFatalFailure()) return;
    total_faults += result.faults;
    total_hedges += static_cast<std::uint64_t>(result.hedges);
    total_evictions += result.slow_evictions;
    // Pure fail-slow never kills an upload or a read: pace drops, liveness
    // does not.
    EXPECT_FALSE(result.failed);
    EXPECT_FALSE(result.read_failed);
    if (!result.failed) ++completed;
    const auto* gauge =
        metrics::global_registry().find_gauge("read.hedges_in_flight");
    EXPECT_DOUBLE_EQ(gauge != nullptr ? gauge->value() : 0.0, 0.0)
        << "hedge budget slot leaked";
  }
  EXPECT_EQ(completed, seeds);
  // The chaos must actually have bitten and the defenses must actually have
  // fired somewhere across the sweep, or this test exercised nothing.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_hedges + total_evictions, 0u);
}

TEST(ChaosSoak, FailSlowHeavyDefensesOnIdenticalTimelines) {
  for (std::uint64_t seed : {2u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakResult a = soak_once(seed, hdfs::DataFidelity::kPacket,
                                   fail_slow_heavy_rates(), true);
    const SoakResult b = soak_once(seed, hdfs::DataFidelity::kPacket,
                                   fail_slow_heavy_rates(), true);
    EXPECT_EQ(a, b);
  }
}

// The issue's acceptance scenario: a crash-and-rejoin plus a fail-slow node
// plus a checksum offender during one upload. The upload must complete and
// the robustness evidence (recoveries, quarantine, retry accounting) must
// surface through the metrics registry into the fault summary.
TEST(ChaosScenario, CrashRejoinFailSlowUploadCompletesWithEvidence) {
  metrics::global_registry().reset();
  Cluster cluster(soak_spec(23));
  cluster.throttle_cross_rack(Bandwidth::mbps(60));
  faults::FaultInjector injector(cluster, /*chaos_seed=*/23);
  injector.crash_and_rejoin(2, seconds(1), seconds(12));
  injector.fail_slow(1, seconds(1), seconds(20), /*disk_factor=*/8.0,
                     /*nic_factor=*/8.0);
  injector.corrupt_nth_packet(4, 30);

  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/evidence", 24 * kMiB, Protocol::kHdfs,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  const SimTime deadline = seconds(600);
  while (!stats.has_value() && cluster.sim().now() < deadline) {
    ASSERT_TRUE(
        cluster.sim().run_until(cluster.sim().now() + milliseconds(250)));
  }
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->failed);
  EXPECT_GE(stats->recoveries, 1);
  EXPECT_GE(metrics::global_registry().counter_value("quarantine.events"), 1u);
  // The upload can finish before the 12 s rejoin lands; run the cluster past
  // it so the reboot and its re-registration are observable.
  cluster.sim().run_until(std::max(cluster.sim().now(), seconds(12)) +
                          seconds(10));

  const metrics::Registry& reg = metrics::global_registry();
  EXPECT_EQ(reg.counter_value("write.uploads"), 1u);
  EXPECT_EQ(reg.counter_value("write.failed_uploads"), 0u);
  EXPECT_GE(reg.counter_value("quarantine.events"), 1u);
  EXPECT_EQ(reg.counter_value("namenode.reregistrations"), 1u);
  EXPECT_GE(reg.counter_sum("faults."), 3u);
  // The rendered table carries every robustness counter.
  const std::string table = metrics::render_fault_summary(reg);
  EXPECT_NE(table.find("recovery MTTR"), std::string::npos);
  EXPECT_NE(table.find("quarantine events"), std::string::npos);
  EXPECT_NE(table.find("under-replication events"), std::string::npos);
}

}  // namespace
}  // namespace smarth
