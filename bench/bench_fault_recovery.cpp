// Ablation A6 — recovery cost under fault injection (paper §IV). Crashes
// one datanode partway through an 8 GB upload and compares against the clean
// run for both protocols: how much time does a mid-upload failure cost, and
// does SMARTH's multi-pipeline recovery (Alg. 4) keep its advantage?
//
// Ablation A8 — writer-crash salvage. Kills the *client* mid-upload and lets
// the lease monitor recover the under-construction file: how many bytes does
// each protocol salvage, and how long until the file is readable again?
//
// Ablation A9 — bit-rot scrub and repair. Rots one finalized replica on each
// of three datanodes after a 256 MiB upload and sweeps the block scanner's
// byte budget: how long until the scrubbers detect and report the rot, how
// long until re-replication restores full replication, and does a read-back
// stay byte-exact throughout?
//
// Ablation A10 — control-plane loss. Kills the *namenode* under three
// concurrent writers and compares recovery paths: a cold restart (fsimage +
// full edit-log replay) against a warm standby promotion (failover). Reports
// control-plane downtime, the salvaged-upload rate (writers that ride out
// the outage on their retry budgets) and the makespan overhead vs a clean
// run.
//
// Emits BENCH_fault_recovery.json (all four ablations, machine-readable):
//
//   bench_fault_recovery [output.json]
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "faults/fault_injector.hpp"
#include "hdfs/datanode.hpp"
#include "trace/metrics_registry.hpp"
#include "workload/fault_plan.hpp"
#include "workload/upload_workload.hpp"

using namespace smarth;

namespace {

struct RunResult {
  double seconds = -1.0;
  int recoveries = 0;
  bool failed = true;
};

RunResult run(cluster::Protocol protocol, bool inject, SimDuration crash_at,
              Bytes file_size) {
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.ack_timeout = seconds(2);
  cluster::Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(100));
  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  if (inject) {
    workload::FaultPlan plan;
    plan.crash(2, crash_at);  // a rack0 node likely to serve pipelines
    plan.apply(injector);
  }
  const auto stats = cluster.run_upload("/f", file_size, protocol);
  RunResult result;
  result.failed = stats.failed;
  if (!stats.failed) {
    result.seconds = to_seconds(stats.elapsed());
    result.recoveries = stats.recoveries;
  }
  return result;
}

struct SalvageResult {
  double readable_mib = 0.0;   // final file length readers see
  double salvaged_mib = 0.0;   // bytes kept via commitBlockSynchronization
  double time_to_readable = -1.0;  // crash -> file closed, seconds
  int blocks_recovered = 0;
  int orphans_abandoned = 0;
  bool closed = false;
};

/// A8: kill the writer at `crash_at`, wait for the lease monitor to close
/// the file, and report what survived.
SalvageResult run_writer_crash(cluster::Protocol protocol,
                               SimDuration crash_at, Bytes file_size) {
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.ack_timeout = seconds(2);
  cluster::Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(100));
  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  injector.crash_client(0, crash_at);

  std::optional<hdfs::StreamStats> stats;
  cluster.upload("/f", file_size, protocol,
                 [&stats](const hdfs::StreamStats& s) { stats = s; });
  const SimDuration budget =
      spec.hdfs.lease_hard_limit + spec.hdfs.lease_monitor_interval +
      spec.hdfs.lease_recovery_retry_interval *
          (spec.hdfs.lease_recovery_max_attempts + 1);
  const SimTime deadline = crash_at + budget + seconds(30);
  SalvageResult result;
  while (cluster.sim().now() < deadline) {
    const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/f");
    if (stats.has_value() && entry != nullptr &&
        entry->state == hdfs::FileState::kClosed) {
      result.closed = true;
      result.time_to_readable =
          to_seconds(cluster.sim().now()) - to_seconds(crash_at);
      break;
    }
    cluster.sim().run_until(cluster.sim().now() + milliseconds(250));
  }
  result.salvaged_mib =
      static_cast<double>(cluster.namenode().bytes_salvaged()) / kMiB;
  result.blocks_recovered =
      static_cast<int>(cluster.namenode().uc_blocks_recovered());
  result.orphans_abandoned =
      static_cast<int>(cluster.namenode().orphans_abandoned());
  if (result.closed) {
    const auto located = cluster.namenode().get_block_locations(
        "/f", cluster.client_node(0));
    if (located.ok()) {
      Bytes readable = 0;
      for (const auto& lb : located.value()) readable += lb.length;
      result.readable_mib = static_cast<double>(readable) / kMiB;
    }
  }
  return result;
}

struct ScrubResult {
  int rotted = 0;
  double detect_s = -1.0;  // rot landing -> last replica reported
  double repair_s = -1.0;  // rot landing -> full replication restored
  double scrub_mib = 0.0;  // total scrub I/O until repair completed
  int read_mismatches = 0;
  int read_failovers = 0;
  bool read_exact = false;
};

/// A9: upload, rot one finalized replica on each of three datanodes, and
/// time the scrub -> report -> invalidate -> re-replicate loop at the given
/// scanner budget. A final read-back checks no corrupt byte survives.
ScrubResult run_bitrot_scrub(cluster::Protocol protocol, Bytes scan_rate,
                             Bytes file_size) {
  // Bad-replica reports are read from the registry: start it empty.
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.scanner_bytes_per_second = scan_rate;
  cluster::Cluster cluster(spec);
  cluster.enable_rereplication(seconds(2));
  const auto stats = cluster.run_upload("/f", file_size, protocol);
  ScrubResult result;
  if (stats.failed) return result;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));

  // Rot chunk 0 of one finalized replica on each of three datanodes, each a
  // different block so three independent repairs race the scrubbers.
  std::vector<std::pair<std::size_t, BlockId>> victims;
  for (std::size_t i = 0;
       i < cluster.datanode_count() && victims.size() < 3; ++i) {
    for (const auto& replica :
         cluster.datanode(i).block_store().all_replicas()) {
      if (replica.state != storage::ReplicaState::kFinalized) continue;
      bool taken = false;
      for (const auto& [dn, block] : victims) taken |= block == replica.block;
      if (taken) continue;
      if (cluster.datanode(i).rot_replica_chunk(replica.block, 0).ok()) {
        victims.emplace_back(i, replica.block);
      }
      break;
    }
  }
  result.rotted = static_cast<int>(victims.size());
  const SimTime rot_at = cluster.sim().now();

  const SimTime deadline = rot_at + seconds(3600);
  while (cluster.sim().now() < deadline) {
    if (result.detect_s < 0 &&
        metrics::global_registry().counter_value(
            "namenode.bad_replica_reports") >=
            static_cast<std::uint64_t>(result.rotted)) {
      result.detect_s = to_seconds(cluster.sim().now() - rot_at);
    }
    if (result.detect_s >= 0 &&
        cluster.namenode().under_replicated_blocks().empty() &&
        cluster.file_fully_replicated("/f")) {
      result.repair_s = to_seconds(cluster.sim().now() - rot_at);
      break;
    }
    cluster.sim().run_until(cluster.sim().now() + milliseconds(250));
  }
  Bytes scrubbed = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    scrubbed += cluster.datanode(i).scanner().bytes_scanned();
  }
  result.scrub_mib = static_cast<double>(scrubbed) / kMiB;

  const auto read = cluster.run_download("/f");
  result.read_mismatches = read.checksum_mismatches;
  result.read_failovers = read.failovers;
  result.read_exact = !read.failed && read.bytes_read == file_size;
  return result;
}

enum class NnRecovery { kNone, kColdRestart, kFailover };

struct NnOutageResult {
  double makespan = -1.0;
  double downtime_s = -1.0;
  int completed = 0;
  int writers = 0;
};

/// A10: three concurrent writers, namenode killed at 30 s, control plane
/// restored 3 s later by the chosen path. Checkpointing is disabled so the
/// cold restart pays for a full edit-log replay while the promoted standby
/// has already tailed all but the last half-second of it; the per-op replay
/// cost is raised so that difference is visible in the downtime column.
NnOutageResult run_nn_outage(cluster::Protocol protocol, NnRecovery recovery,
                             Bytes per_writer) {
  constexpr int kWriters = 3;
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.checkpoint_interval = 0;
  spec.hdfs.edit_replay_op_cost = milliseconds(2);
  cluster::Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(100));
  for (int c = 1; c < kWriters; ++c) {
    cluster.add_client(c % 2 == 0 ? "/rack0" : "/rack1",
                       cluster::small_instance());
  }
  if (recovery == NnRecovery::kFailover) cluster.enable_standby();
  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  if (recovery == NnRecovery::kColdRestart) {
    injector.crash_and_restart_namenode(seconds(30), seconds(33));
  } else if (recovery == NnRecovery::kFailover) {
    injector.crash_and_failover_namenode(seconds(30), seconds(33));
  }

  workload::UploadWorkload workload(protocol);
  for (int c = 0; c < kWriters; ++c) {
    workload.add(workload::UploadJob{"/nn" + std::to_string(c), per_writer, 0,
                                     static_cast<std::size_t>(c)});
  }
  const SimTime start = cluster.sim().now();
  const auto results = workload.run(cluster);

  NnOutageResult out;
  out.writers = kWriters;
  SimTime last_end = start;
  for (const auto& stats : results) {
    if (stats.failed) continue;
    ++out.completed;
    last_end = std::max(last_end, stats.finished_at);
  }
  if (out.completed == kWriters) out.makespan = to_seconds(last_end - start);
  out.downtime_s = recovery == NnRecovery::kNone
                       ? 0.0
                       : to_seconds(cluster.last_namenode_downtime());
  return out;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_fault_recovery.json";
  bench::print_header(
      "Fault recovery — crash one datanode mid-upload (small cluster, "
      "100 Mbps cross-rack, 8 GB)",
      "Clean vs faulted runs for both protocols; recovery follows Alg. 3 "
      "(HDFS) / Alg. 4 (SMARTH).");

  const Bytes file_size = bench::bench_file_size();
  std::string json = "{\n  \"bench\": \"fault_recovery\",\n";
  json += "  \"config\": {\"file_gb\": " +
          json_num(static_cast<double>(file_size) / kGiB) + "},\n";
  json += "  \"crash\": [\n";
  TextTable table({"protocol", "fault", "seconds", "recoveries",
                   "overhead vs clean (%)"});
  for (cluster::Protocol protocol :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    const RunResult clean = run(protocol, false, 0, file_size);
    const RunResult faulted =
        run(protocol, true, seconds(30), file_size);
    table.add_row({cluster::protocol_name(protocol), "none",
                   TextTable::num(clean.seconds),
                   std::to_string(clean.recoveries), "0.0"});
    table.add_row(
        {cluster::protocol_name(protocol), "crash @ 30 s",
         TextTable::num(faulted.seconds), std::to_string(faulted.recoveries),
         faulted.failed || clean.failed
             ? std::string("upload failed")
             : TextTable::num(
                   (faulted.seconds / clean.seconds - 1.0) * 100.0, 1)});
    json += "    {\"protocol\": " +
            json_str(cluster::protocol_name(protocol)) +
            ", \"clean_s\": " + json_num(clean.seconds) +
            ", \"faulted_s\": " + json_num(faulted.seconds) +
            ", \"recoveries\": " + std::to_string(faulted.recoveries) +
            ", \"overhead_pct\": " +
            (faulted.failed || clean.failed
                 ? std::string("null")
                 : json_num((faulted.seconds / clean.seconds - 1.0) * 100.0)) +
            "}" +
            (protocol == cluster::Protocol::kHdfs ? ",\n" : "\n");
  }
  json += "  ],\n";
  std::printf("%s\n", table.to_string().c_str());

  bench::print_header(
      "Writer-crash salvage — kill the client @ 30 s, lease monitor recovers "
      "(A8)",
      "Bytes readable after recovery and time from crash to a readable file; "
      "SMARTH finalizes FNFA-completed blocks at max length, HDFS truncates "
      "the tail to the minimum durable replica.");
  TextTable salvage({"protocol", "readable (MiB)", "salvaged (MiB)",
                     "blocks sync'd", "orphans", "time-to-readable (s)"});
  json += "  \"writer_crash\": [\n";
  for (cluster::Protocol protocol :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    const SalvageResult r =
        run_writer_crash(protocol, seconds(30), file_size);
    salvage.add_row({cluster::protocol_name(protocol),
                     TextTable::num(r.readable_mib, 1),
                     TextTable::num(r.salvaged_mib, 1),
                     std::to_string(r.blocks_recovered),
                     std::to_string(r.orphans_abandoned),
                     r.closed ? TextTable::num(r.time_to_readable, 1)
                              : std::string("never closed")});
    json += "    {\"protocol\": " +
            json_str(cluster::protocol_name(protocol)) +
            ", \"readable_mib\": " + json_num(r.readable_mib) +
            ", \"salvaged_mib\": " + json_num(r.salvaged_mib) +
            ", \"blocks_synced\": " + std::to_string(r.blocks_recovered) +
            ", \"orphans\": " + std::to_string(r.orphans_abandoned) +
            ", \"closed\": " + (r.closed ? "true" : "false") +
            ", \"time_to_readable_s\": " +
            (r.closed ? json_num(r.time_to_readable) : std::string("null")) +
            "}" +
            (protocol == cluster::Protocol::kHdfs ? ",\n" : "\n");
  }
  json += "  ],\n";
  std::printf("%s\n", salvage.to_string().c_str());

  bench::print_header(
      "Bit-rot scrub and repair — 3 replicas rot at rest after a 256 MiB "
      "upload (A9)",
      "Sweep of the block scanner's byte budget: time from rot to the last "
      "bad-replica report, time until re-replication restores full "
      "replication, total scrub I/O spent, and a byte-exact read-back.");
  TextTable scrub({"protocol", "scan budget (MiB/s)", "rotted",
                   "detect (s)", "repair (s)", "scrub I/O (MiB)",
                   "read exact"});
  const Bytes rot_file = 256 * kMiB;
  json += "  \"bitrot_scrub\": [\n";
  bool first_scrub = true;
  for (cluster::Protocol protocol :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    for (const Bytes budget : {8 * kMiB, 64 * kMiB}) {
      const ScrubResult r = run_bitrot_scrub(protocol, budget, rot_file);
      scrub.add_row(
          {cluster::protocol_name(protocol),
           TextTable::num(static_cast<double>(budget) / kMiB, 0),
           std::to_string(r.rotted),
           r.detect_s < 0 ? std::string("never") : TextTable::num(r.detect_s),
           r.repair_s < 0 ? std::string("never") : TextTable::num(r.repair_s),
           TextTable::num(r.scrub_mib, 0),
           r.read_exact ? std::string("yes") : std::string("NO")});
      if (!first_scrub) json += ",\n";
      first_scrub = false;
      json += "    {\"protocol\": " +
              json_str(cluster::protocol_name(protocol)) +
              ", \"scan_budget_mibps\": " +
              json_num(static_cast<double>(budget) / kMiB) +
              ", \"rotted\": " + std::to_string(r.rotted) +
              ", \"detect_s\": " +
              (r.detect_s < 0 ? std::string("null") : json_num(r.detect_s)) +
              ", \"repair_s\": " +
              (r.repair_s < 0 ? std::string("null") : json_num(r.repair_s)) +
              ", \"scrub_mib\": " + json_num(r.scrub_mib) +
              ", \"read_exact\": " + (r.read_exact ? "true" : "false") + "}";
    }
  }
  json += "\n  ],\n";
  std::printf("%s\n", scrub.to_string().c_str());

  bench::print_header(
      "Control-plane loss — namenode killed @ 30 s under 3 concurrent "
      "writers (A10)",
      "Cold restart (fsimage + full edit-log replay, checkpointing off) vs "
      "warm standby promotion; writers ride the outage out on RPC retry and "
      "safe-mode budgets. Downtime is crash-to-serving; salvaged = uploads "
      "that completed.");
  TextTable nn_table({"protocol", "recovery", "downtime (s)", "salvaged",
                      "makespan (s)", "overhead vs clean (%)"});
  const Bytes per_writer = file_size / 4;
  json += "  \"nn_outage\": [\n";
  bool first_nn = true;
  for (cluster::Protocol protocol :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    const NnOutageResult clean =
        run_nn_outage(protocol, NnRecovery::kNone, per_writer);
    for (const auto& [recovery, label] :
         {std::pair{NnRecovery::kNone, "none"},
          std::pair{NnRecovery::kColdRestart, "cold restart"},
          std::pair{NnRecovery::kFailover, "standby failover"}}) {
      const NnOutageResult r =
          recovery == NnRecovery::kNone
              ? clean
              : run_nn_outage(protocol, recovery, per_writer);
      nn_table.add_row(
          {cluster::protocol_name(protocol), label,
           TextTable::num(r.downtime_s, 2),
           std::to_string(r.completed) + "/" + std::to_string(r.writers),
           r.makespan < 0 ? std::string("upload failed")
                          : TextTable::num(r.makespan),
           r.makespan < 0 || clean.makespan <= 0
               ? std::string("-")
               : TextTable::num(
                     (r.makespan / clean.makespan - 1.0) * 100.0, 1)});
      if (!first_nn) json += ",\n";
      first_nn = false;
      json += "    {\"protocol\": " +
              json_str(cluster::protocol_name(protocol)) +
              ", \"recovery\": " + json_str(label) +
              ", \"downtime_s\": " + json_num(r.downtime_s) +
              ", \"completed\": " + std::to_string(r.completed) +
              ", \"writers\": " + std::to_string(r.writers) +
              ", \"makespan_s\": " +
              (r.makespan < 0 ? std::string("null") : json_num(r.makespan)) +
              ", \"overhead_pct\": " +
              (r.makespan < 0 || clean.makespan <= 0
                   ? std::string("null")
                   : json_num((r.makespan / clean.makespan - 1.0) * 100.0)) +
              "}";
    }
  }
  json += "\n  ]\n}\n";
  std::printf("%s\n", nn_table.to_string().c_str());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("written to %s\n", out_path.c_str());
  return 0;
}
