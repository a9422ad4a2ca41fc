// Ablation A11 — gray-failure defense vs tail latency. One datanode is
// fail-slow (disk + NIC divided by a severity factor, heartbeats healthy) so
// none of the crash machinery fires; this bench measures what the PR-8
// defenses buy back:
//
//   * Read leg: repeated whole-file reads while the slow node serves one
//     block's primary replica — p50/p99 read latency with hedged reads off
//     vs on. The first hedged read is the cold start (static threshold), the
//     rest are pace-triggered from the warm read.gap_ns baseline.
//   * Write leg: upload completion time with slow-node eviction off vs on,
//     per severity factor. Eviction pays one pipeline recovery to get the
//     straggler out of the pipeline mid-block.
//
// Emits BENCH_tail_latency.json (machine-readable, nightly-regression-guarded)
// and exits non-zero if a defense fails to strictly beat its undefended
// baseline — the PR's acceptance criterion, kept executable.
//
//   bench_tail_latency [output.json]
//
// SMARTH_BENCH_TAIL_FAST=1 shrinks the file and the read count (CI config);
// the severity grid and the assertions are identical in both configs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "faults/fault_injector.hpp"
#include "trace/metrics_registry.hpp"

using namespace smarth;

namespace {

/// The datanode index the fault targets; index 1 sits in rack0 and serves
/// both early write pipelines and block-0 read primaries on the small
/// cluster's distance-sorted placement.
constexpr std::size_t kSlowIndex = 1;

struct ReadLeg {
  double p50_s = 0.0;
  double p99_s = 0.0;
  int reads = 0;
  int hedges = 0;
  int hedge_wins = 0;
  std::uint64_t slow_node_reports = 0;
};

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Uploads cleanly, then turns the slow node gray and reads the file back
/// `reads` times. The fault covers the whole read phase; only the defenses
/// differ between the two calls.
ReadLeg run_read_leg(double factor, bool hedged, Bytes file_size, int reads) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.hedged_reads = hedged;
  cluster::Cluster cluster(spec);
  const auto stats =
      cluster.run_upload("/tail", file_size, cluster::Protocol::kHdfs);
  ReadLeg leg;
  if (stats.failed) return leg;

  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  const SimTime fault_at = cluster.sim().now() + seconds(1);
  injector.fail_slow(kSlowIndex, fault_at, fault_at + seconds(100'000),
                     factor, factor);
  cluster.sim().run_until(fault_at + milliseconds(1));

  std::vector<double> latencies;
  for (int i = 0; i < reads; ++i) {
    const auto read = cluster.run_download("/tail");
    if (read.failed) return leg;
    latencies.push_back(to_seconds(read.elapsed()));
    leg.hedges += read.hedged_reads;
    leg.hedge_wins += read.hedge_wins;
  }
  std::sort(latencies.begin(), latencies.end());
  leg.reads = reads;
  leg.p50_s = quantile_sorted(latencies, 0.50);
  leg.p99_s = quantile_sorted(latencies, 0.99);
  if (const auto* c = metrics::global_registry().find_counter(
          "namenode.slow_node_reports")) {
    leg.slow_node_reports = c->value();
  }
  return leg;
}

struct WriteLeg {
  double seconds = -1.0;
  int recoveries = 0;
  int evictions = 0;
};

/// Upload with the slow node gray from 2 s in; only the eviction defense
/// differs between the two calls. Eviction pays one fixed recovery
/// (probe + truncate + prefix transfer) to remove the straggler, so it
/// amortizes over the remaining blocks — the leg always uploads the full
/// 4-block file even in the fast config, or the upload would finish before
/// the defense can pay for itself.
WriteLeg run_write_leg(double factor, bool evict, Bytes file_size) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.slow_node_eviction = evict;
  cluster::Cluster cluster(spec);
  faults::FaultInjector injector(cluster, /*chaos_seed=*/42);
  injector.fail_slow(kSlowIndex, seconds(2), seconds(100'000), factor,
                     factor);
  const auto stats =
      cluster.run_upload("/tail", file_size, cluster::Protocol::kHdfs);
  WriteLeg leg;
  if (stats.failed) return leg;
  leg.seconds = to_seconds(stats.elapsed());
  leg.recoveries = stats.recoveries;
  leg.evictions = static_cast<int>(
      metrics::global_registry().counter_value("write.slow_evictions"));
  return leg;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_tail_latency.json";
  const bool fast = std::getenv("SMARTH_BENCH_TAIL_FAST") != nullptr;
  const Bytes file_size = fast ? 128 * kMiB : 256 * kMiB;
  const Bytes write_file_size = 256 * kMiB;
  const int reads = fast ? 6 : 12;
  const std::vector<double> factors = {4.0, 8.0};

  bench::print_header(
      "Gray-failure tail latency — one fail-slow datanode, heartbeats "
      "healthy (A11)",
      "Read p50/p99 hedged vs not over repeated reads, and upload completion "
      "with slow-node eviction on/off, per fail-slow severity factor.");

  bool acceptance_ok = true;
  std::string json = "{\n  \"bench\": \"tail_latency\",\n";
  json += "  \"config\": {\"fast\": " + std::string(fast ? "true" : "false") +
          ", \"file_mib\": " +
          json_num(static_cast<double>(file_size / kMiB)) +
          ", \"reads\": " + std::to_string(reads) +
          ", \"slow_datanode\": " + std::to_string(kSlowIndex) + "},\n";
  json += "  \"severities\": [\n";

  TextTable read_table({"factor", "defense", "p50 (s)", "p99 (s)", "hedges",
                        "hedge wins", "slow-node reports"});
  TextTable write_table(
      {"factor", "defense", "seconds", "recoveries", "evictions"});
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const double factor = factors[i];
    const ReadLeg read_off = run_read_leg(factor, false, file_size, reads);
    const ReadLeg read_on = run_read_leg(factor, true, file_size, reads);
    const WriteLeg write_off = run_write_leg(factor, false, write_file_size);
    const WriteLeg write_on = run_write_leg(factor, true, write_file_size);

    read_table.add_row({TextTable::num(factor, 0), "undefended",
                        TextTable::num(read_off.p50_s),
                        TextTable::num(read_off.p99_s), "0", "0", "0"});
    read_table.add_row({TextTable::num(factor, 0), "hedged",
                        TextTable::num(read_on.p50_s),
                        TextTable::num(read_on.p99_s),
                        std::to_string(read_on.hedges),
                        std::to_string(read_on.hedge_wins),
                        std::to_string(read_on.slow_node_reports)});
    write_table.add_row({TextTable::num(factor, 0), "undefended",
                         TextTable::num(write_off.seconds),
                         std::to_string(write_off.recoveries), "0"});
    write_table.add_row({TextTable::num(factor, 0), "eviction",
                         TextTable::num(write_on.seconds),
                         std::to_string(write_on.recoveries),
                         std::to_string(write_on.evictions)});

    // Acceptance: each defense strictly beats its undefended baseline.
    const bool read_ok =
        read_on.reads > 0 && read_off.reads > 0 &&
        read_on.p99_s < read_off.p99_s;
    const bool write_ok = write_on.seconds > 0 && write_off.seconds > 0 &&
                          write_on.seconds < write_off.seconds;
    if (!read_ok || !write_ok) acceptance_ok = false;

    json += "    {\"factor\": " + json_num(factor) + ",\n";
    json += "     \"read\": {\"undefended_p50_s\": " +
            json_num(read_off.p50_s) +
            ", \"undefended_p99_s\": " + json_num(read_off.p99_s) +
            ", \"hedged_p50_s\": " + json_num(read_on.p50_s) +
            ", \"hedged_p99_s\": " + json_num(read_on.p99_s) +
            ", \"hedges\": " + std::to_string(read_on.hedges) +
            ", \"hedge_wins\": " + std::to_string(read_on.hedge_wins) +
            ", \"slow_node_reports\": " +
            std::to_string(read_on.slow_node_reports) +
            ", \"p99_improved\": " + (read_ok ? "true" : "false") + "},\n";
    json += "     \"write\": {\"undefended_s\": " +
            json_num(write_off.seconds) +
            ", \"eviction_s\": " + json_num(write_on.seconds) +
            ", \"evictions\": " + std::to_string(write_on.evictions) +
            ", \"recoveries\": " + std::to_string(write_on.recoveries) +
            ", \"completion_improved\": " + (write_ok ? "true" : "false") +
            "}}";
    json += i + 1 < factors.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"acceptance_ok\": " +
          std::string(acceptance_ok ? "true" : "false") + "\n}\n";

  std::printf("%s\n", read_table.to_string().c_str());
  std::printf("%s\n", write_table.to_string().c_str());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("written to %s\n", out_path.c_str());
  if (!acceptance_ok) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILED: a defended run did not strictly beat "
                 "its undefended baseline\n");
    return 1;
  }
  return 0;
}
