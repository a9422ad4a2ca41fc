#include "metrics/report.hpp"

#include <cmath>
#include <cstdint>
#include <optional>

namespace smarth::metrics {

std::string render_comparison_table(const std::string& x_label,
                                    const std::vector<ComparisonRow>& rows) {
  TextTable table({x_label, "HDFS (s)", "SMARTH (s)", "improvement (%)"});
  for (const ComparisonRow& row : rows) {
    table.add_row({row.scenario, TextTable::num(row.hdfs_seconds),
                   TextTable::num(row.smarth_seconds),
                   TextTable::num(row.improvement_percent(), 1)});
  }
  return table.to_string();
}

std::string render_observations(const std::vector<UploadObservation>& rows) {
  TextTable table({"scenario", "protocol", "seconds", "throughput (Mbps)",
                   "blocks", "pipelines", "max concurrency", "recoveries"});
  for (const UploadObservation& row : rows) {
    table.add_row({row.scenario, row.protocol, TextTable::num(row.seconds()),
                   TextTable::num(row.throughput_mbps(), 1),
                   std::to_string(row.stats.blocks),
                   std::to_string(row.stats.pipelines_created),
                   std::to_string(row.stats.max_concurrent_pipelines),
                   std::to_string(row.stats.recoveries)});
  }
  return table.to_string();
}

std::string comparison_csv(const std::string& x_label,
                           const std::vector<ComparisonRow>& rows) {
  TextTable table({x_label, "hdfs_seconds", "smarth_seconds",
                   "improvement_percent"});
  for (const ComparisonRow& row : rows) {
    table.add_row({row.scenario, TextTable::num(row.hdfs_seconds, 4),
                   TextTable::num(row.smarth_seconds, 4),
                   TextTable::num(row.improvement_percent(), 2)});
  }
  return table.to_csv();
}

namespace {

/// How a robustness row turns its metric into a cell.
enum class Cell {
  kCounter,    ///< the counter's value
  kGauge,      ///< the gauge's value, as a whole number
  kPrefixSum,  ///< the sum of every counter whose name starts with `metric`
  kMttr,       ///< seconds in the histogram per write.recoveries
  kMean,       ///< the histogram's mean, in seconds
  kMinMax,     ///< the histogram's "min / max", in seconds
  kStddev,     ///< the histogram's population stddev, in seconds
};

struct Row {
  const char* label;
  Cell cell;
  const char* metric;
};

/// The robustness table, top to bottom. The nn downtime rows only print
/// when at least one outage was observed.
constexpr Row kRows[] = {
    {"uploads", Cell::kCounter, "write.uploads"},
    {"failed uploads", Cell::kCounter, "write.failed_uploads"},
    {"recoveries", Cell::kCounter, "write.recoveries"},
    {"recovery MTTR (s)", Cell::kMttr, "stream.recovery_ns"},
    {"quarantine events", Cell::kCounter, "quarantine.events"},
    {"under-replication events", Cell::kCounter,
     "write.under_replication_events"},
    {"rpc retries", Cell::kCounter, "rpc.retries"},
    {"rpc give-ups", Cell::kCounter, "rpc.give_ups"},
    {"rpc calls dropped", Cell::kCounter, "rpc.calls_dropped"},
    {"rpc messages lost", Cell::kCounter, "rpc.messages_lost"},
    {"rpc messages delayed", Cell::kCounter, "rpc.messages_delayed"},
    {"datanode re-registrations", Cell::kCounter, "namenode.reregistrations"},
    {"under-replicated blocks", Cell::kGauge,
     "namenode.under_replicated_blocks"},
    {"faults injected", Cell::kPrefixSum, "faults."},
    {"lease expiries", Cell::kCounter, "namenode.lease_recoveries"},
    {"UC blocks recovered", Cell::kCounter, "namenode.uc_blocks_recovered"},
    {"bytes salvaged", Cell::kCounter, "namenode.bytes_salvaged"},
    {"orphans abandoned", Cell::kCounter, "namenode.orphans_abandoned"},
    {"nn crashes", Cell::kCounter, "faults.nn_crashes"},
    {"nn restarts", Cell::kCounter, "faults.nn_restarts"},
    {"nn failovers", Cell::kCounter, "faults.nn_failovers"},
    {"safe-mode entries", Cell::kCounter, "namenode.safe_mode_entries"},
    {"safe-mode exits", Cell::kCounter, "namenode.safe_mode_exits"},
    {"edit ops logged", Cell::kCounter, "namenode.edit_ops_logged"},
    {"checkpoints", Cell::kCounter, "namenode.checkpoints"},
    {"nn downtime mean (s)", Cell::kMean, "namenode.downtime_ns"},
    {"nn downtime min/max (s)", Cell::kMinMax, "namenode.downtime_ns"},
    {"nn downtime stddev (s)", Cell::kStddev, "namenode.downtime_ns"},
    {"reads", Cell::kCounter, "read.reads"},
    {"failed reads", Cell::kCounter, "read.failed_reads"},
    {"read failovers", Cell::kCounter, "read.failovers"},
    {"checksum mismatches", Cell::kCounter, "read.checksum_mismatches"},
    {"bad replica reports", Cell::kCounter, "namenode.bad_replica_reports"},
    {"hedged reads", Cell::kCounter, "read.hedges"},
    {"hedge wins", Cell::kCounter, "read.hedge_wins"},
    {"hedges denied", Cell::kCounter, "read.hedges_denied"},
    {"hedge wasted bytes", Cell::kCounter, "read.hedge_wasted_bytes"},
    {"slow evictions", Cell::kCounter, "write.slow_evictions"},
    {"slow-node reports", Cell::kCounter, "namenode.slow_node_reports"},
    {"hedge-cancelled serves", Cell::kCounter, "hedge.cancelled"},
    {"bitrot flips", Cell::kCounter, "faults.bitrot_flips"},
    {"replicas invalidated", Cell::kCounter, "datanode.replicas_invalidated"},
    {"scrub rot detected", Cell::kCounter, "scanner.rot_detected"},
    {"scrub bytes scanned", Cell::kCounter, "scanner.bytes_scanned"},
    {"nn ops admitted", Cell::kCounter, "nn.rpc.admitted"},
    {"nn ops shed", Cell::kCounter, "nn.rpc.shed"},
    {"nn shed heartbeats", Cell::kCounter, "nn.rpc.shed_heartbeats"},
    {"nn shed addBlocks", Cell::kCounter, "nn.rpc.shed_add_blocks"},
    {"nn addBlock cap rejections", Cell::kCounter,
     "nn.rpc.addblock_cap_rejections"},
    {"nn heartbeat batches", Cell::kCounter, "nn.rpc.heartbeat_batches"},
    {"nn heartbeats batched", Cell::kCounter, "nn.rpc.heartbeats_batched"},
    {"overload retries", Cell::kCounter, "rpc.overload_retries"},
};

double ns_to_seconds(double ns) { return ns / static_cast<double>(kSecond); }

/// The row's cell; nothing for a downtime row when no outage was observed.
std::optional<std::string> render_cell(const Registry& registry,
                                       const Row& row) {
  const LatencyHistogram* h = registry.find_histogram(row.metric);
  const SummaryStats stats = h != nullptr ? h->stats() : SummaryStats{};
  const auto n = static_cast<double>(stats.count());
  switch (row.cell) {
    case Cell::kCounter:
      return std::to_string(registry.counter_value(row.metric));
    case Cell::kGauge: {
      const Gauge* g = registry.find_gauge(row.metric);
      return std::to_string(
          static_cast<std::int64_t>(g != nullptr ? g->value() : 0.0));
    }
    case Cell::kPrefixSum:
      return std::to_string(registry.counter_sum(row.metric));
    case Cell::kMttr: {
      const auto recoveries =
          static_cast<double>(registry.counter_value("write.recoveries"));
      return TextTable::num(
          recoveries > 0 ? ns_to_seconds(stats.sum()) / recoveries : 0.0);
    }
    case Cell::kMean:
      if (n == 0) return std::nullopt;
      return TextTable::num(ns_to_seconds(stats.sum()) / n);
    case Cell::kMinMax:
      if (n == 0) return std::nullopt;
      return TextTable::num(ns_to_seconds(stats.min())) + " / " +
             TextTable::num(ns_to_seconds(stats.max()));
    case Cell::kStddev:
      if (n == 0) return std::nullopt;
      // Population, not sample, stddev: one outage reads 0.
      return TextTable::num(
          ns_to_seconds(std::sqrt(stats.variance() * (n - 1.0) / n)));
  }
  return std::nullopt;
}

}  // namespace

std::string render_fault_summary(const Registry& registry) {
  TextTable table({"metric", "value"});
  for (const Row& row : kRows) {
    if (std::optional<std::string> cell = render_cell(registry, row)) {
      table.add_row({row.label, std::move(*cell)});
    }
  }
  return table.to_string();
}

}  // namespace smarth::metrics
