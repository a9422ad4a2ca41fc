#include "metrics/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "common/check.hpp"

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

std::string render_strip_chart(const std::string& title, const FlightRun& run,
                               std::size_t column, int width) {
  SMARTH_CHECK(width > 0);
  const std::deque<FlightSample>& samples = run.samples;
  if (samples.empty()) return title + ": (empty)\n";
  const auto value = [column](const FlightSample& s) {
    return s.values.at(column);
  };
  const SimTime t0 = samples.front().at;
  const SimTime t1 = samples.back().at;
  if (t1 == t0) {
    // All samples share one instant: a bar chart would stretch that instant
    // across the whole width and pretend the level held for a span. Report
    // the (final) value at its time instead.
    return title + ": " + std::to_string(value(samples.back())) + " at " +
           format_duration(t0) + " (single sample)\n";
  }
  const double span = std::max<double>(1.0, static_cast<double>(t1 - t0));

  // Resample to `width` columns (last value wins per column).
  std::vector<double> columns(static_cast<std::size_t>(width), 0.0);
  double peak = 1.0;
  for (const FlightSample& s : samples) {
    auto col = static_cast<std::size_t>(
        static_cast<double>(s.at - t0) / span * (width - 1));
    // Carry the value forward so gaps hold the previous level.
    std::fill(columns.begin() + static_cast<std::ptrdiff_t>(col),
              columns.end(), value(s));
    peak = std::max(peak, value(s));
  }

  const int levels = static_cast<int>(std::min(8.0, std::ceil(peak)));
  std::string out = title + " (peak " + std::to_string(peak) + ")\n";
  for (int level = levels; level >= 1; --level) {
    const double threshold = peak * level / levels;
    std::string row;
    for (double v : columns) row += v >= threshold - 1e-9 ? '#' : ' ';
    out += row + "\n";
  }
  out += std::string(static_cast<std::size_t>(width), '-') + "\n";
  out += format_duration(t0) + " .. " + format_duration(t1) + "\n";
  return out;
}

}  // namespace smarth::metrics
