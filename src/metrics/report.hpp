// Experiment reporting: HDFS-vs-SMARTH comparison rows, the table renderer
// that prints the series the paper's figures plot (upload seconds per
// configuration, plus improvement percentages), the robustness table, and
// the ASCII strip chart of one flight-recorder column.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::metrics {

/// A paired HDFS/SMARTH measurement of one configuration.
struct ComparisonRow {
  std::string scenario;
  double hdfs_seconds = 0.0;
  double smarth_seconds = 0.0;

  /// The paper's improvement metric: hdfs/smarth - 1, in percent.
  double improvement_percent() const {
    return (hdfs_seconds / smarth_seconds - 1.0) * 100.0;
  }
};

/// Renders rows as the paper's figure series: scenario, both times, the
/// improvement. `x_label` names the swept parameter column.
std::string render_comparison_table(const std::string& x_label,
                                    const std::vector<ComparisonRow>& rows);

/// Renders a run's robustness counters as a two-column table. Every row is
/// read from `registry` (one run's, or a sweep's merged snapshot); a row
/// whose metric was never recorded shows 0.
std::string render_fault_summary(const Registry& registry);

/// Fixed-width ASCII strip chart of `run`'s values in `column`, titled
/// `title`: one row per integer level up to the peak (at most 8), each
/// sample holding until the next and the last one landing in a character
/// column winning it. Only the samples the ring kept are drawn. A run whose
/// samples all share one instant renders as a one-line "value at time
/// (single sample)" note instead; one with no samples as "(empty)".
std::string render_strip_chart(const std::string& title, const FlightRun& run,
                               std::size_t column, int width = 72);

}  // namespace smarth::metrics
