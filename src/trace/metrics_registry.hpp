// A general-purpose metrics registry: named counters, gauges and
// histogram-backed latency distributions that instrumented components
// register into. It is the one place run-level counts are kept: the
// robustness table and --metrics-out both read it. Lives next to the tracer
// (and below every instrumented library) so rpc/hdfs/faults can all link it
// without dependency cycles.
//
// Like the rest of the simulator the registry is single-threaded; names are
// kept in a std::map so every dump is deterministically ordered.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"

namespace smarth::metrics {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  /// Relative adjustment for occupancy-style gauges (streams open, jobs in
  /// flight) maintained by paired inc/dec sites.
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Latency distribution: a fixed-boundary Histogram for p50/p95/p99 plus
/// exact streaming summary stats. Values are nanoseconds by convention
/// (suffix metric names with `_ns`).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  void observe(double v);
  /// Adds `other`'s buckets and summary; the bounds must match.
  void merge(const LatencyHistogram& other);
  std::size_t count() const { return stats_.count(); }
  const SummaryStats& stats() const { return stats_; }
  double quantile(double q) const { return histogram_.quantile(q); }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
  SummaryStats stats_;
};

/// Exponential nanosecond buckets from 10us to 100s — wide enough for both
/// packet hop latencies and whole-block recovery times.
const std::vector<double>& default_latency_bounds();

class Registry {
 public:
  /// Find-or-create. References stay valid until reset() (std::map nodes are
  /// stable), so hot paths may cache them.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);
  LatencyHistogram& histogram(const std::string& name,
                              std::vector<double> upper_bounds);

  /// Read-only lookups (nullptr when absent) for tests and reports.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const LatencyHistogram* find_histogram(const std::string& name) const;
  /// A counter's value, 0 when it was never bumped.
  std::uint64_t counter_value(const std::string& name) const;
  /// The sum of every counter whose name starts with `prefix`.
  std::uint64_t counter_sum(const std::string& prefix) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram>& histograms() const {
    return histograms_;
  }

  /// Drops every metric. Invalidates references handed out earlier — callers
  /// that cache must re-resolve after a reset (smarthsim resets between
  /// protocol runs, before constructing the next cluster).
  void reset();

  /// Folds `other` in: counters and gauges add, histograms add their bucket
  /// counts and merge their summaries. Merging the per-seed snapshots of a
  /// sweep gives the sweep's totals.
  void merge(const Registry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean_ns,
  /// min_ns,max_ns,p50_ns,p95_ns,p99_ns}}}
  std::string to_json() const;
  /// One row per metric: kind,name,count,value,mean,p50,p95,p99,min,max
  std::string to_csv(const std::string& label_column = "") const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

/// The process-global registry every instrumented component records into.
/// Always on — a counter bump or histogram add is a few nanoseconds, far
/// below the cost of the simulation events surrounding it.
Registry& global_registry();

}  // namespace smarth::metrics
