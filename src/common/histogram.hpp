// Streaming summary statistics and a fixed-boundary histogram, used by the
// metrics layer for per-packet latencies, per-block times and buffer
// occupancy traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace smarth {

/// Running min/max/mean/variance (Welford) without storing samples.
class SummaryStats {
 public:
  void add(double x);
  void merge(const SummaryStats& other);

  std::size_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

  std::string to_string() const;

 private:
  std::size_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

/// Histogram over caller-provided monotonically increasing bucket upper
/// bounds; values above the last bound land in an overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double x);
  /// Adds `other`'s bucket counts; both must share the same bounds.
  void merge(const Histogram& other);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  double upper_bound(std::size_t i) const;
  std::uint64_t total() const { return total_; }

  /// Approximate quantile by linear interpolation within the hit bucket.
  double quantile(double q) const;
  /// The same interpolation over `counts`, per-bucket counts laid out like
  /// this histogram's (e.g. the increase between two snapshots of it) that
  /// sum to `total`.
  double quantile_of(const std::vector<std::uint64_t>& counts,
                     std::uint64_t total, double q) const;

  std::string to_string() const;

 private:
  std::vector<double> bounds_;       // strictly increasing
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  std::uint64_t total_ = 0;
};

}  // namespace smarth
