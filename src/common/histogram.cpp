#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace smarth {

void SummaryStats::add(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void SummaryStats::merge(const SummaryStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SummaryStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

std::string SummaryStats::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.4g mean=%.4g max=%.4g sd=%.4g", count_, min(),
                mean(), max(), stddev());
  return buf;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  SMARTH_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  SMARTH_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                   "histogram bounds must be sorted");
}

void Histogram::add(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  SMARTH_CHECK_MSG(bounds_ == other.bounds_,
                   "cannot merge histograms with different bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::upper_bound(std::size_t i) const {
  if (i < bounds_.size()) return bounds_[i];
  return std::numeric_limits<double>::infinity();
}

double Histogram::quantile(double q) const {
  SMARTH_CHECK(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double lo = (i == 0) ? 0.0 : bounds_[i - 1];
      const double hi = upper_bound(i);
      if (!std::isfinite(hi) || counts_[i] == 0) return lo;
      const double frac = (target - cumulative) / static_cast<double>(counts_[i]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return bounds_.back();
}

std::string Histogram::to_string() const {
  std::string out;
  double lo = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char buf[96];
    const double hi = upper_bound(i);
    if (std::isfinite(hi)) {
      std::snprintf(buf, sizeof(buf), "[%.4g, %.4g): %llu\n", lo, hi,
                    static_cast<unsigned long long>(counts_[i]));
    } else {
      std::snprintf(buf, sizeof(buf), "[%.4g, inf): %llu\n", lo,
                    static_cast<unsigned long long>(counts_[i]));
    }
    out += buf;
    lo = hi;
  }
  return out;
}

}  // namespace smarth
