#include "trace/metrics_registry.hpp"

#include <cstdio>

namespace smarth::metrics {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : histogram_(std::move(upper_bounds)) {}

void LatencyHistogram::observe(double v) {
  histogram_.add(v);
  stats_.add(v);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  histogram_.merge(other.histogram_);
  stats_.merge(other.stats_);
}

const std::vector<double>& default_latency_bounds() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> bounds;
    // 10us .. 100s in 1-3-10 steps (nanoseconds).
    for (double decade = 1e4; decade <= 1e11; decade *= 10.0) {
      bounds.push_back(decade);
      bounds.push_back(decade * 3.0);
    }
    return bounds;
  }();
  return kBounds;
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

LatencyHistogram& Registry::histogram(const std::string& name) {
  return histogram(name, default_latency_bounds());
}

LatencyHistogram& Registry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, LatencyHistogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const LatencyHistogram* Registry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const Counter* c = find_counter(name);
  return c != nullptr ? c->value() : 0;
}

std::uint64_t Registry::counter_sum(const std::string& prefix) const {
  std::uint64_t sum = 0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.starts_with(prefix); ++it) {
    sum += it->second.value();
  }
  return sum;
}

void Registry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].add(c.value());
  for (const auto& [name, g] : other.gauges_) gauges_[name].add(g.value());
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

std::string Registry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + format_double(g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{";
    out += "\"count\":" + std::to_string(h.count());
    out += ",\"mean_ns\":" + format_double(h.stats().mean());
    out += ",\"min_ns\":" + format_double(h.stats().min());
    out += ",\"max_ns\":" + format_double(h.stats().max());
    out += ",\"p50_ns\":" + format_double(h.quantile(0.50));
    out += ",\"p95_ns\":" + format_double(h.quantile(0.95));
    out += ",\"p99_ns\":" + format_double(h.quantile(0.99));
    out += "}";
  }
  out += "}}";
  return out;
}

std::string Registry::to_csv(const std::string& label_column) const {
  const std::string prefix = label_column.empty() ? "" : label_column + ",";
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += prefix + "counter," + name + ",," + std::to_string(c.value()) +
           ",,,,,,\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += prefix + "gauge," + name + ",," + format_double(g.value()) +
           ",,,,,,\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += prefix + "histogram," + name + "," + std::to_string(h.count()) +
           ",," + format_double(h.stats().mean()) + "," +
           format_double(h.quantile(0.50)) + "," +
           format_double(h.quantile(0.95)) + "," +
           format_double(h.quantile(0.99)) + "," +
           format_double(h.stats().min()) + "," +
           format_double(h.stats().max()) + "\n";
  }
  return out;
}

Registry& global_registry() {
  // thread_local, not static: parallel seed sweeps run one share-nothing
  // simulation per thread, and each must fold its own registry. On the main
  // thread this is indistinguishable from a process global.
  static thread_local Registry registry;
  return registry;
}

}  // namespace smarth::metrics
