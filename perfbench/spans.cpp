#include "spans.hpp"

#include <cstdio>
#include <map>

#include "alloc_counter.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(std::string name, const smarth::sim::Simulation* sim) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back().index;
  span.run = run_;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back({index, allocations(),
                   sim != nullptr ? sim->events_executed() : 0, sim});
  // Stamp last so the span's own bookkeeping is not inside it.
  spans_.back().start_ns = now_ns();
  return index;
}

void SpanRecorder::end(int index) {
  const std::int64_t now = now_ns();
  // Spans close in LIFO order (ScopedSpan), so the innermost is ours.
  const Open open = open_.back();
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now;
  span.allocs = allocations() - open.allocs_at_begin;
  if (open.sim != nullptr) {
    span.events = open.sim->events_executed() - open.events_at_begin;
  }
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += static_cast<double>(self[i]) / 1e9;
  }
  return {by_name.begin(), by_name.end()};
}

std::string SpanRecorder::to_json() const {
  std::string out = "{\"spans\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %zu, \"name\": \"%s\", \"run\": %d, "
                  "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"allocs\": %llu, \"events\": %llu}%s\n",
                  i, s.name.c_str(), s.run, s.parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.allocs),
                  static_cast<unsigned long long>(s.events),
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
