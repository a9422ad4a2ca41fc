// Host-time spans the benchmark records around its own calls into each
// simulator layer (cluster build, arrival generation, simulation slices,
// correctness checks, layer probes). Spans are kept in memory and written
// out as JSON when the benchmark ends. Each span also snapshots the heap
// allocation count and, when given a simulation, its executed-event count,
// so ratios are measured at the same boundaries as the times.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< host steady-clock offset from recorder start
  std::int64_t end_ns = -1;
  int parent = -1;            ///< index of the enclosing span, -1 at the root
  int run = 0;                ///< repetition the span belongs to
  std::uint64_t allocs = 0;   ///< heap allocations inside the span
  std::uint64_t events = 0;   ///< simulated events executed inside the span
};

class SpanRecorder {
 public:
  SpanRecorder();

  void set_run(int run) { run_ = run; }
  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name, const smarth::sim::Simulation* sim = nullptr);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name (duration minus the part covered by children),
  /// summed over every span of that name, in seconds.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  std::string to_json() const;

 private:
  struct Open {
    int index;
    std::uint64_t allocs_at_begin;
    std::uint64_t events_at_begin;
    const smarth::sim::Simulation* sim;
  };
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  int run_ = 0;
};

/// RAII span; inert when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name,
             const smarth::sim::Simulation* sim = nullptr)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->begin(std::move(name), sim)
                                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
