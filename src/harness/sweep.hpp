// Share-nothing parallel seed sweeps. Each seed runs a complete,
// independently constructed simulation on its own worker thread; nothing is
// shared between workers (the metrics registry and trace recorder are
// thread_local), so every per-seed result is bit-identical to running that
// seed alone. Each seed's registry snapshot is merged on the calling thread
// in seed order, making the aggregate deterministic regardless of worker
// scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hdfs/output_stream.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::harness {

/// One seed's outcome, produced on a worker thread.
struct SeedRun {
  std::uint64_t seed = 0;
  hdfs::StreamStats stats;
  /// This seed's metrics registry snapshot.
  metrics::Registry metrics;
  std::uint64_t events = 0;
  /// Harness-level failure: the body threw. (A failed *upload* is a normal
  /// outcome recorded in stats/metrics, not this.)
  bool errored = false;
  std::string error;
  /// This seed's flight-recorder run when the body sampled time series;
  /// empty otherwise. The driver adds the runs to one recorder in seed
  /// order, so the combined export is deterministic.
  metrics::FlightRun timeseries;
};

/// Aggregate of a whole sweep, merged in seed order.
struct SweepSummary {
  std::vector<SeedRun> runs;  ///< one per seed, ascending seed
  metrics::Registry merged;   ///< every non-errored run's metrics, merged
  std::uint64_t total_events = 0;
  int errored = 0;
  // Upload-seconds statistics across non-errored runs.
  double mean_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double stddev_seconds = 0.0;
};

/// The per-seed body: build a fresh world for `seed`, run it, fill `out`.
/// Runs on a worker thread; must not touch anything outside its own world
/// (process-global mutable state like the Logger level is off limits). The
/// worker's metrics registry is reset before the body and copied into
/// `out.metrics` after it returns, once the body's cluster is gone.
using SeedBody = std::function<void(std::uint64_t seed, SeedRun& out)>;

/// Runs `body` for seeds base_seed .. base_seed+seeds-1 across min(jobs,
/// seeds) worker threads (jobs < 1 means one thread per hardware core).
/// Exceptions from the body are captured into SeedRun::error, never
/// propagated — one diverging seed must not abort the sweep. With base_seed
/// 0 the body's `seed` is a run index, so a caller can sweep a table of
/// jobs (bench_paper runs every paper-figure upload this way).
SweepSummary run_seed_sweep(std::uint64_t base_seed, int seeds, int jobs,
                            const SeedBody& body);

/// Renders the per-seed table plus the aggregate line.
std::string render_sweep(const SweepSummary& sweep);

}  // namespace smarth::harness
