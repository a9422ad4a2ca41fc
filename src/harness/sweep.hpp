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

#include "harness/experiment.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::harness {

/// One seed's run, produced on a worker thread. A failed *upload* is a
/// normal outcome recorded in its stats and metrics; `errored` is a
/// harness-level failure: the body threw. Its flight run, when the body
/// sampled time series, leaves the worker with it; the driver adds the runs
/// to one recorder in seed order, so the combined export is deterministic.
struct SeedRun : Run {
  std::uint64_t seed = 0;
  /// This seed's metrics registry snapshot.
  metrics::Registry metrics;
  bool errored = false;
  std::string error;
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

/// The per-seed body: runs a fresh world for `seed` through run_protocol,
/// which resets the worker's metrics registry; the registry is copied into
/// SeedRun::metrics after the body returns, once its cluster is gone. Runs
/// on a worker thread; must not touch anything outside its own world
/// (process-global mutable state like the Logger level is off limits).
using SeedBody = std::function<Run(std::uint64_t seed)>;

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
