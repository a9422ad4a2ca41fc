// Flight recorder: time-resolved telemetry sampled from the metrics registry
// on a simulated-time cadence. Where the registry answers "what happened over
// the whole run", the flight recorder answers "when": per-interval counter
// deltas (sheds, retries, bytes acked, jobs finished), gauge values (queue
// depth, hedges in flight, under-replicated blocks, live datanodes) and
// windowed histogram quantiles (per-interval addBlock p99, read gap p99),
// ring-buffered per run and exportable as JSON, CSV or Chrome-trace counter
// ("C"-phase) tracks that render in Perfetto aligned with the span tracer.
//
// Like the span tracer the recorder is *off by default* and per-thread: a
// null thread_local pointer means no sampler task is ever scheduled and the
// simulation timeline is untouched (the cluster only attaches its sampling
// PeriodicTask when a recorder is installed). Sampling reads state and never
// mutates it, so installing a recorder shifts no seed's timeline: same seed,
// bit-identical series.
//
// On top of the series sits a watchdog layer: declarative anomaly monitors
// (no-goodput-progress stall, gauge stuck nonzero at quiescence, queue-depth
// runaway) that latch once per run and capture a structured diagnostic dump —
// the last-N samples, a registry snapshot, and the simulator's pending event
// category summary — at the moment they trip.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace smarth::metrics {

/// How one exported column is derived from the registry each tick.
enum class SeriesKind {
  kCounterDelta,        ///< counter increase since the previous tick
  kGauge,               ///< gauge value at the tick
  kHistogramQuantile,   ///< quantile of the observations in the last interval
};

struct SeriesSpec {
  std::string column;  ///< exported column name
  SeriesKind kind;
  std::string metric;  ///< registry metric name
  double quantile = 0.99;  ///< kHistogramQuantile only
};

/// The default telemetry set: control-plane pressure (sheds, retries, queue
/// depth), goodput (bytes acked, jobs finished), pipeline concurrency (the
/// pipelines the clients' unfinished streams hold open), degradation
/// (hedges, under-replication, live datanodes) and windowed tail latencies.
std::vector<SeriesSpec> default_series();

/// One ring entry: the sample time and one value per configured column.
struct FlightSample {
  SimTime at = 0;
  std::vector<double> values;
};

/// A declarative anomaly monitor over the sampled series.
struct WatchdogSpec {
  enum class Kind {
    /// Pending work exists (`pending` gauge > 0) but the `series` progress
    /// delta has been zero for `window` consecutive ticks.
    kStall,
    /// The `series` gauge has been >= `threshold` for `window` consecutive
    /// ticks (e.g. an unbounded queue past any sane depth).
    kRunaway,
    /// At finish_run() the registry gauge named `series` is still nonzero —
    /// something leaked past quiescence.
    kStuckAtQuiescence,
  };
  std::string name;
  Kind kind = Kind::kStall;
  std::string series;   ///< stall: progress column; runaway: gauge column;
                        ///< quiescence: registry gauge name
  std::string pending;  ///< stall only: gauge column that must be > 0
  double threshold = 0.0;
  int window = 1;
};

/// Stall on goodput, runaway on namenode queue depth, stuck-at-quiescence on
/// hedges / open streams / in-flight jobs. Window sizes assume the default
/// 1 s sample interval; see DESIGN.md §14 for how they were calibrated.
std::vector<WatchdogSpec> default_watchdogs();

/// The structured dump captured when a monitor trips.
struct WatchdogFiring {
  std::string monitor;
  SimTime at = 0;
  std::string reason;
  std::vector<FlightSample> tail;  ///< last-N ring samples at the firing
  std::string registry_json;       ///< Registry::to_json() snapshot
  std::string pending_summary;     ///< Simulation::pending_category_summary()
};

struct FlightRecorderConfig {
  SimDuration sample_interval = seconds(1);
  std::size_t ring_capacity = 4096;  ///< samples kept per run (oldest dropped)
  /// Samples included in a watchdog dump.
  static constexpr std::size_t dump_tail = 32;
  std::vector<SeriesSpec> series = default_series();
  std::vector<WatchdogSpec> watchdogs = default_watchdogs();
};

/// One run's series (e.g. the HDFS arm of a comparison, or one sweep seed).
struct FlightRun {
  std::string name;
  std::uint64_t seed = 0;
  std::deque<FlightSample> samples;  ///< ring, capped at ring_capacity
  std::uint64_t samples_taken = 0;   ///< including any dropped from the ring
  std::uint64_t dropped = 0;
  std::vector<WatchdogFiring> firings;
  bool finished = false;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  const FlightRecorderConfig& config() const { return config_; }
  SimDuration sample_interval() const { return config_.sample_interval; }
  /// The index of the column named `name` in every sample's values; the
  /// config must have that column.
  std::size_t column(const std::string& name) const;

  /// Starts a new run; subsequent samples land in it. Resets the per-run
  /// counter baselines, histogram windows and monitor latches.
  int begin_run(const std::string& name, std::uint64_t seed);

  /// Takes one sample from the thread's global registry, evaluates the tick
  /// monitors and — when the span tracer is active — emits one Chrome-trace
  /// counter event per column so the series render beside the spans.
  /// Does nothing once the current run is finished.
  void sample(SimTime now);

  /// Ends the current run: evaluates the stuck-at-quiescence monitors
  /// against the live registry gauges. Idempotent.
  void finish_run(SimTime now);

  /// Installs the provider for the pending-event-category section of
  /// watchdog dumps (normally the cluster's simulation). Cleared (nullptr)
  /// by the cluster before its simulation dies.
  void set_pending_summary_provider(std::function<std::string()> provider) {
    pending_summary_ = std::move(provider);
  }

  const std::vector<FlightRun>& runs() const { return runs_; }
  /// Moves the last run out of the recorder, e.g. off a sweep worker's
  /// thread.
  FlightRun take_run();
  /// Appends a run recorded elsewhere with the same series (taken from a
  /// sweep worker's recorder) after this recorder's runs, for export beside
  /// them.
  void add_run(FlightRun run);
  /// Watchdog firings across every run (optionally for one monitor name).
  std::size_t total_firings() const;
  std::size_t firings_of(const std::string& monitor) const;

  /// {"sample_interval_ns":...,"columns":[...],"runs":[...]}; every number
  /// is rendered deterministically, so same-seed runs export bit-identical
  /// documents.
  std::string to_json() const;
  /// Wide CSV: run,seed,t_ns,<column...>; one row per sample.
  std::string to_csv() const;

 private:
  struct MonitorState {
    int streak = 0;
    bool fired = false;
  };

  void fire(const WatchdogSpec& spec, SimTime now, const std::string& reason);
  double series_value(const SeriesSpec& spec, std::size_t index);

  FlightRecorderConfig config_;
  std::map<std::string, std::size_t> column_index_;
  std::function<std::string()> pending_summary_;
  std::vector<FlightRun> runs_;

  // Per-run sampling state, reset by begin_run(). Histogram baselines are
  // per *column* (not per metric) so two quantile columns over one metric
  // each see the full window.
  std::vector<std::uint64_t> counter_baseline_;            ///< parallel to series
  std::vector<std::vector<std::uint64_t>> hist_baseline_;  ///< parallel to series
  std::vector<MonitorState> monitor_state_;  ///< parallel to watchdogs
};

/// Per-thread recorder pointer, mirroring trace::g_recorder: null (the
/// default) disables sampling entirely; thread_local so parallel seed sweeps
/// record per worker without sharing.
extern thread_local FlightRecorder* g_flight_recorder;

inline bool flight_active() { return g_flight_recorder != nullptr; }
inline FlightRecorder* flight_recorder() { return g_flight_recorder; }

/// Installs `r` as this thread's flight recorder (nullptr disables).
void install_flight_recorder(FlightRecorder* r);

/// RAII installer for tests, benches and sweep workers.
class ScopedFlightInstall {
 public:
  explicit ScopedFlightInstall(FlightRecorder* r)
      : previous_(g_flight_recorder) {
    install_flight_recorder(r);
  }
  ~ScopedFlightInstall() { install_flight_recorder(previous_); }
  ScopedFlightInstall(const ScopedFlightInstall&) = delete;
  ScopedFlightInstall& operator=(const ScopedFlightInstall&) = delete;

 private:
  FlightRecorder* previous_;
};

}  // namespace smarth::metrics
