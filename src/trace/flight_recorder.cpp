#include "trace/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::metrics {

thread_local FlightRecorder* g_flight_recorder = nullptr;

void install_flight_recorder(FlightRecorder* r) { g_flight_recorder = r; }

std::vector<SeriesSpec> default_series() {
  using K = SeriesKind;
  return {
      {"nn.rpc.admitted", K::kCounterDelta, "nn.rpc.admitted", 0.99},
      {"nn.rpc.shed", K::kCounterDelta, "nn.rpc.shed", 0.99},
      {"rpc.retries", K::kCounterDelta, "rpc.retries", 0.99},
      {"rpc.overload_retries", K::kCounterDelta, "rpc.overload_retries", 0.99},
      {"rpc.give_ups", K::kCounterDelta, "rpc.give_ups", 0.99},
      {"client.bytes_acked", K::kCounterDelta, "client.bytes_acked", 0.99},
      {"workload.jobs_completed", K::kCounterDelta, "workload.jobs_completed",
       0.99},
      {"workload.jobs_failed", K::kCounterDelta, "workload.jobs_failed", 0.99},
      {"nn.rpc.queue_depth", K::kGauge, "nn.rpc.queue_depth", 0.99},
      {"workload.jobs_in_flight", K::kGauge, "workload.jobs_in_flight", 0.99},
      {"client.streams_open", K::kGauge, "client.streams_open", 0.99},
      {"client.pipelines_open", K::kGauge, "client.pipelines_open", 0.99},
      {"client.reads_open", K::kGauge, "client.reads_open", 0.99},
      {"read.hedges_in_flight", K::kGauge, "read.hedges_in_flight", 0.99},
      {"nn.under_replicated", K::kGauge, "nn.under_replicated", 0.99},
      {"nn.live_datanodes", K::kGauge, "nn.live_datanodes", 0.99},
      {"client.addblock_p99_ns", K::kHistogramQuantile, "client.addblock_ns",
       0.99},
      {"read.gap_p99_ns", K::kHistogramQuantile, "read.gap_ns", 0.99},
  };
}

std::vector<WatchdogSpec> default_watchdogs() {
  using K = WatchdogSpec::Kind;
  return {
      // Streams are open but nothing has been acked for a sustained stretch:
      // the data plane is wedged (retry storm, dead pipelines, lost acks).
      // The window must sit above the longest *legitimate* zero-progress gap
      // a recovering run can show — chaos soaks pause goodput across a 3 s
      // namenode outage plus safe-mode plus retry backoff — while still
      // firing well inside an overload collapse, whose drain phase holds
      // zero goodput for minutes (see DESIGN.md §14 for the calibration).
      {"goodput_stall", K::kStall, "client.bytes_acked", "client.streams_open",
       0.0, 45},
      // An unbounded FIFO past any sane depth for 10 straight ticks: the
      // admission-controlled queue is capped at 32, so a sustained depth
      // several multiples above that only happens when nothing defends it.
      {"queue_runaway", K::kRunaway, "nn.rpc.queue_depth", "", 192.0, 10},
      // Leak detectors: these gauges must return to zero once a run drains.
      {"hedges_stuck", K::kStuckAtQuiescence, "read.hedges_in_flight", "", 0.0,
       1},
      {"streams_stuck", K::kStuckAtQuiescence, "client.streams_open", "", 0.0,
       1},
  };
}

// Deterministic number rendering (shared with the counter tracks): the
// determinism of the export reduces to the determinism of the sampled
// values.
using trace::format_number;

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  SMARTH_CHECK_MSG(config_.sample_interval > 0,
                   "flight recorder sample_interval must be positive");
  SMARTH_CHECK_MSG(config_.ring_capacity > 0,
                   "flight recorder ring_capacity must be positive");
  for (std::size_t i = 0; i < config_.series.size(); ++i) {
    column_index_.emplace(config_.series[i].column, i);
  }
  counter_baseline_.assign(config_.series.size(), 0);
  hist_baseline_.assign(config_.series.size(), {});
  monitor_state_.assign(config_.watchdogs.size(), MonitorState{});
}

std::size_t FlightRecorder::column(const std::string& name) const {
  const auto it = column_index_.find(name);
  SMARTH_CHECK_MSG(it != column_index_.end(),
                   "flight recorder has no column " + name);
  return it->second;
}

int FlightRecorder::begin_run(const std::string& name, std::uint64_t seed) {
  // A caller that forgot finish_run() just gets its run sealed without the
  // quiescence checks — they would read the *next* run's registry.
  FlightRun run;
  run.name = name;
  run.seed = seed;
  add_run(std::move(run));
  // Rebase the delta baselines to the registry's *current* values: the new
  // run's first sample must only count what happened after begin_run, even
  // when the caller carries one registry across runs without resetting it.
  // Reading every column moves its baseline there; a histogram that does
  // not exist yet starts from an empty baseline.
  for (std::size_t i = 0; i < config_.series.size(); ++i) {
    hist_baseline_[i].clear();
    (void)series_value(config_.series[i], i);
  }
  monitor_state_.assign(config_.watchdogs.size(), MonitorState{});
  return static_cast<int>(runs_.size()) - 1;
}

double FlightRecorder::series_value(const SeriesSpec& spec, std::size_t index) {
  Registry& reg = global_registry();
  switch (spec.kind) {
    case SeriesKind::kCounterDelta: {
      const Counter* c = reg.find_counter(spec.metric);
      const std::uint64_t cur = c ? c->value() : 0;
      std::uint64_t& last = counter_baseline_[index];
      // A registry reset mid-run restarts the counter: treat the new value
      // as the whole delta rather than underflowing.
      const std::uint64_t delta = cur >= last ? cur - last : cur;
      last = cur;
      return static_cast<double>(delta);
    }
    case SeriesKind::kGauge: {
      const Gauge* g = reg.find_gauge(spec.metric);
      return g ? g->value() : 0.0;
    }
    case SeriesKind::kHistogramQuantile: {
      const LatencyHistogram* h = reg.find_histogram(spec.metric);
      if (h == nullptr) return 0.0;
      const Histogram& hist = h->histogram();
      const std::size_t n = hist.bucket_count();
      std::vector<std::uint64_t>& base = hist_baseline_[index];
      if (base.size() != n) base.assign(n, 0);
      // Window the distribution: this interval's observations are the
      // per-bucket count increases since the previous tick.
      std::vector<std::uint64_t> window(n, 0);
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t cur = hist.bucket(i);
        window[i] = cur >= base[i] ? cur - base[i] : cur;
        total += window[i];
        base[i] = cur;
      }
      return hist.quantile_of(window, total, spec.quantile);
    }
  }
  return 0.0;
}

void FlightRecorder::sample(SimTime now) {
  if (runs_.empty()) begin_run("run", 0);
  FlightRun& run = runs_.back();
  // Time driven after finish_run belongs to no run: the sealed run keeps
  // the samples its watchdogs judged.
  if (run.finished) return;

  FlightSample s;
  s.at = now;
  s.values.resize(config_.series.size(), 0.0);
  for (std::size_t i = 0; i < config_.series.size(); ++i) {
    s.values[i] = series_value(config_.series[i], i);
  }
  run.samples.push_back(std::move(s));
  ++run.samples_taken;
  if (run.samples.size() > config_.ring_capacity) {
    run.samples.pop_front();
    ++run.dropped;
  }
  const FlightSample& cur = run.samples.back();

  // Mirror the sample onto Chrome-trace counter tracks so the series render
  // in Perfetto on the same timeline as the spans.
  if (trace::active()) {
    trace::TraceRecorder* tr = trace::recorder();
    for (std::size_t i = 0; i < config_.series.size(); ++i) {
      tr->counter("flight", config_.series[i].column, cur.values[i]);
    }
  }

  // A monitor naming a column the config lacks never trips.
  const auto value_of = [&](const std::string& name) -> const double* {
    const auto it = column_index_.find(name);
    return it == column_index_.end() ? nullptr : &cur.values[it->second];
  };
  for (std::size_t m = 0; m < config_.watchdogs.size(); ++m) {
    const WatchdogSpec& spec = config_.watchdogs[m];
    MonitorState& st = monitor_state_[m];
    if (st.fired) continue;
    switch (spec.kind) {
      case WatchdogSpec::Kind::kStall: {
        const double* progress = value_of(spec.series);
        const double* pending = value_of(spec.pending);
        if (progress == nullptr || pending == nullptr) break;
        if (*pending > 0.0 && *progress <= 0.0) {
          if (++st.streak >= spec.window) {
            st.fired = true;
            fire(spec, now,
                 "no progress on " + spec.series + " for " +
                     std::to_string(st.streak) + " consecutive samples with " +
                     spec.pending + "=" + format_number(*pending));
          }
        } else {
          st.streak = 0;
        }
        break;
      }
      case WatchdogSpec::Kind::kRunaway: {
        const double* gauge = value_of(spec.series);
        if (gauge == nullptr) break;
        if (*gauge >= spec.threshold) {
          if (++st.streak >= spec.window) {
            st.fired = true;
            fire(spec, now,
                 spec.series + "=" + format_number(*gauge) + " >= " +
                     format_number(spec.threshold) + " for " +
                     std::to_string(st.streak) + " consecutive samples");
          }
        } else {
          st.streak = 0;
        }
        break;
      }
      case WatchdogSpec::Kind::kStuckAtQuiescence:
        break;  // evaluated by finish_run()
    }
  }
}

void FlightRecorder::finish_run(SimTime now) {
  if (runs_.empty() || runs_.back().finished) return;
  Registry& reg = global_registry();
  for (std::size_t m = 0; m < config_.watchdogs.size(); ++m) {
    const WatchdogSpec& spec = config_.watchdogs[m];
    MonitorState& st = monitor_state_[m];
    if (spec.kind != WatchdogSpec::Kind::kStuckAtQuiescence || st.fired) {
      continue;
    }
    const Gauge* g = reg.find_gauge(spec.series);
    const double v = g ? g->value() : 0.0;
    if (v != 0.0) {
      st.fired = true;
      fire(spec, now,
           spec.series + " still " + format_number(v) + " at quiescence");
    }
  }
  runs_.back().finished = true;
}

void FlightRecorder::fire(const WatchdogSpec& spec, SimTime now,
                          const std::string& reason) {
  FlightRun& run = runs_.back();
  WatchdogFiring f;
  f.monitor = spec.name;
  f.at = now;
  f.reason = reason;
  const std::size_t tail = std::min(config_.dump_tail, run.samples.size());
  f.tail.assign(run.samples.end() - static_cast<std::ptrdiff_t>(tail),
                run.samples.end());
  f.registry_json = global_registry().to_json();
  if (pending_summary_) f.pending_summary = pending_summary_();
  if (trace::active()) {
    trace::recorder()->instant(trace::Category::kRun, "flight",
                               "watchdog:" + spec.name, {{"reason", reason}});
  }
  run.firings.push_back(std::move(f));
}

FlightRun FlightRecorder::take_run() {
  SMARTH_CHECK_MSG(!runs_.empty(), "flight recorder has no run to take");
  FlightRun run = std::move(runs_.back());
  runs_.pop_back();
  return run;
}

void FlightRecorder::add_run(FlightRun run) {
  if (!runs_.empty()) runs_.back().finished = true;
  runs_.push_back(std::move(run));
}

std::size_t FlightRecorder::total_firings() const {
  std::size_t n = 0;
  for (const FlightRun& run : runs_) n += run.firings.size();
  return n;
}

std::size_t FlightRecorder::firings_of(const std::string& monitor) const {
  std::size_t n = 0;
  for (const FlightRun& run : runs_) {
    for (const WatchdogFiring& f : run.firings) {
      if (f.monitor == monitor) ++n;
    }
  }
  return n;
}

namespace {

/// [[t_ns,v,...],...] for a run's ring or a watchdog dump's tail.
template <typename Samples>
void append_samples_json(std::string& out, const Samples& samples) {
  out += "[";
  bool first = true;
  for (const FlightSample& s : samples) {
    if (!first) out += ",";
    first = false;
    out += '[';
    out += std::to_string(s.at);
    for (double v : s.values) {
      out += ',';
      out += format_number(v);
    }
    out += ']';
  }
  out += "]";
}

void append_run_object(std::string& out, const FlightRun& run) {
  out += "{\"name\":\"" + trace::json_escape(run.name) + "\"";
  out += ",\"seed\":" + std::to_string(run.seed);
  out += ",\"samples_taken\":" + std::to_string(run.samples_taken);
  out += ",\"dropped\":" + std::to_string(run.dropped);
  out += ",\"samples\":";
  append_samples_json(out, run.samples);
  out += ",\"watchdogs\":[";
  bool first = true;
  for (const WatchdogFiring& f : run.firings) {
    if (!first) out += ",";
    first = false;
    out += "{\"monitor\":\"" + trace::json_escape(f.monitor) + "\"";
    out += ",\"at_ns\":" + std::to_string(f.at);
    out += ",\"reason\":\"" + trace::json_escape(f.reason) + "\"";
    out += ",\"tail\":";
    append_samples_json(out, f.tail);
    // The registry snapshot is already a JSON document; embed it verbatim.
    out += ",\"registry\":" +
           (f.registry_json.empty() ? std::string("{}") : f.registry_json);
    out += ",\"pending_events\":\"" + trace::json_escape(f.pending_summary) +
           "\"}";
  }
  out += "]}";
}

}  // namespace

std::string FlightRecorder::to_json() const {
  std::string out =
      "{\"sample_interval_ns\":" + std::to_string(config_.sample_interval);
  out += ",\"columns\":[\"t_ns\"";
  for (const SeriesSpec& spec : config_.series) {
    out += ",\"" + trace::json_escape(spec.column) + "\"";
  }
  out += "],\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (i != 0) out += ",";
    out += '\n';
    append_run_object(out, runs_[i]);
  }
  out += "\n]}\n";
  return out;
}

std::string FlightRecorder::to_csv() const {
  std::string out = "run,seed,t_ns";
  for (const SeriesSpec& spec : config_.series) out += "," + spec.column;
  out += "\n";
  for (const FlightRun& run : runs_) {
    for (const FlightSample& s : run.samples) {
      out += run.name + "," + std::to_string(run.seed) + "," +
             std::to_string(s.at);
      for (double v : s.values) {
        out += ',';
        out += format_number(v);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace smarth::metrics
