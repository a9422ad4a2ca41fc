// perfbench: the repository benchmark. Runs one named workload for both
// protocols (HDFS, then SMARTH, each on a fresh cluster built from the same
// seed) for a fixed host-time budget and prints every metric by name with
// its unit; the last stdout line is one JSON object.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// --trace 0 prints the end-to-end metrics from untraced repetitions.
// --trace 1 prints the per-layer metrics: counters from an untraced
// repetition, the Formula 1-3 block split from a repetition with the
// simulator's TraceRecorder installed, the benchmark's own host spans, and
// the four layer probes.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "trace/trace_recorder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using smarth::cluster::Protocol;
using Clock = std::chrono::steady_clock;

constexpr Protocol kProtocols[2] = {Protocol::kHdfs, Protocol::kSmarth};
constexpr const char* kPrefix[2] = {"hdfs", "smarth"};
/// Runs of trial 0 always made (its first and the timed repetitions),
/// whatever the budget.
constexpr int kMinReps = 3;
/// Set-up time samples taken after each repetition, within a small
/// host-time slice.
constexpr std::size_t kSetupSamplesPerRep = 100;
constexpr double kSetupSliceS = 0.1;
/// The calibration kernel's time on the reference host. Host times are
/// reported scaled to it: measured * kCalibrationRefS / the kernel's time
/// around the measurement.
constexpr double kCalibrationRefS = 0.060;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || a.seconds <= 0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile, the rule OpenLoopResult::latency_quantile uses.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Output {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Prints the metric table, then the JSON result line.
  void print() const {
    for (const Metric& m : metrics) {
      std::printf("  %-42s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& e : errors) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    std::string json = "{\"correct\": ";
    json += errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted, 1));
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
              buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
};

/// Seed of trial `t` of a run: trial 0 uses the workload seed itself.
std::uint64_t trial_seed(std::uint64_t seed, std::size_t t) {
  return seed + t * 0x9e3779b97f4a7c15ULL;
}

/// One seed's workload configuration.
struct Trial {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
};

using Pair = std::array<ProtocolRun, 2>;  ///< HDFS, SMARTH

/// Both protocols' runs of one trial, HDFS first.
Pair run_pair(const Trial& trial, const RunOptions& options) {
  Pair pair;
  for (std::size_t p = 0; p < 2; ++p) {
    pair[p] = run_protocol(trial.spec, trial.seed, kProtocols[p], options);
  }
  return pair;
}

/// Compares a repetition of trial 0 against its reference run: the
/// simulated outcome always, and the heap allocations made during the
/// simulation when both runs were untraced.
void check_repeat(const Pair& reference, const Pair& rep, bool untraced,
                  const char* what, Output& out) {
  for (std::size_t p = 0; p < 2; ++p) {
    char buf[200];
    const ProtocolRun& want = reference[p];
    const ProtocolRun& got = rep[p];
    if (got.digest != want.digest) {
      std::snprintf(buf, sizeof buf,
                    "%s sim_digest %016" PRIx64 " differs from %016" PRIx64
                    " (%s)",
                    kPrefix[p], got.digest, want.digest, what);
      out.errors.push_back(buf);
    }
    if (untraced && got.run_allocs != want.run_allocs) {
      std::snprintf(buf, sizeof buf,
                    "%s run allocations %" PRIu64 " differ from %" PRIu64
                    " (%s)",
                    kPrefix[p], got.run_allocs, want.run_allocs, what);
      out.errors.push_back(buf);
    }
  }
}

/// Counts one protocol run's jobs and check failures and prints its digest.
void add_outcome(std::size_t p, const ProtocolRun& run, const Trial& trial,
                 Output& out) {
  out.attempted += run.attempted();
  out.failed += run.failed();
  for (const std::string& e : run.check_failures) {
    out.errors.push_back(std::string(kPrefix[p]) + ": " + e);
  }
  std::printf("sim_digest %s %s seed %" PRIu64 " %016" PRIx64
              " events=%" PRIu64 "\n",
              trial.spec.name.c_str(), kPrefix[p], trial.seed, run.digest,
              run.events);
}

/// The simulated end-to-end metrics of one protocol run, unprefixed.
/// Open-loop latency runs from the scheduled arrival; the closed loop's
/// single upload and read are timed as their streams report them, the way
/// smarthsim and the paper figures do.
std::vector<Metric> simulated_metrics(const ProtocolRun& run,
                                      bool closed_loop) {
  std::vector<double> writes, reads;
  double bytes = 0;
  for (const JobRecord& j : run.jobs) {
    if (j.skipped || !j.ok) continue;
    const double latency = smarth::to_seconds(
        j.finished - (closed_loop ? j.started : j.scheduled));
    if (j.read) {
      reads.push_back(latency);
    } else {
      writes.push_back(latency);
      bytes += static_cast<double>(j.bytes);
    }
  }
  const double span = smarth::to_seconds(run.writes_done_at - run.started_at);
  const double attempted = static_cast<double>(run.attempted());
  return {
      {"write_goodput_mibps",
       span > 0 ? bytes / static_cast<double>(smarth::kMiB) / span : 0,
       "MiB/s"},
      {"write_p50_s", quantile(writes, 0.50), "s"},
      {"write_p99_s", quantile(writes, 0.99), "s"},
      {"read_p50_s", quantile(reads, 0.50), "s"},
      {"read_p99_s", quantile(reads, 0.99), "s"},
      {"success_frac",
       attempted > 0 ? 1.0 - static_cast<double>(run.failed()) / attempted
                     : 0,
       "frac"},
  };
}

/// Set-up is timed in its own short loop after every repetition, so the
/// samples span the whole run instead of one moment of host load. Each
/// sample is stored in calibration-kernel passes.
void sample_setup(const Trial& trial, double kernel_s,
                  std::vector<double>& setups) {
  const auto start = Clock::now();
  for (std::size_t n = 0;
       n < kSetupSamplesPerRep && seconds_since(start) < kSetupSliceS; ++n) {
    setups.push_back(time_setup(trial.spec, trial.seed) / kernel_s);
  }
}

/// Every protocol runs once per trial for the simulated metrics. Trial 0
/// (the workload seed itself) is then repeated until the budget is spent:
/// its repetitions give wall_s and setup_s, and must reproduce its first
/// run exactly.
Output measure_end_to_end(const std::vector<Trial>& trials, const Args& args) {
  Output out;
  const auto t0 = Clock::now();
  // Per protocol, one run per trial that protocol has.
  std::array<std::vector<ProtocolRun>, 2> seeds;
  const Pair reference = run_pair(trials[0], {});
  for (std::size_t p = 0; p < 2; ++p) {
    seeds[p].push_back(reference[p]);
    for (std::size_t t = 1; t < trials[0].spec.trials[p]; ++t) {
      seeds[p].push_back(run_protocol(trials[t].spec, trials[t].seed,
                                      kProtocols[p], {}));
    }
  }
  // Each repetition's host times are divided by the calibration kernel's
  // time around it (the mean of the passes just before and after), so the
  // host's drifting speed cancels; the median ratio discards bursts.
  std::vector<double> kernels = {calibration_kernel_s()};
  std::array<std::vector<double>, 2> walls, ratios;
  std::vector<double> setups;
  for (int reps = 1;; ++reps) {
    const auto rep_start = Clock::now();
    const Pair rep = run_pair(trials[0], {});
    kernels.push_back(calibration_kernel_s());
    const double kernel = (kernels[kernels.size() - 2] + kernels.back()) / 2;
    for (std::size_t p = 0; p < 2; ++p) {
      walls[p].push_back(rep[p].run_s);
      ratios[p].push_back(rep[p].run_s / kernel);
    }
    sample_setup(trials[0], kernels.back(), setups);
    check_repeat(reference, rep, true, "repetition of the same seed", out);
    // Stop once another repetition would overrun the budget.
    const double elapsed = seconds_since(t0);
    if (reps + 1 >= kMinReps &&
        elapsed + seconds_since(rep_start) > args.seconds) {
      break;
    }
  }
  std::printf("workload %s seed %" PRIu64 ": %zu/%zu trial(s), %zu "
              "repetitions of trial 0, %zu set-up samples, %.1f s\n",
              trials[0].spec.name.c_str(), args.seed, seeds[0].size(),
              seeds[1].size(), walls[0].size(), setups.size(),
              seconds_since(t0));
  for (std::size_t p = 0; p < 2; ++p) {
    std::printf("%s run_s per repetition:", kPrefix[p]);
    for (double w : walls[p]) std::printf(" %.4f", w);
    std::printf("\n");
  }
  std::printf("calibration kernel passes (reference %.3f s):",
              kCalibrationRefS);
  for (double k : kernels) std::printf(" %.5f", k);
  std::printf("\nunscaled median run_s: hdfs %.6f smarth %.6f\n",
              median(walls[0]), median(walls[1]));
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t t = 0; t < seeds[p].size(); ++t) {
      add_outcome(p, seeds[p][t], trials[t], out);
    }
  }
  out.add("wall_s",
          kCalibrationRefS * (median(ratios[0]) + median(ratios[1])), "s");
  out.add("setup_s", kCalibrationRefS * median(setups), "s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  // Each simulated metric is the median over the protocol's trials.
  const bool closed_loop = trials[0].spec.bulk_file > 0;
  for (std::size_t p = 0; p < 2; ++p) {
    std::vector<std::vector<Metric>> per_trial;
    for (const ProtocolRun& run : seeds[p]) {
      per_trial.push_back(simulated_metrics(run, closed_loop));
    }
    if (closed_loop) {
      std::printf("%s.write_p50_s per trial:", kPrefix[p]);
      for (const auto& metrics : per_trial) {
        std::printf(" %.2f", metrics[1].value);
      }
      std::printf("\n");
    }
    for (std::size_t m = 0; m < per_trial[0].size(); ++m) {
      std::vector<double> values;
      for (const auto& metrics : per_trial) values.push_back(metrics[m].value);
      out.add(std::string(kPrefix[p]) + "." + per_trial[0][m].name,
              median(values), per_trial[0][m].unit);
    }
  }
  return out;
}

double layer_value(const ProtocolRun& run, const char* name) {
  for (const Metric& m : run.layers) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// The A12 question side by side: where each protocol's write tail comes
/// from, read off one run.
void print_tail_table(const Pair& counters, const Pair& traced,
                      bool closed_loop) {
  std::printf("\n%-8s %12s %14s %10s %11s %11s %10s %10s %11s\n", "protocol",
              "write p99 s", "addBlock p99 s", "shed ratio", "recov ratio",
              "allocate s", "setup s", "stream s", "tail-ack s");
  for (std::size_t p = 0; p < 2; ++p) {
    const ProtocolRun& c = counters[p];
    const ProtocolRun& t = traced[p];
    double write_p99 = 0;
    for (const Metric& m : simulated_metrics(c, closed_loop)) {
      if (m.name == "write_p99_s") write_p99 = m.value;
    }
    std::printf("%-8s %12.3f %14.3f %10.4f %11.4f %11.4f %10.4f %10.4f %11.4f\n",
                kPrefix[p], write_p99,
                layer_value(c, "hdfs.nn.addblock_p99_s"),
                layer_value(c, "rpc.nn_shed_ratio"),
                layer_value(c, "hdfs.stream.recovery_ratio"),
                layer_value(t, "hdfs.stream.allocate_s"),
                layer_value(t, "hdfs.stream.setup_s"),
                layer_value(t, "hdfs.stream.stream_s"),
                layer_value(t, "hdfs.stream.tail_ack_s"));
  }
  std::printf("(allocate/setup/stream/tail-ack: simulated seconds per block)\n\n");
}

/// Per-layer numbers come from the first trial only: an untraced
/// repetition supplies the counters, host ns and allocations per event, a
/// traced one the block-phase split and the host spans; the two alternate
/// until the budget is spent, and their wall-time ratio is the tracing
/// overhead.
Output measure_layers(const Trial& trial, const Args& args) {
  Output out;
  SpanRecorder spans;
  const std::vector<ProbeResult> probes = run_probes(&spans);

  std::vector<double> untraced_walls, traced_walls, builds, generates;
  Pair counters, traced;
  const auto t0 = Clock::now();
  for (int pair = 0;; ++pair) {
    const auto pair_start = Clock::now();
    RunOptions plain;
    plain.collect_layers = pair == 0;
    Pair u = run_pair(trial, plain);
    smarth::trace::TraceRecorder recorder;
    RunOptions with_trace;
    with_trace.recorder = &recorder;
    with_trace.spans = &spans;
    spans.set_run(pair + 1);
    Pair t = run_pair(trial, with_trace);
    untraced_walls.push_back(u[0].run_s + u[1].run_s);
    traced_walls.push_back(t[0].run_s + t[1].run_s);
    for (const Pair* rep : {&u, &t}) {
      for (const ProtocolRun& r : *rep) {
        builds.push_back(r.build_s);
        generates.push_back(r.generate_s);
      }
    }
    if (pair == 0) {
      counters = std::move(u);
      traced = std::move(t);
      check_repeat(counters, traced, false, "traced vs untraced", out);
    } else {
      check_repeat(counters, u, true, "repetition of the same seed", out);
      // The host spans kept across traced repetitions grow their buffers,
      // so only untraced repetitions must allocate exactly alike.
      check_repeat(traced, t, false, "traced repetition of the same seed",
                   out);
    }
    const double elapsed = seconds_since(t0);
    if (elapsed + seconds_since(pair_start) > args.seconds) break;
  }
  std::printf("workload %s seed %" PRIu64 ": %zu untraced/traced pairs\n",
              trial.spec.name.c_str(), trial.seed, untraced_walls.size());
  for (std::size_t p = 0; p < 2; ++p) add_outcome(p, counters[p], trial, out);

  for (std::size_t p = 0; p < 2; ++p) {
    const std::string prefix = std::string(kPrefix[p]) + ".";
    for (const Pair* rep : {&counters, &traced}) {
      for (const Metric& m : (*rep)[p].layers) {
        // The smarth layer only exists in SMARTH runs.
        if (kProtocols[p] == Protocol::kHdfs &&
            m.name.rfind("smarth.", 0) == 0) {
          continue;
        }
        out.add(prefix + m.name, m.value, m.unit);
      }
    }
  }
  for (const ProbeResult& probe : probes) {
    out.add(probe.layer + ".probe_ns", probe.ns_per_op, "ns");
    out.add(probe.layer + ".probe_allocs", probe.allocs_per_op, "count");
  }
  out.add("cluster.build_s", median(builds), "s");
  out.add("workload.generate_s", median(generates), "s");
  const std::vector<Arrival> arrivals =
      generate_arrivals(trial.spec, trial.seed);
  double offered = 0;
  for (const Arrival& a : arrivals) offered += static_cast<double>(a.size);
  out.add("workload.jobs", static_cast<double>(arrivals.size()), "count");
  out.add("workload.gib_offered", offered / static_cast<double>(smarth::kGiB),
          "GiB");
  out.add("trace.overhead_frac",
          median(traced_walls) / median(untraced_walls) - 1.0, "frac");

  print_tail_table(counters, traced, trial.spec.bulk_file > 0);
  std::printf("host self time by span (traced repetitions, s):\n");
  for (const auto& [name, secs] : spans.self_seconds()) {
    std::printf("  %-24s %10.4f\n", name.c_str(), secs);
  }
  if (!args.spans_out.empty()) {
    if (std::FILE* f = std::fopen(args.spans_out.c_str(), "w")) {
      const std::string json = spans.to_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("spans written to %s\n", args.spans_out.c_str());
    } else {
      out.errors.push_back("cannot write " + args.spans_out);
    }
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  std::vector<Trial> trials;
  for (std::size_t t = 0;; ++t) {
    const std::uint64_t seed = trial_seed(args.seed, t);
    std::optional<WorkloadSpec> spec = workload_spec(args.workload, seed);
    if (!spec) usage(("unknown workload " + args.workload).c_str());
    trials.push_back({std::move(*spec), seed});
    const WorkloadSpec& first = trials[0].spec;
    if (trials.size() >= std::max(first.trials[0], first.trials[1])) break;
  }
  const Output out = args.trace == 0 ? measure_end_to_end(trials, args)
                                     : measure_layers(trials[0], args);
  out.print();
  return out.errors.empty() ? 0 : 1;
}
