// Event-core speed: an in-process comparison of the calendar-queue event
// core against the pre-refactor reference design (sim/reference_queue.hpp).
// Emits BENCH_engine_scale.json, which CI keeps as trajectory data: the
// core speedup ratio moves with the binary even when the reference core's
// source is unchanged, so it gates nothing (the EngineCounters.* pins in
// test_engine_core are the deterministic gate). The two churns run
// interleaved, kRounds times, and the reported speedup is the median of the
// per-round ratios: one ratio from a single pair swings with whatever else
// the host runs. Whole-cluster scale (1000 datanodes, both protocols) is
// perfbench's `wide_mixed` workload.
//
//   bench_engine_scale [output.json]
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "sim/reference_queue.hpp"
#include "sim/simulation.hpp"

using namespace smarth;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- Core micro-comparison ---------------------------------------------------
// Steady-state churn: `chains` concurrent self-rescheduling chains, the shape
// of a running simulation (every executed event schedules its successor).
// Identical workload on both cores; the ratio of events/sec is the speedup
// the refactor buys, independent of the machine the bench runs on.

constexpr int kChurnChains = 65536;
constexpr std::uint64_t kChurnEvents = 2'000'000;
/// Calendar-then-reference pairs; odd, so the median is one round's ratio.
constexpr int kRounds = 7;

SimDuration churn_delay(std::uint64_t n) {
  return 100 + static_cast<SimDuration>((n * 2654435761u) % 10'000);
}

struct CoreRate {
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec() const { return wall_s > 0 ? static_cast<double>(events) / wall_s : 0; }
};

CoreRate churn_calendar() {
  sim::Simulation sim(1);
  std::uint64_t n = 0;
  std::function<void()> spawn = [&] {
    sim.post_after(churn_delay(n++), "churn", [&] { spawn(); });
  };
  for (int i = 0; i < kChurnChains; ++i) spawn();
  const auto start = std::chrono::steady_clock::now();
  sim.run_steps(kChurnEvents);
  CoreRate rate;
  rate.wall_s = wall_seconds_since(start);
  rate.events = sim.events_executed();
  return rate;
}

CoreRate churn_reference() {
  sim::ReferenceQueue sim;
  std::uint64_t n = 0;
  std::function<void()> spawn = [&] {
    sim.schedule_after(churn_delay(n++), [&] { spawn(); });
  };
  for (int i = 0; i < kChurnChains; ++i) spawn();
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t executed = 0;
  while (executed < kChurnEvents && sim.execute_one()) ++executed;
  CoreRate rate;
  rate.wall_s = wall_seconds_since(start);
  rate.events = executed;
  return rate;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // The one optional argument is the output path: a flag or a second
  // argument is a usage error, not a file to write after a 10 s churn.
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [output.json]\n", argv[0]);
    return 2;
  }
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_engine_scale.json";
  std::printf("engine core churn (%d chains, %llu events, %d rounds):\n",
              kChurnChains, static_cast<unsigned long long>(kChurnEvents),
              kRounds);
  std::vector<double> calendar_rates;
  std::vector<double> reference_rates;
  std::vector<double> speedups;
  for (int round = 0; round < kRounds; ++round) {
    const double calendar = churn_calendar().events_per_sec();
    const double reference = churn_reference().events_per_sec();
    const double speedup = reference > 0 ? calendar / reference : 0;
    std::printf("  round %d  calendar %10.0f  reference %10.0f  events/s"
                "  speedup %5.2fx\n",
                round + 1, calendar, reference, speedup);
    calendar_rates.push_back(calendar);
    reference_rates.push_back(reference);
    speedups.push_back(speedup);
  }
  const double speedup = median(speedups);
  std::printf("  median speedup %.2fx (range %.2f-%.2f)\n", speedup,
              *std::min_element(speedups.begin(), speedups.end()),
              *std::max_element(speedups.begin(), speedups.end()));

  std::string json = "{\n  \"bench\": \"engine_scale\",\n";
  json += "  \"core_microbench\": {\"chains\": " + std::to_string(kChurnChains) +
          ", \"events\": " + std::to_string(kChurnEvents) +
          ", \"rounds\": " + std::to_string(kRounds) +
          ", \"calendar_events_per_sec\": " +
          json_num(median(calendar_rates)) +
          ", \"reference_events_per_sec\": " +
          json_num(median(reference_rates)) +
          ", \"speedup\": " + json_num(speedup) + ", \"round_speedups\": [";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    json += (i > 0 ? ", " : "") + json_num(speedups[i]);
  }
  json += "]}\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  const bool written = std::fwrite(json.data(), 1, json.size(), f) ==
                       json.size();
  // fclose flushes the buffer, so a full disk may only show up here.
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::printf("\nwritten to %s\n", out_path.c_str());
  return 0;
}
