// Microbenchmarks (google-benchmark) for the simulation substrate itself:
// event scheduling/dispatch throughput, link store-and-forward throughput,
// and end-to-end simulated-upload event rate. These gate the wall-clock cost
// of the figure benches, not any paper result.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "net/link.hpp"
#include "sim/reference_queue.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace smarth;

void BM_EventScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::int64_t counter = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(i, "bench", [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventScheduleDispatch);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      handles.push_back(sim.schedule_at(i, "bench", [] {}));
    }
    for (auto& h : handles) h.cancel();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventCancellation);

// Steady-state churn: Arg(0) concurrent self-rescheduling chains — the shape
// of a running simulation (every dispatched event schedules a successor a
// short,
// varying delay ahead). This is where record pooling and the calendar
// queue's O(1) future inserts pay off; the *Reference variant runs the same
// workload on the pre-refactor core kept in sim/reference_queue.hpp, so the
// pair reports the engine speedup independent of machine load.
constexpr std::uint64_t kChurnEvents = 100'000;

SimDuration churn_delay(std::uint64_t n) {
  return 100 + static_cast<SimDuration>((n * 2654435761u) % 10'000);
}

void BM_EventChurn(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t fired = 0;
    std::function<void()> spawn = [&] {
      if (++fired >= kChurnEvents) return;
      sim.post_after(churn_delay(fired), "churn", [&] { spawn(); });
    };
    for (int c = 0; c < chains; ++c) {
      sim.post_after(churn_delay(static_cast<std::uint64_t>(c)), "churn",
                     [&] { spawn(); });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurn)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EventChurnReference(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ReferenceQueue sim;
    std::uint64_t fired = 0;
    std::function<void()> spawn = [&] {
      if (++fired >= kChurnEvents) return;
      sim.schedule_after(churn_delay(fired), [&] { spawn(); });
    };
    for (int c = 0; c < chains; ++c) {
      sim.schedule_after(churn_delay(static_cast<std::uint64_t>(c)),
                         [&] { spawn(); });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChurnEvents));
}
BENCHMARK(BM_EventChurnReference)->Arg(64)->Arg(4096)->Arg(65536);

void BM_LinkStoreAndForward(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    net::Link link(sim, "l", Bandwidth::mbps(1000), microseconds(100));
    std::int64_t delivered = 0;
    for (int i = 0; i < 5'000; ++i) {
      link.transmit(64 * kKiB, [&delivered] { ++delivered; });
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 5'000);
}
BENCHMARK(BM_LinkStoreAndForward);

void BM_UploadEventsPerSecond(benchmark::State& state) {
  const Bytes size = static_cast<Bytes>(state.range(0)) * kMiB;
  std::uint64_t events = 0;
  for (auto _ : state) {
    cluster::ClusterSpec spec = cluster::small_cluster(42);
    cluster::Cluster cluster(spec);
    const auto stats =
        cluster.run_upload("/f", size, cluster::Protocol::kSmarth);
    if (stats.failed) state.SkipWithError("upload failed");
    events += cluster.sim().events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_UploadEventsPerSecond)->Arg(64)->Arg(256)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
