#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>

#include "alloc_counter.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "spans.hpp"
#include "storage/disk.hpp"

namespace perfbench {
namespace {

using namespace smarth;

constexpr int kBatches = 5;

/// Times `op(n)` (which performs n operations) over kBatches batches after a
/// warm-up batch that fills pools and caches; reports the median ns per op
/// and the median allocations per op.
template <typename Op>
ProbeResult measure(const char* layer, std::uint64_t ops, SpanRecorder* spans,
                    Op&& op) {
  ScopedSpan span(spans, std::string("probe.") + layer);
  op(ops);
  std::vector<double> ns(kBatches);
  std::vector<double> allocs(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t a0 = allocations();
    const auto t0 = std::chrono::steady_clock::now();
    op(ops);
    const auto t1 = std::chrono::steady_clock::now();
    ns[static_cast<std::size_t>(b)] =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(ops);
    allocs[static_cast<std::size_t>(b)] =
        static_cast<double>(allocations() - a0) / static_cast<double>(ops);
  }
  std::sort(ns.begin(), ns.end());
  std::sort(allocs.begin(), allocs.end());
  return {layer, ns[kBatches / 2], allocs[kBatches / 2]};
}

/// Self-rescheduling event chains with scattered delays: every executed
/// event posts exactly one new one, so the queue holds a steady population.
struct Churn {
  sim::Simulation* sim;
  std::uint64_t n = 0;
  void spawn() {
    const auto delay =
        static_cast<SimDuration>(100 + (n++ * 2654435761u) % 10'000);
    sim->post_after(delay, "probe", [this] { spawn(); });
  }
};

ProbeResult probe_sim(SpanRecorder* spans) {
  sim::Simulation sim(1);
  Churn churn{&sim};
  for (int i = 0; i < 4096; ++i) churn.spawn();
  return measure("sim", 200'000, spans,
                 [&](std::uint64_t n) { sim.run_steps(n); });
}

ProbeResult probe_net(SpanRecorder* spans) {
  sim::Simulation sim(1);
  net::Network network(sim);
  const NodeId a = network.add_node("a", "/rack0", Bandwidth::gbps(1));
  const NodeId b = network.add_node("b", "/rack1", Bandwidth::gbps(1));
  std::uint64_t delivered = 0;
  return measure("net", 20'000, spans, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      network.send(a, b, 64 * kKiB, [&delivered] { ++delivered; });
      sim.run();
    }
  });
}

ProbeResult probe_storage(SpanRecorder* spans) {
  sim::Simulation sim(1);
  storage::DiskDevice disk(sim, "probe", Bandwidth::mega_bytes_per_second(100),
                           microseconds(50));
  std::uint64_t written = 0;
  return measure("storage", 20'000, spans, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      disk.write(64 * kKiB, [&written] { ++written; });
      sim.run();
    }
  });
}

ProbeResult probe_rpc(SpanRecorder* spans) {
  sim::Simulation sim(1);
  net::Network network(sim);
  const NodeId client = network.add_node("c", "/rack0", Bandwidth::gbps(1));
  const NodeId server = network.add_node("s", "/rack0", Bandwidth::gbps(1));
  rpc::RpcBus bus(network);
  std::int64_t answers = 0;
  return measure("rpc", 20'000, spans, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      bus.call<std::int64_t>(
          client, server, [] { return std::int64_t{1}; },
          [&answers](std::int64_t v) { answers += v; });
      sim.run();
    }
  });
}

}  // namespace

std::vector<ProbeResult> run_probes(SpanRecorder* spans) {
  return {probe_sim(spans), probe_net(spans), probe_storage(spans),
          probe_rpc(spans)};
}

}  // namespace perfbench
