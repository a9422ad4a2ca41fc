#include "harness/sweep.hpp"

#include <atomic>
#include <cmath>
#include <thread>

#include "common/check.hpp"
#include "common/table.hpp"

namespace smarth::harness {

SweepSummary run_seed_sweep(std::uint64_t base_seed, int seeds, int jobs,
                            const SeedBody& body) {
  SMARTH_CHECK_MSG(seeds >= 1, "sweep needs at least one seed");
  SMARTH_CHECK(static_cast<bool>(body));
  if (jobs < 1) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs < 1) jobs = 1;
  }
  if (jobs > seeds) jobs = seeds;

  SweepSummary sweep;
  sweep.runs.resize(static_cast<std::size_t>(seeds));

  // Workers claim seed indices from a shared counter and write into disjoint
  // slots of `runs` — no locks, no ordering dependence in the results.
  std::atomic<int> next{0};
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= seeds) return;
      SeedRun& run = sweep.runs[static_cast<std::size_t>(i)];
      run.seed = base_seed + static_cast<std::uint64_t>(i);
      try {
        static_cast<Run&>(run) = body(run.seed);
        run.metrics = metrics::global_registry();
      } catch (const std::exception& e) {
        run.errored = true;
        run.error = e.what();
      } catch (...) {
        run.errored = true;
        run.error = "unknown exception";
      }
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic merge in seed order on the calling thread.
  double sum = 0, sum_sq = 0;
  int counted = 0;
  for (const SeedRun& run : sweep.runs) {
    if (run.errored) {
      ++sweep.errored;
      continue;
    }
    sweep.merged.merge(run.metrics);
    sweep.total_events += run.events;
    const double s = to_seconds(run.stats.elapsed());
    if (counted == 0) {
      sweep.min_seconds = sweep.max_seconds = s;
    } else {
      sweep.min_seconds = std::min(sweep.min_seconds, s);
      sweep.max_seconds = std::max(sweep.max_seconds, s);
    }
    sum += s;
    sum_sq += s * s;
    ++counted;
  }
  if (counted > 0) {
    sweep.mean_seconds = sum / counted;
    const double var =
        std::max(0.0, sum_sq / counted - sweep.mean_seconds * sweep.mean_seconds);
    sweep.stddev_seconds = std::sqrt(var);
  }
  return sweep;
}

std::string render_sweep(const SweepSummary& sweep) {
  TextTable table({"seed", "seconds", "throughput (Mbps)", "blocks",
                   "recoveries", "events", "status"});
  for (const SeedRun& run : sweep.runs) {
    if (run.errored) {
      table.add_row({std::to_string(run.seed), "-", "-", "-", "-", "-",
                     "error: " + run.error});
      continue;
    }
    table.add_row({std::to_string(run.seed),
                   TextTable::num(to_seconds(run.stats.elapsed())),
                   TextTable::num(run.stats.throughput().mbps(), 1),
                   std::to_string(run.stats.blocks),
                   std::to_string(run.stats.recoveries),
                   std::to_string(run.events),
                   run.stats.failed ? "failed" : "ok"});
  }
  std::string out = table.to_string();
  out += "sweep: mean " + TextTable::num(sweep.mean_seconds) + "s, min " +
         TextTable::num(sweep.min_seconds) + "s, max " +
         TextTable::num(sweep.max_seconds) + "s, stddev " +
         TextTable::num(sweep.stddev_seconds) + "s, events " +
         std::to_string(sweep.total_events) + "\n";
  return out;
}

}  // namespace smarth::harness
