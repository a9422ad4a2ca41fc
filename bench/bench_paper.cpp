// The paper's §V results in one pass: Figure 5 (upload time vs file size),
// Figures 6-9 (vs cross-rack throttle), Figures 10-12 (k slow datanodes),
// Figure 13 (heterogeneous cluster) and the Formula 1-3 cost model against
// the simulator. Every section lists its harness::Scenario rows; this bench
// expands them into (row, protocol, seed) jobs, runs them all on the
// share-nothing sweep pool (harness/sweep.hpp), and then prints the sections
// in figure order. Absolute seconds depend on the simulator's calibration;
// the shapes (who wins, by what factor, where crossovers sit) are the
// reproduction target, and bench/paper_seed42.golden.txt pins the output.
//
//   bench_paper > paper.txt && diff bench/paper_seed42.golden.txt paper.txt
//
// SMARTH_BENCH_FILE_GB sets the upload size of Figs. 6-12 and of the model
// validation (8 GiB by default; Figs. 5 and 13 sweep fixed sizes).
// SMARTH_BENCH_REPEATS=N prints each figure point as the mean over seeds
// 42..42+N-1 (model validation runs seed 42 only).
//
// Exits 1 when an upload fails, a job throws, or a model-validation row
// falls outside the cost-model bracket.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "harness/sweep.hpp"

using namespace smarth;

namespace {

constexpr std::uint64_t kBaseSeed = 42;

/// Seeds per figure point. The simulator is deterministic, so 1 (seed 42)
/// is the meaningful default.
int bench_repeats() {
  if (const char* env = std::getenv("SMARTH_BENCH_REPEATS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<int>(n);
  }
  return 1;
}

using SpecBuilder = cluster::ClusterSpec (*)(std::uint64_t);

struct ClusterCase {
  const char* name;
  SpecBuilder make;
};

constexpr ClusterCase kSmall{"small", cluster::small_cluster};
constexpr ClusterCase kMedium{"medium", cluster::medium_cluster};
constexpr ClusterCase kLarge{"large", cluster::large_cluster};

/// One figure series: a comparison table whose rows are scenarios, each
/// the mean over `seeds` seeds of both protocols' upload seconds.
struct Series {
  std::string heading;  ///< printed above the table unless empty
  std::string x_label;
  int seeds = 1;
  std::vector<harness::Scenario> rows;
  std::vector<metrics::ComparisonRow> table;  ///< filled by the pass
};

/// One section of the output. `print` runs after the header, once every
/// series' table is filled.
struct Section {
  std::string title;
  std::string note;
  std::vector<Series> series = {};
  std::function<void(const std::vector<Series>&)> print = nullptr;
};

void print_series(const Series& series) {
  if (!series.heading.empty()) std::printf("%s\n", series.heading.c_str());
  std::printf("%s", metrics::render_comparison_table(series.x_label,
                                                      series.table)
                        .c_str());
}

/// Each series, then a blank line.
void print_spaced(const std::vector<Series>& all) {
  for (const Series& series : all) {
    print_series(series);
    std::printf("\n");
  }
}

harness::Scenario two_rack(const std::string& label, SpecBuilder make,
                           double throttle_mbps, Bytes file_size) {
  return harness::two_rack_scenario(
      label, make,
      throttle_mbps > 0 ? Bandwidth::mbps(throttle_mbps) : kUnlimitedBandwidth,
      file_size);
}

std::string throttle_label(double throttle_mbps) {
  return throttle_mbps > 0
             ? std::to_string(static_cast<int>(throttle_mbps)) + " Mbps"
             : "default";
}

/// The 1, 2, 4 and 8 GiB uploads of Figs. 5 and 13.
Series size_sweep(std::string heading, SpecBuilder make, double throttle_mbps,
                  const char* x_label, int seeds) {
  Series series{std::move(heading), x_label, seeds, {}, {}};
  for (Bytes size : {1 * kGiB, 2 * kGiB, 4 * kGiB, 8 * kGiB}) {
    series.rows.push_back(two_rack(std::to_string(size / kGiB) + " GiB", make,
                                   throttle_mbps, size));
  }
  return series;
}

// Figure 5 (a-f): upload time vs file size on the small, medium and large
// clusters, without (left column) and with a 100 Mbps cross-rack throttle
// (right column). Paper: time grows proportionally with file size; without
// throttling SMARTH ≈ HDFS; with the throttle SMARTH wins clearly; medium
// and large clusters perform alike (same NIC).
Section figure5(int seeds) {
  Section section{
      .title = "Figure 5 — uploading time vs file size, with and without "
               "cross-rack throttling",
      .note = "Sub-figures: (a,b) small, (c,d) medium, (e,f) large; "
              "(left) default bandwidth, (right) 100 Mbps cross-rack "
              "throttle."};
  for (const ClusterCase& cc : {kSmall, kMedium, kLarge}) {
    const std::string heading = std::string("--- Fig. 5: ") + cc.name;
    section.series.push_back(size_sweep(
        heading + " cluster, default bandwidth ---", cc.make, 0, "file size",
        seeds));
    section.series.push_back(size_sweep(
        heading + " cluster, 100 Mbps cross-rack throttle ---", cc.make, 100,
        "file size", seeds));
  }
  section.print = [](const std::vector<Series>& all) {
    for (const Series& series : all) {
      print_series(series);
      // Linearity the paper calls out: 8 GiB should take ~8x 1 GiB.
      const auto& rows = series.table;
      std::printf("linearity (8G/1G): HDFS %.2fx, SMARTH %.2fx\n\n",
                  rows[3].hdfs_seconds / rows[0].hdfs_seconds,
                  rows[3].smarth_seconds / rows[0].smarth_seconds);
    }
  };
  return section;
}

// Figures 6, 7 and 8: upload time vs cross-rack throttle on the small,
// medium and large clusters; Figure 9 tabulates the improvements. Paper:
// the tighter the throttle, the larger SMARTH's advantage; medium/large
// gain more than small; from ~27% (150 Mbps, small) up to ~245% (50 Mbps,
// large).
Section figures6to9(int seeds, Bytes file_size) {
  Section section{
      .title = "Figures 6-9 — uploading time vs cross-rack throttle (8 GB "
               "file)",
      .note = "Fig. 6 small, Fig. 7 medium, Fig. 8 large; Fig. 9 aggregates "
              "the improvement percentages."};
  int figure = 6;
  for (const ClusterCase& cc : {kSmall, kMedium, kLarge}) {
    Series series{"--- Fig. " + std::to_string(figure++) + ": " + cc.name +
                      " cluster ---",
                  "throttle", seeds, {}, {}};
    for (double throttle : {50.0, 100.0, 150.0, 200.0, 0.0 /* default */}) {
      series.rows.push_back(
          two_rack(throttle_label(throttle), cc.make, throttle, file_size));
    }
    section.series.push_back(std::move(series));
  }
  section.print = [](const std::vector<Series>& all) {
    print_spaced(all);
    std::printf("--- Fig. 9: improvement vs throttle ---\n");
    TextTable fig9({"throttle", "small (%)", "medium (%)", "large (%)"});
    for (std::size_t t = 0; t < all[0].table.size(); ++t) {
      fig9.add_row({all[0].table[t].scenario,
                    TextTable::num(all[0].table[t].improvement_percent(), 1),
                    TextTable::num(all[1].table[t].improvement_percent(), 1),
                    TextTable::num(all[2].table[t].improvement_percent(), 1)});
    }
    std::printf("%s\n", fig9.to_string().c_str());
  };
  return section;
}

// Figures 10-12: the bandwidth-contention scenario. The first k datanodes
// are individually throttled (nodes whose bandwidth other processes eat).
// Paper: even one slow node hurts HDFS badly (~78% improvement for SMARTH
// on small); gains grow with k and shrink at the milder 150 Mbps throttle.
Section figures10to12(int seeds, Bytes file_size) {
  Section section{
      .title = "Figures 10-12 — bandwidth contention (8 GB file, k slow "
               "nodes)",
      .note = "Fig. 10 small@50Mbps, Fig. 11(a) medium@50, Fig. 11(b) "
              "large@50, Fig. 12(a) small@150, Fig. 12(b) medium@150.",
      .print = print_spaced};
  auto contention = [&](const char* figure, const ClusterCase& cc,
                        double node_mbps) {
    Series series{std::string("--- Fig. ") + figure + ": " + cc.name +
                      " cluster, slow nodes at " +
                      TextTable::num(node_mbps, 0) + " Mbps ---",
                  "#slow nodes", seeds, {}, {}};
    for (std::size_t k = 0; k <= 5; ++k) {
      series.rows.push_back(harness::contention_scenario(
          std::to_string(k), cc.make, k, Bandwidth::mbps(node_mbps),
          file_size));
    }
    section.series.push_back(std::move(series));
  };
  contention("10", kSmall, 50);
  contention("11(a)", kMedium, 50);
  contention("11(b)", kLarge, 50);
  contention("12(a)", kSmall, 150);
  contention("12(b)", kMedium, 150);
  return section;
}

// Figure 13: the heterogeneous cluster (3 small + 3 medium + 3 large
// datanodes, medium namenode and client), no throttling. Paper:
// heterogeneity alone gives SMARTH a win (289 s vs 205 s at 8 GB) because
// the namenode learns to start pipelines on the faster nodes.
Section figure13(int seeds) {
  Section section{
      .title = "Figure 13 — heterogeneous cluster, uploading time vs data "
               "size",
      .note = "3 small + 3 medium + 3 large datanodes, no throttling. "
              "Paper: 41% improvement at 8 GB."};
  section.series.push_back(
      size_sweep("", cluster::heterogeneous_cluster, 0, "data size", seeds));
  section.print = [](const std::vector<Series>& all) {
    print_series(all[0]);
    std::printf("paper anchor at 8 GB: HDFS 289 s, SMARTH 205 s (41%%)\n");
    std::printf("measured at 8 GB: improvement %.1f%%\n",
                all[0].table.back().improvement_percent());
  };
  return section;
}

// Model validation (ablation A5): the paper's cost model (Formulas 1-3,
// §III-D) against the simulator at full paper scale, on speed-warmed
// clusters. The serial formulas are upper-bound-ish (they add stage costs),
// the pipelined variants lower bounds (max stage cost), and SMARTH also
// saturates at the replica-drain makespan; every measured time must land
// inside that bracket, or `bracket_holds` turns false.
Section model_validation(Bytes file_size, bool& bracket_holds) {
  Section section{
      .title = "Model validation — Formulas 1-3 vs simulation (small "
               "cluster, 8 GB)",
      .note = "serial = paper formula, pipelined = overlap-aware lower "
              "bound, drain = SMARTH replica-drain makespan."};
  static constexpr double kThrottles[] = {0.0, 150.0, 100.0, 50.0};
  Series series{"", "throttle", 1, {}, {}};
  for (double throttle : kThrottles) {
    harness::Scenario scenario = two_rack(
        throttle_label(throttle), cluster::small_cluster, throttle, file_size);
    scenario.path = "/f";
    scenario.prepare = [throttle_first = std::move(scenario.prepare)](
                           cluster::Cluster& cluster) {
      throttle_first(cluster);
      harness::warm_speed_records(cluster);
    };
    series.rows.push_back(std::move(scenario));
  }
  section.series.push_back(std::move(series));
  section.print = [file_size, &bracket_holds](const std::vector<Series>& all) {
    const cluster::ClusterSpec spec = cluster::small_cluster(kBaseSeed);
    TextTable table({"throttle", "protocol", "sim (s)", "serial model (s)",
                     "pipelined model (s)", "drain bound (s)",
                     "sim/bracket"});
    for (std::size_t t = 0; t < std::size(kThrottles); ++t) {
      const metrics::ComparisonRow& row = all[0].table[t];
      const model::CostParams params =
          harness::paper_cost_params(spec, kThrottles[t], file_size);
      for (int p = 0; p < 2; ++p) {
        const double sim_secs = p ? row.smarth_seconds : row.hdfs_seconds;
        const double serial =
            to_seconds(p ? model::predict_smarth_time(params)
                         : model::predict_hdfs_time(params));
        const double pipelined =
            to_seconds(p ? model::predict_smarth_time_pipelined(params)
                         : model::predict_hdfs_time_pipelined(params));
        const double drain =
            p ? harness::replica_drain_seconds(spec, kThrottles[t], file_size)
              : 0.0;
        const double upper = std::max(serial, drain);
        const bool inside =
            sim_secs >= pipelined * 0.9 && sim_secs <= upper * 1.35;
        bracket_holds = bracket_holds && inside;
        table.add_row({row.scenario, p ? "SMARTH" : "HDFS",
                       TextTable::num(sim_secs), TextTable::num(serial),
                       TextTable::num(pipelined),
                       p ? TextTable::num(drain) : std::string("-"),
                       inside ? "inside" : "OUTSIDE"});
      }
    }
    std::printf("%s\n", table.to_string().c_str());
  };
  return section;
}

/// One upload of the pass.
struct Job {
  const Section* section;
  const harness::Scenario* row;
  cluster::Protocol protocol;
  std::uint64_t seed;
};

}  // namespace

int main() {
  const int repeats = bench_repeats();
  const Bytes file_size = bench::bench_file_size();
  bool bracket_holds = true;
  std::vector<Section> sections;
  sections.push_back(figure5(repeats));
  sections.push_back(figures6to9(repeats, file_size));
  sections.push_back(figures10to12(repeats, file_size));
  sections.push_back(figure13(repeats));
  sections.push_back(model_validation(file_size, bracket_holds));

  // Every row becomes one job per (seed, protocol). Job order is the fold
  // order below, so the output does not depend on which worker ran what.
  std::vector<Job> jobs;
  for (const Section& section : sections) {
    for (const Series& series : section.series) {
      for (const harness::Scenario& row : series.rows) {
        for (int i = 0; i < series.seeds; ++i) {
          const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(i);
          jobs.push_back({&section, &row, cluster::Protocol::kHdfs, seed});
          jobs.push_back({&section, &row, cluster::Protocol::kSmarth, seed});
        }
      }
    }
  }

  // The pool numbers its runs base_seed + i; with base 0 that is the index
  // of the job to run.
  const harness::SweepSummary pass = harness::run_seed_sweep(
      0, static_cast<int>(jobs.size()), /*jobs=*/0,
      [&jobs](std::uint64_t index, harness::SeedRun& out) {
        const Job& job = jobs[index];
        out.stats = harness::run_protocol(*job.row, job.protocol, job.seed);
      });

  bool failed = false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const harness::SeedRun& run = pass.runs[j];
    if (!run.errored && !run.stats.failed) continue;
    failed = true;
    std::fprintf(
        stderr, "bench_paper: %s: %s upload '%s' (seed %llu) %s: %s\n",
        jobs[j].section->title.c_str(),
        jobs[j].protocol == cluster::Protocol::kHdfs ? "HDFS" : "SMARTH",
        jobs[j].row->label.c_str(),
        static_cast<unsigned long long>(jobs[j].seed),
        run.errored ? "errored" : "failed",
        run.errored ? run.error.c_str() : run.stats.failure_reason.c_str());
  }
  if (failed) return 1;

  // Fold each row's jobs into its seed means, in job order.
  std::size_t next = 0;
  for (Section& section : sections) {
    for (Series& series : section.series) {
      for (const harness::Scenario& row : series.rows) {
        metrics::ComparisonRow mean{row.label, 0.0, 0.0};
        for (int i = 0; i < series.seeds; ++i) {
          mean.hdfs_seconds += to_seconds(pass.runs[next++].stats.elapsed());
          mean.smarth_seconds += to_seconds(pass.runs[next++].stats.elapsed());
        }
        mean.hdfs_seconds /= series.seeds;
        mean.smarth_seconds /= series.seeds;
        series.table.push_back(mean);
      }
    }
  }

  for (const Section& section : sections) {
    bench::print_header(section.title, section.note);
    section.print(section.series);
  }
  if (bracket_holds) return 0;
  std::fprintf(stderr, "bench_paper: a model-validation row is OUTSIDE the "
                       "cost model's bracket\n");
  return 1;
}
