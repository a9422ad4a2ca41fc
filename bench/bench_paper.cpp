// The paper's §V results in one pass: Figs. 5-13, the Formula 1-3 cost
// model against the simulator and Table I, then our ablations (A1-A4, A7)
// and extensions (E1-E3, storage balance). Every section lists its
// harness::Scenario rows; this bench expands them into (row, protocol, seed)
// jobs, runs them all on the share-nothing sweep pool (harness/sweep.hpp),
// and then prints the sections in order. Absolute seconds depend on the
// simulator's calibration; the shapes (who wins, by what factor, where
// crossovers sit) are the reproduction target, and
// bench/paper_seed42.golden.txt pins the output.
//
//   bench_paper > paper.txt && diff bench/paper_seed42.golden.txt paper.txt
//
// SMARTH_BENCH_FILE_GB sets the upload size (8 GiB by default; A4 and E1
// cap it at 2 GiB; Figs. 5 and 13, Table I and E3 use fixed sizes).
// SMARTH_BENCH_REPEATS=N prints every number as the mean over seeds
// 42..42+N-1 (model validation runs seed 42 only).
//
// Exits 1 when an upload fails, a job throws, or a model-validation row
// falls outside the cost-model bracket.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "common/histogram.hpp"
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

using cluster::Protocol;

/// One series: a table whose rows are scenarios, each run in `protocols`
/// and folded into means over `seeds` seeds.
struct Series {
  std::string heading = {};  ///< printed above the table unless empty
  std::string x_label = {};
  int seeds = 1;
  std::vector<Protocol> protocols = {Protocol::kHdfs, Protocol::kSmarth};
  std::vector<harness::Scenario> rows = {};
  /// Filled by the pass, per row: both protocols' upload seconds (0 for
  /// one the series skips), and per protocol the upload seconds followed by
  /// the row's observed numbers.
  std::vector<metrics::ComparisonRow> table = {};
  std::vector<std::array<std::vector<double>, 2>> values = {};

  const std::vector<double>& at(std::size_t r, Protocol protocol) const {
    return values[r][protocol == Protocol::kSmarth];
  }
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

harness::Scenario two_rack(
    const std::string& label,
    std::function<cluster::ClusterSpec(std::uint64_t)> make,
    double throttle_mbps, Bytes file_size) {
  return harness::two_rack_scenario(
      label, std::move(make),
      throttle_mbps > 0 ? Bandwidth::mbps(throttle_mbps) : kUnlimitedBandwidth,
      file_size);
}

std::string throttle_label(double throttle_mbps) {
  return throttle_mbps > 0
             ? std::to_string(static_cast<int>(throttle_mbps)) + " Mbps"
             : "default";
}

/// Reads a run's extra numbers off its cluster once the upload finished.
using Reader = std::vector<double> (*)(cluster::Cluster&,
                                       const hdfs::StreamStats&);

/// An observe hook that starts nothing and only runs `read`.
auto after_upload(Reader read) {
  return [read](cluster::Cluster& cluster, Protocol) -> harness::Observer {
    return [read, &cluster](const hdfs::StreamStats& stats) {
      return read(cluster, stats);
    };
  };
}

std::string improvement(double hdfs_seconds, double smarth_seconds) {
  return TextTable::num(
      metrics::ComparisonRow{"", hdfs_seconds, smarth_seconds}
          .improvement_percent(),
      1);
}

/// A section printer: a table of the first series with one line per row
/// (per row and protocol when `per_protocol`), the row's label followed by
/// `cells` of that row and protocol (SMARTH when not per protocol).
std::function<void(const std::vector<Series>&)> print_lines(
    std::vector<std::string> header, bool per_protocol,
    std::function<std::vector<std::string>(const Series&, std::size_t,
                                           Protocol)>
        cells) {
  return [=](const std::vector<Series>& all) {
    TextTable table(header);
    for (std::size_t r = 0; r < all[0].rows.size(); ++r) {
      for (Protocol p : per_protocol ? all[0].protocols
                                     : std::vector{Protocol::kSmarth}) {
        std::vector<std::string> line = cells(all[0], r, p);
        line.insert(line.begin(), all[0].rows[r].label);
        table.add_row(line);
      }
    }
    std::printf("%s\n", table.to_string().c_str());
  };
}

/// The 1, 2, 4 and 8 GiB uploads of Figs. 5 and 13.
Series size_sweep(std::string heading, SpecBuilder make, double throttle_mbps,
                  const char* x_label, int seeds) {
  Series series{.heading = std::move(heading), .x_label = x_label,
                .seeds = seeds};
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
    Series series{.heading = "--- Fig. " + std::to_string(figure++) + ": " +
                             cc.name + " cluster ---",
                  .x_label = "throttle",
                  .seeds = seeds};
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
    Series series{.heading = std::string("--- Fig. ") + figure + ": " +
                             cc.name + " cluster, slow nodes at " +
                             TextTable::num(node_mbps, 0) + " Mbps ---",
                  .x_label = "#slow nodes",
                  .seeds = seeds};
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
  Series series{.x_label = "throttle"};
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
  section.print = print_lines(
      {"throttle", "protocol", "sim (s)", "serial model (s)",
       "pipelined model (s)", "drain bound (s)", "sim/bracket"},
      true,
      [file_size, &bracket_holds](const Series& s, std::size_t t,
                                  Protocol p) {
        const bool smarth = p == Protocol::kSmarth;
        const cluster::ClusterSpec spec = cluster::small_cluster(kBaseSeed);
        const model::CostParams params =
            harness::paper_cost_params(spec, kThrottles[t], file_size);
        const double sim_secs = s.at(t, p)[0];
        const double serial =
            to_seconds(smarth ? model::predict_smarth_time(params)
                              : model::predict_hdfs_time(params));
        const double pipelined =
            to_seconds(smarth ? model::predict_smarth_time_pipelined(params)
                              : model::predict_hdfs_time_pipelined(params));
        const double drain = smarth ? harness::replica_drain_seconds(
                                          spec, kThrottles[t], file_size)
                                    : 0.0;
        const bool inside = sim_secs >= pipelined * 0.9 &&
                            sim_secs <= std::max(serial, drain) * 1.35;
        bracket_holds = bracket_holds && inside;
        return std::vector<std::string>{
            cluster::protocol_name(p), TextTable::num(sim_secs),
            TextTable::num(serial), TextTable::num(pipelined),
            smarth ? TextTable::num(drain) : "-",
            inside ? "inside" : "OUTSIDE"};
      });
  return section;
}

/// The client's best measured speed to a first datanode.
std::vector<double> first_hop_mbps(cluster::Cluster& cluster,
                                   const hdfs::StreamStats&) {
  double best = 0.0;
  for (const auto& record : cluster.speed_tracker().heartbeat_records()) {
    best = std::max(best, record.speed.mbps());
  }
  return {best};
}

// Table I: the instance profiles (paper values, the derived disk rate and
// Tc) and, on nine datanodes of each type, the client's measured speed to
// first datanodes, the quantity SMARTH's optimizers use.
Section table1(int seeds) {
  Series series{.seeds = seeds, .protocols = {Protocol::kSmarth}};
  for (const cluster::InstanceProfile& profile :
       cluster::all_instance_profiles()) {
    series.rows.push_back(
        {.label = profile.name,
         .make_spec =
             [profile](std::uint64_t seed) {
               return cluster::homogeneous_cluster(profile, 9, seed);
             },
         .observe = after_upload(first_hop_mbps),
         .file_size = 256 * kMiB,
         .path = "/probe"});
  }
  return {.title = "Table I — Amazon EC2 instance types",
          .note = "Paper values (memory, ECUs, network) plus the derived "
                  "simulation parameters and a measured first-hop speed "
                  "sanity check.",
          .series = {std::move(series)},
          .print = print_lines(
              {"instance", "memory (GB)", "ECUs", "network (Mbps)",
               "disk write (MB/s)", "Tc (us/packet)",
               "measured first hop (Mbps)"},
              false, [](const Series& s, std::size_t r, Protocol p) {
                const auto profile = cluster::all_instance_profiles()[r];
                return std::vector<std::string>{
                    TextTable::num(profile.memory_gb),
                    std::to_string(profile.ecus),
                    TextTable::num(profile.network.mbps(), 0),
                    TextTable::num(
                        profile.disk_write.bytes_per_second() / 1e6, 0),
                    TextTable::num(
                        static_cast<double>(profile.packet_production_time) /
                            kMicrosecond,
                        0),
                    TextTable::num(s.at(r, p)[1], 1)};
              })};
}

/// The ablations' contended small cluster, two datanodes at 50 Mbps, with
/// SMARTH's optimizer switches and exploration threshold set.
harness::Scenario two_slow(const std::string& label, Bytes file_size,
                           bool global_opt = true, bool local_opt = true,
                           double threshold = 0.8) {
  return harness::contention_scenario(
      label,
      [=](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.smarth_global_opt = global_opt;
        spec.hdfs.smarth_local_opt = local_opt;
        spec.hdfs.local_opt_threshold = threshold;
        return spec;
      },
      2, Bandwidth::mbps(50), file_size);
}

// Ablation A1/A2: the contended upload with each combination of global
// (Alg. 1) and local (Alg. 2) optimization, against HDFS. FNFA transfer is
// on in every SMARTH row, so "no optimizers" isolates it.
Section ablation_optimizers(int seeds, Bytes file_size) {
  Series variants{.seeds = seeds, .protocols = {Protocol::kSmarth}};
  for (const auto& [name, global_opt, local_opt] :
       {std::tuple{"SMARTH, no optimizers (FNFA only)", false, false},
        std::tuple{"SMARTH, local opt only (Alg. 2)", false, true},
        std::tuple{"SMARTH, global opt only (Alg. 1)", true, false},
        std::tuple{"SMARTH, both (paper)", true, true}}) {
    variants.rows.push_back(two_slow(name, file_size, global_opt, local_opt));
  }
  return {
      .title = "Ablation — SMARTH optimizer contributions (small cluster, 2 "
               "slow nodes @ 50 Mbps, 8 GB)",
      .note = "FNFA multi-pipeline transfer is on in every SMARTH row; the "
              "rows toggle Alg. 1 (namenode global optimization) and Alg. 2 "
              "(client local optimization).",
      .series = {{.seeds = seeds,
                  .protocols = {Protocol::kHdfs},
                  .rows = {two_slow("HDFS baseline", file_size)}},
                 std::move(variants)},
      .print = [](const std::vector<Series>& all) {
        const double hdfs = all[0].table[0].hdfs_seconds;
        TextTable table({"variant", "seconds", "improvement over HDFS (%)"});
        table.add_row({"HDFS baseline", TextTable::num(hdfs), "0.0"});
        for (const metrics::ComparisonRow& row : all[1].table) {
          table.add_row({row.scenario, TextTable::num(row.smarth_seconds),
                         improvement(hdfs, row.smarth_seconds)});
        }
        std::printf("%s\n", table.to_string().c_str());
      }};
}

/// A3's moving contention: round r slows datanodes 2r and 2r+1 (mod the
/// cluster size) to 50 Mbps, restores the rest, and the next round
/// follows 20 s later.
void rotate_slow_pair(cluster::Cluster& cluster, std::size_t round) {
  const std::size_t n = cluster.datanode_count();
  for (std::size_t i = 0; i < n; ++i) {
    cluster.throttle_datanode(i, cluster::small_instance().network);
  }
  cluster.throttle_datanode((2 * round) % n, Bandwidth::mbps(50));
  cluster.throttle_datanode((2 * round + 1) % n, Bandwidth::mbps(50));
  cluster.sim().schedule_after(
      seconds(20), "bench.rotate_slow",
      [&cluster, round] { rotate_slow_pair(cluster, round + 1); });
}

// Ablation A3: the local optimizer's exploration threshold (Alg. 2 fixes
// it at 0.8). With a static slow pair every exploratory block is a pure
// cost; with a rotating one (§V-B2's moving contention) no exploration
// leaves the client trusting stale records.
Section ablation_threshold(int seeds, Bytes file_size) {
  static constexpr double kThresholds[] = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  Series fixed{.seeds = seeds, .protocols = {Protocol::kSmarth}};
  Series rotating = fixed;
  for (double threshold : kThresholds) {
    const std::string label = TextTable::num(threshold, 1);
    fixed.rows.push_back(
        two_slow(label + " static", file_size, true, true, threshold));
    harness::Scenario row =
        two_slow(label + " dynamic", file_size, true, true, threshold);
    row.prepare = [](cluster::Cluster& c) { rotate_slow_pair(c, 0); };
    rotating.rows.push_back(std::move(row));
  }
  return {
      .title = "Ablation — local-optimizer exploration threshold (small "
               "cluster, 2 slow nodes @ 50 Mbps, 8 GB)",
      .note = "Swap probability is 1 - threshold; the paper uses threshold "
              "= 0.8. static: the same nodes stay slow; dynamic: the slow "
              "pair rotates every 20 s.",
      .series = {std::move(fixed), std::move(rotating)},
      .print = [](const std::vector<Series>& all) {
        TextTable table(
            {"threshold", "swap prob", "static (s)", "dynamic (s)"});
        for (std::size_t t = 0; t < std::size(kThresholds); ++t) {
          table.add_row({TextTable::num(kThresholds[t], 1),
                         TextTable::num(1.0 - kThresholds[t], 1),
                         TextTable::num(all[0].table[t].smarth_seconds),
                         TextTable::num(all[1].table[t].smarth_seconds)});
        }
        std::printf("%s\n", table.to_string().c_str());
      }};
}

/// The upload's most concurrent pipelines, and the datanodes' largest
/// staging high water and total staging overflows for its client.
std::vector<double> pipelines_and_staging(cluster::Cluster& cluster,
                                          const hdfs::StreamStats& stats) {
  const ClientId client = cluster.client().id();
  Bytes high_water = 0;
  std::uint64_t overflows = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    high_water =
        std::max(high_water, cluster.datanode(i).staging_high_water(client));
    overflows += cluster.datanode(i).staging_overflows(client);
  }
  return {static_cast<double>(stats.max_concurrent_pipelines),
          static_cast<double>(high_water), static_cast<double>(overflows)};
}

// Ablation A4: the buffer-overflow guard (§IV-C) under a deep cross-rack
// throttle. With it, fan-out stops at |datanodes| / replication and staging
// stays within a block; without it, datanodes join several pipelines and
// fast nodes' staging overflows.
Section ablation_pipeline_cap(int seeds, Bytes file_size) {
  const Bytes size = std::min<Bytes>(file_size, 2 * kGiB);
  Series series{.seeds = seeds, .protocols = {Protocol::kSmarth}};
  for (bool guard : {true, false}) {
    harness::Scenario row = two_rack(
        guard ? "on (paper)" : "off",
        [guard](std::uint64_t seed) {
          cluster::ClusterSpec spec = cluster::small_cluster(seed);
          spec.hdfs.enforce_pipeline_cap = guard;
          // Without the guard ACK latencies legitimately blow through the
          // watchdog; keep recovery storms out of the buffering question.
          spec.hdfs.ack_timeout = seconds(100'000);
          return spec;
        },
        50, size);
    row.observe = after_upload(pipelines_and_staging);
    series.rows.push_back(std::move(row));
  }
  return {
      .title = "Ablation — pipeline cap / buffer-overflow guard (small "
               "cluster, 50 Mbps cross-rack, " +
               std::to_string(size / kGiB) + " GB)",
      .note = "Guard on: fan-out capped at cluster/replication = 3, staging "
              "bounded by one block. Guard off: unbounded fan-out, overflows "
              "recorded.",
      .series = {std::move(series)},
      .print = print_lines({"guard", "seconds", "max pipelines",
                            "staging high water", "overflow events"},
                           false,
                           [](const Series& s, std::size_t r, Protocol p) {
                             const std::vector<double>& v = s.at(r, p);
                             return std::vector<std::string>{
                                 TextTable::num(v[0]), TextTable::num(v[1], 0),
                                 format_bytes(static_cast<Bytes>(v[2])),
                                 TextTable::num(v[3], 0)};
                           })};
}

std::vector<double> max_pipelines(cluster::Cluster&,
                                  const hdfs::StreamStats& stats) {
  return {static_cast<double>(stats.max_concurrent_pipelines)};
}

// Ablation A7: the replication factor r, which the paper fixes at 3.
// SMARTH's cap |datanodes| / r makes it a first-order knob: a higher r means
// longer pipelines and fewer concurrent SMARTH pipelines.
Section ablation_replication(int seeds, Bytes file_size) {
  Series series{.seeds = seeds};
  for (int replication : {2, 3, 4}) {
    harness::Scenario row = two_rack(
        std::to_string(replication),
        [replication](std::uint64_t seed) {
          cluster::ClusterSpec spec = cluster::small_cluster(seed);
          spec.hdfs.replication = replication;
          return spec;
        },
        50, file_size);
    row.observe = after_upload(max_pipelines);
    series.rows.push_back(std::move(row));
  }
  return {.title = "Ablation — replication factor (small cluster, 50 Mbps "
                   "cross-rack, 8 GB)",
          .note = "SMARTH's fan-out is |datanodes|/r concurrent pipelines: 4 "
                  "at r=2, 3 at r=3, 2 at r=4.",
          .series = {std::move(series)},
          .print = print_lines(
              {"replication", "HDFS (s)", "SMARTH (s)", "improvement (%)",
               "SMARTH max pipelines"},
              false, [](const Series& s, std::size_t r, Protocol p) {
                const metrics::ComparisonRow& row = s.table[r];
                return std::vector<std::string>{
                    TextTable::num(row.hdfs_seconds),
                    TextTable::num(row.smarth_seconds),
                    improvement(row.hdfs_seconds, row.smarth_seconds),
                    TextTable::num(s.at(r, p)[1], 0)};
              })};
}

Bytes read_bytes_served(cluster::Cluster& cluster) {
  Bytes served = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    served += cluster.datanode(i).read_bytes_served();
  }
  return served;
}
/// One map-style reader: scans `path` again whenever a scan succeeds, for
/// as long as the run lasts. `path` is a copy: download() frees the
/// finished reader whose callback calls this, and that callback's copy
/// with it.
void scan_repeatedly(cluster::Cluster& cluster, std::string path) {
  cluster.download(path, [&cluster, path](const hdfs::ReadStats& stats) {
    if (!stats.failed) scan_repeatedly(cluster, path);
  });
}

/// E1's observe hook: stages `readers` inputs in the ingest's protocol,
/// idles 5 s, and starts a looping reader per input; the observer reports
/// the aggregate rate the datanodes served (scans still in flight when the
/// ingest ends included).
auto staged_readers(int readers) {
  return [readers](cluster::Cluster& cluster,
                   Protocol protocol) -> harness::Observer {
    std::vector<std::string> inputs;
    for (int r = 0; r < readers; ++r) {
      inputs.push_back("/input/part-" + std::to_string(r));
      const auto staged =
          cluster.run_upload(inputs.back(), 512 * kMiB, protocol);
      if (staged.failed) {
        throw std::runtime_error("staging upload " + inputs.back() +
                                 " failed: " + staged.failure_reason);
      }
    }
    cluster.sim().run_until(cluster.sim().now() + seconds(5));
    const SimTime start = cluster.sim().now();
    const Bytes served = read_bytes_served(cluster);
    for (const std::string& input : inputs) scan_repeatedly(cluster, input);
    return [&cluster, start, served](const hdfs::StreamStats&) {
      return std::vector<double>{
          throughput_of(read_bytes_served(cluster) - served,
                        cluster.sim().now() - start)
              .mbps()};
    };
  };
}

/// E1's and E3's lines: the protocol, the seconds and rate at `values`[k]
/// and [k + 1], and SMARTH's improvement on those seconds.
auto seconds_and_rate(std::size_t k) {
  return [k](const Series& s, std::size_t r, Protocol p) {
    const std::vector<double>& v = s.at(r, p);
    return std::vector<std::string>{
        cluster::protocol_name(p), TextTable::num(v[k]),
        TextTable::num(v[k + 1], 1),
        p == Protocol::kSmarth ? improvement(s.at(r, Protocol::kHdfs)[k], v[k])
                               : "-"};
  };
}

// Extension E1, the paper's future work on MapReduce: an ingest while
// map-style readers loop over staged files on the same datanodes. Does
// SMARTH's write advantage survive the read load, and at whose cost?
Section read_while_write(int seeds, Bytes file_size) {
  Series series{.seeds = seeds};
  for (int readers : {0, 2, 4}) {
    harness::Scenario row =
        two_rack(std::to_string(readers), cluster::small_cluster, 100,
                 std::min<Bytes>(file_size, 2 * kGiB));
    row.path = "/output/ingest.bin";
    row.observe = staged_readers(readers);
    series.rows.push_back(std::move(row));
  }
  return {.title = "Extension — ingest under map-style read load (small "
                   "cluster, 100 Mbps cross-rack)",
          .note = "k readers loop over 512 MiB staged files while one client "
                  "ingests; paper future work: SMARTH's impact on "
                  "MapReduce-style jobs.",
          .series = {std::move(series)},
          .print = print_lines({"readers", "protocol", "ingest (s)",
                                "aggregate read (Mbps)", "improvement (%)"},
                               true, seconds_and_rate(0))};
}

// Extension E2, the paper's future work on RAID and SSD: the datanodes'
// disk swapped. Once Tw never binds the gap is network-shaped; a slow
// shared disk caps both protocols.
Section storage_types(int seeds, Bytes file_size) {
  Series series{.x_label = "storage", .seeds = seeds};
  for (const auto& [name, write_mbytes, op_overhead] :
       {std::tuple{"slow shared HDD", 25.0, microseconds(200)},
        std::tuple{"ephemeral HDD (paper)", 60.0, microseconds(80)},
        std::tuple{"RAID0 (2 disks)", 120.0, microseconds(80)},
        std::tuple{"SSD", 450.0, microseconds(15)}}) {
    series.rows.push_back(two_rack(
        name,
        [write_mbytes, op_overhead](std::uint64_t seed) {
          cluster::ClusterSpec spec = cluster::small_cluster(seed);
          for (auto& dn : spec.datanodes) {
            dn.profile.disk_write =
                Bandwidth::mega_bytes_per_second(write_mbytes);
            dn.profile.disk_op_overhead = op_overhead;
          }
          return spec;
        },
        100, file_size));
  }
  return {.title = "Extension — storage types (small cluster, 100 Mbps "
                   "cross-rack, 8 GB)",
          .note = "Paper future work: RAID and SSD storage. Disk write "
                  "bandwidth and per-op overhead swapped per run; NICs "
                  "unchanged.",
          .series = {std::move(series)},
          .print = print_spaced};
}

constexpr Bytes kWriterBytes = 2 * kGiB;

/// E3's observe hook: clients 1..clients-1 join on alternating racks and
/// start writing with the measured client 0; the observer waits for them
/// and reports the makespan of all writers and their aggregate rate.
auto writers_alongside(std::size_t clients) {
  return [clients](cluster::Cluster& cluster,
                   Protocol protocol) -> harness::Observer {
    for (std::size_t c = 1; c < clients; ++c) {
      cluster.add_client(c % 2 == 0 ? "/rack0" : "/rack1",
                         cluster::small_instance());
    }
    const SimTime start = cluster.sim().now();
    auto others = std::make_shared<std::vector<hdfs::StreamStats>>();
    for (std::size_t c = 1; c < clients; ++c) {
      cluster.sim().schedule_at(
          start, "bench.writer_start", [&cluster, protocol, c, others] {
            cluster.upload(
                "/f" + std::to_string(c), kWriterBytes, protocol,
                [others](const hdfs::StreamStats& s) { others->push_back(s); },
                c);
          });
    }
    return [&cluster, clients, start, others](const hdfs::StreamStats& stats) {
      const SimTime deadline = stats.finished_at + seconds(100'000);
      while (others->size() + 1 < clients) {
        SMARTH_CHECK_MSG(cluster.sim().now() < deadline &&
                             cluster.sim().run_until(cluster.sim().now() +
                                                     seconds(1)),
                         "a concurrent writer hung");
      }
      SimTime end = stats.finished_at;
      for (const hdfs::StreamStats& other : *others) {
        if (other.failed) {
          throw std::runtime_error("concurrent writer failed: " +
                                   other.failure_reason);
        }
        end = std::max(end, other.finished_at);
      }
      return std::vector<double>{
          to_seconds(end - start),
          throughput_of(kWriterBytes * static_cast<Bytes>(clients),
                        end - start)
              .mbps()};
    };
  };
}

// Extension E3: concurrent writers. SMARTH's global optimizer and
// exclusivity guard are per client (§III-B), so writers may pile onto the
// same fast nodes. Seconds and improvement are makespans.
Section multiclient(int seeds) {
  Series series{.seeds = seeds};
  for (std::size_t clients = 1; clients <= 3; ++clients) {
    harness::Scenario row = two_rack(
        std::to_string(clients), cluster::small_cluster, 100, kWriterBytes);
    row.observe = writers_alongside(clients);
    row.path = "/f0";
    series.rows.push_back(std::move(row));
  }
  return {.title = "Extension — concurrent writers (small cluster, 100 Mbps "
                   "cross-rack, 2 GB per client)",
          .note = "Makespan of k simultaneous ingests; the per-client "
                  "optimizers and guards interact on shared datanodes.",
          .series = {std::move(series)},
          .print = print_lines({"clients", "protocol", "makespan (s)",
                                "aggregate (Mbps)", "improvement (%)"},
                               true, seconds_and_rate(1))};
}

/// Min and max GiB stored per datanode and their CV (stddev / mean), once
/// the ingest has settled for 3 s.
std::vector<double> stored_per_node(cluster::Cluster& cluster,
                                    const hdfs::StreamStats&) {
  cluster.sim().run_until(cluster.sim().now() + seconds(3));
  SummaryStats stored;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    Bytes bytes = 0;
    for (const auto& replica :
         cluster.datanode(i).block_store().all_replicas()) {
      bytes += replica.bytes;
    }
    stored.add(static_cast<double>(bytes));
  }
  const double gib = static_cast<double>(kGiB);
  return {stored.min() / gib, stored.max() / gib,
          stored.mean() > 0 ? stored.stddev() / stored.mean() : 0.0};
}

// Extension: storage balance. §III-B claims the global optimization keeps
// "the cluster balanced"; how evenly does an ingest's data spread?
Section balance(int seeds, Bytes file_size) {
  Series series{.seeds = seeds};
  for (const ClusterCase& cc :
       {ClusterCase{"small (homogeneous)", cluster::small_cluster},
        ClusterCase{"heterogeneous", cluster::heterogeneous_cluster}}) {
    series.rows.push_back({.label = cc.name,
                           .make_spec = cc.make,
                           .observe = after_upload(stored_per_node),
                           .file_size = file_size});
  }
  auto lines = print_lines(
      {"cluster", "protocol", "ingest (s)", "min GiB/node", "max GiB/node",
       "CV"},
      true, [](const Series& s, std::size_t r, Protocol p) {
        const std::vector<double>& v = s.at(r, p);
        return std::vector<std::string>{
            cluster::protocol_name(p), TextTable::num(v[0]),
            TextTable::num(v[1]), TextTable::num(v[2]),
            TextTable::num(v[3], 3)};
      });
  return {.title = "Extension — storage balance after ingest (8 GB, "
                   "replication 3)",
          .note = "Per-datanode stored bytes after the upload; CV = "
                  "stddev/mean. Paper §III-B: global optimization should "
                  "keep the cluster balanced.",
          .series = {std::move(series)},
          .print = [lines](const std::vector<Series>& all) {
            lines(all);
            std::printf(
                "Reading the table: a CV near zero is perfectly balanced; "
                "SMARTH's\nskew (if any) comes from concentrating pipeline "
                "heads on fast nodes.\n");
          }};
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
  std::vector<Section> sections{figure5(repeats),
                                figures6to9(repeats, file_size),
                                figures10to12(repeats, file_size),
                                figure13(repeats),
                                model_validation(file_size, bracket_holds),
                                table1(repeats),
                                ablation_optimizers(repeats, file_size),
                                ablation_threshold(repeats, file_size),
                                ablation_pipeline_cap(repeats, file_size),
                                ablation_replication(repeats, file_size),
                                read_while_write(repeats, file_size),
                                storage_types(repeats, file_size),
                                multiclient(repeats),
                                balance(repeats, file_size)};

  // Every row becomes one job per (seed, protocol). Job order is the fold
  // order below, so the output does not depend on which worker ran what.
  std::vector<Job> jobs;
  for (const Section& section : sections) {
    for (const Series& series : section.series) {
      for (const harness::Scenario& row : series.rows) {
        for (int i = 0; i < series.seeds; ++i) {
          const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(i);
          for (Protocol protocol : series.protocols) {
            jobs.push_back({&section, &row, protocol, seed});
          }
        }
      }
    }
  }

  // The pool numbers its runs base_seed + i; with base 0 that is the index
  // of the job to run. Each job writes only its own slot of `values`: the
  // upload seconds, then the row's observed numbers.
  std::vector<std::vector<double>> values(jobs.size());
  const harness::SweepSummary pass = harness::run_seed_sweep(
      0, static_cast<int>(jobs.size()), /*jobs=*/0,
      [&jobs, &values](std::uint64_t index, harness::SeedRun& out) {
        const Job& job = jobs[index];
        std::vector<double>& mine = values[index];
        out.stats =
            harness::run_protocol(*job.row, job.protocol, job.seed, &mine);
        mine.insert(mine.begin(), to_seconds(out.stats.elapsed()));
      });

  bool failed = false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const harness::SeedRun& run = pass.runs[j];
    if (!run.errored && !run.stats.failed) continue;
    failed = true;
    std::fprintf(
        stderr, "bench_paper: %s: %s upload '%s' (seed %llu) %s: %s\n",
        jobs[j].section->title.c_str(),
        cluster::protocol_name(jobs[j].protocol),
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
        std::array<std::vector<double>, 2> mean;
        for (int i = 0; i < series.seeds; ++i) {
          for (Protocol protocol : series.protocols) {
            std::vector<double>& sum = mean[protocol == Protocol::kSmarth];
            sum.resize(values[next].size());
            for (std::size_t k = 0; k < sum.size(); ++k) {
              sum[k] += values[next][k];
            }
            ++next;
          }
        }
        for (std::vector<double>& sum : mean) {
          for (double& value : sum) value /= series.seeds;
        }
        series.table.push_back({row.label, mean[0].empty() ? 0.0 : mean[0][0],
                                mean[1].empty() ? 0.0 : mean[1][0]});
        series.values.push_back(std::move(mean));
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
