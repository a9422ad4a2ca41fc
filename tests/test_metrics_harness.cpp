// Tests for the metrics renderers and the experiment harness: comparison
// math, table shape, scenario builders, open-loop loads and speed
// pre-warming.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "metrics/report.hpp"

namespace smarth {
namespace {

TEST(Metrics, ImprovementPercent) {
  metrics::ComparisonRow row{"x", 200.0, 100.0};
  EXPECT_DOUBLE_EQ(row.improvement_percent(), 100.0);
  row.smarth_seconds = 200.0;
  EXPECT_DOUBLE_EQ(row.improvement_percent(), 0.0);
}

TEST(Metrics, ComparisonTableShape) {
  std::vector<metrics::ComparisonRow> rows{{"50 Mbps", 100, 50},
                                           {"100 Mbps", 60, 40}};
  const std::string table = metrics::render_comparison_table("throttle", rows);
  EXPECT_NE(table.find("throttle"), std::string::npos);
  EXPECT_NE(table.find("50 Mbps"), std::string::npos);
  EXPECT_NE(table.find("100.0"), std::string::npos);  // improvement column
}

TEST(Harness, RunProtocolProducesCleanStats) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.block_size = 4 * kMiB;
        return spec;
      },
      Bandwidth::mbps(50), 8 * kMiB);
  const auto stats =
      harness::run_protocol(scenario, cluster::Protocol::kHdfs, 7);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.blocks, 2);
}

TEST(Harness, ObserveReadsTheRunsOwnClusterAfterTheUpload) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.block_size = 4 * kMiB;
        return spec;
      },
      Bandwidth::mbps(50), 8 * kMiB);
  std::vector<cluster::Protocol> hooked;
  scenario.observe = [&hooked](cluster::Cluster& cluster,
                               cluster::Protocol protocol)
      -> harness::Observer {
    // After prepare, before the measured upload.
    hooked.push_back(protocol);
    EXPECT_TRUE(cluster.network().cross_rack_throttle().has_value());
    EXPECT_EQ(cluster.total_finalized_replica_bytes(), 0);
    return [&cluster](const hdfs::StreamStats& stats) {
      EXPECT_FALSE(stats.failed);
      return std::vector<double>{
          static_cast<double>(cluster.total_finalized_replica_bytes()),
          static_cast<double>(cluster.config().replication)};
    };
  };
  for (cluster::Protocol protocol :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    std::vector<double> observed;
    const auto stats = harness::run_protocol(scenario, protocol, 7, &observed);
    ASSERT_FALSE(stats.failed);
    ASSERT_EQ(observed.size(), 2u);
    EXPECT_EQ(observed[0], observed[1] * static_cast<double>(8 * kMiB));
  }
  EXPECT_EQ(hooked, (std::vector<cluster::Protocol>{
                        cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}));
}

TEST(Harness, OpenLoopLoadRunsInPlaceOfTheUpload) {
  workload::OpenLoopConfig load;
  load.clients = 4;
  load.arrival_rate = 4.0;
  // 16 and 32 MiB files: long enough that some are still in flight when
  // the arrival window closes.
  load.min_file_size = 16 * kMiB;
  load.size_ranks = 2;
  load.duration = seconds(5);
  harness::Scenario scenario{
      .label = "open loop",
      .make_spec =
          [](std::uint64_t seed) {
            cluster::ClusterSpec spec = cluster::small_cluster(seed);
            spec.hdfs.fidelity = hdfs::DataFidelity::kBlock;
            return spec;
          },
      .observe = [](cluster::Cluster& cluster,
                    cluster::Protocol) -> harness::Observer {
        return [&cluster](const hdfs::StreamStats&) {
          return std::vector<double>{
              cluster.namenode().file_by_path("/data/input.bin") != nullptr
                  ? 1.0
                  : 0.0};
        };
      }};
  // With no grace past the arrival window the last arrivals are stuck.
  for (SimDuration grace : {seconds(200), SimDuration{0}}) {
    load.stuck_grace = grace;
    scenario.open_loop = load;
    std::vector<double> observed;
    const hdfs::StreamStats stats =
        harness::run_protocol(scenario, cluster::Protocol::kSmarth, 7,
                              &observed);
    EXPECT_EQ(observed, std::vector<double>{0.0});  // no measured file
    // The same load on the same world, run directly.
    cluster::Cluster cluster(scenario.make_spec(7));
    const workload::OpenLoopResult direct =
        workload::OpenLoopWorkload(cluster::Protocol::kSmarth, load)
            .run(cluster);
    ASSERT_GT(direct.completed, 0);
    EXPECT_EQ(direct.stuck > 0, grace == 0);
    EXPECT_EQ(stats.file_size, direct.bytes_completed);
    EXPECT_EQ(stats.started_at, direct.started_at);
    EXPECT_EQ(stats.finished_at, direct.finished_at);
    EXPECT_EQ(stats.failed, direct.stuck > 0);
  }
}

TEST(Harness, FlightRecorderSamplesTheRunUntilTheObserver) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.block_size = 4 * kMiB;
        return spec;
      },
      Bandwidth::mbps(50), 8 * kMiB);
  scenario.flight = metrics::FlightRecorderConfig{};
  scenario.observe = [](cluster::Cluster&,
                        cluster::Protocol) -> harness::Observer {
    return [](const hdfs::StreamStats&) {
      const metrics::FlightRun& run = metrics::flight_recorder()->runs().back();
      return std::vector<double>{run.finished ? 1.0 : 0.0,
                                 static_cast<double>(run.samples.size())};
    };
  };
  std::vector<double> observed;
  harness::run_protocol(scenario, cluster::Protocol::kHdfs, 7, &observed);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], 1.0);  // finished before the observer ran
  EXPECT_GT(observed[1], 0.0);  // sampled while the upload ran
  EXPECT_FALSE(metrics::flight_active());  // uninstalled with the run
}

TEST(Harness, ContentionScenarioThrottlesExactlyK) {
  harness::Scenario scenario = harness::contention_scenario(
      "c", [](std::uint64_t seed) { return cluster::small_cluster(seed); },
      3, Bandwidth::mbps(50), kMiB);
  cluster::Cluster cluster(scenario.make_spec(1));
  scenario.prepare(cluster);
  int slow = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.network().node_nic(cluster.datanode_id(i)).mbps() == 50.0) {
      ++slow;
    }
  }
  EXPECT_EQ(slow, 3);
}

TEST(Harness, WarmSpeedRecordsMatchConfiguration) {
  cluster::ClusterSpec spec = cluster::small_cluster(1);
  cluster::Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(50));
  harness::warm_speed_records(cluster);
  const auto& topo = cluster.network().topology();
  ASSERT_TRUE(cluster.speed_tracker().has_records());
  ASSERT_TRUE(
      cluster.namenode().speed_board().has_records(cluster.client().id()));
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    const auto speed = cluster.speed_tracker().speed(cluster.datanode_id(i));
    ASSERT_TRUE(speed.has_value());
    if (topo.same_rack(cluster.datanode_id(i), cluster.client_node())) {
      EXPECT_GT(speed->mbps(), 200.0);
    } else {
      EXPECT_LE(speed->mbps(), 51.0);
    }
  }
}

TEST(StripChart, SingleSampleRendersNoteNotBar) {
  metrics::FlightRun run;
  run.samples.push_back({seconds(5), {4.0}});
  const std::string out = metrics::render_strip_chart("pipes", run, 0, 20);
  EXPECT_NE(out.find("single sample"), std::string::npos);
  // No fake full-width bar claiming the level held over a span.
  EXPECT_EQ(out.find("####"), std::string::npos);
}

TEST(StripChart, DuplicateTimestampsKeepLastValue) {
  metrics::FlightRun run;
  run.samples.push_back({seconds(1), {2.0}});
  run.samples.push_back({seconds(1), {6.0}});  // same instant: later wins
  EXPECT_EQ(metrics::render_strip_chart("x", run, 0, 20),
            "x: 6.000000 at 1.000 s (single sample)\n");
}

TEST(Harness, TwoRackScenarioUnlimitedMeansNoThrottle) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) { return cluster::small_cluster(seed); },
      kUnlimitedBandwidth, kMiB);
  cluster::Cluster cluster(scenario.make_spec(1));
  scenario.prepare(cluster);
  EXPECT_FALSE(cluster.network().cross_rack_throttle().has_value());
}

}  // namespace
}  // namespace smarth
