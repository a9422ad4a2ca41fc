// Tests for the flight recorder: per-interval counter deltas, gauge samples
// and windowed histogram quantiles against a hand-driven registry; the ring
// buffer's drop-oldest behavior; deterministic exports; each watchdog monitor
// tripping on a synthetic anomaly series and staying quiet on a clean one;
// and the integration path where a Cluster drives the sampler on simulated
// time (including "disabled recorder schedules nothing").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;
using metrics::FlightRecorder;
using metrics::FlightRecorderConfig;
using metrics::FlightRun;
using metrics::SeriesKind;
using metrics::WatchdogSpec;

/// A small hand-driven telemetry set: one counter delta ("progress"), one
/// gauge ("depth"), one windowed p50 over "lat_ns".
FlightRecorderConfig tiny_config() {
  FlightRecorderConfig config;
  config.series = {
      {"progress", SeriesKind::kCounterDelta, "test.progress"},
      {"depth", SeriesKind::kGauge, "test.depth"},
      {"lat_p50", SeriesKind::kHistogramQuantile, "test.lat_ns", 0.50},
  };
  config.watchdogs.clear();
  return config;
}

TEST(FlightRecorder, CounterDeltasGaugesAndWindowedQuantiles) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorder rec(tiny_config());
  rec.begin_run("RUN", 7);

  reg.counter("test.progress").add(10);
  reg.gauge("test.depth").set(3.0);
  for (int i = 0; i < 100; ++i) reg.histogram("test.lat_ns").observe(1.0e6);
  rec.sample(seconds(1));

  reg.counter("test.progress").add(5);
  reg.gauge("test.depth").set(1.5);
  // A fresh window: later observations must not be averaged with the first
  // interval's.
  for (int i = 0; i < 100; ++i) reg.histogram("test.lat_ns").observe(8.0e6);
  rec.sample(seconds(2));

  // An empty window reports 0, not the previous interval's quantile.
  rec.sample(seconds(3));
  rec.finish_run(seconds(3));

  // The contract: each interval's quantile equals the quantile of a
  // histogram holding only that interval's observations.
  metrics::Registry ref;
  auto& w1 = ref.histogram("w1");
  for (int i = 0; i < 100; ++i) w1.observe(1.0e6);
  auto& w2 = ref.histogram("w2");
  for (int i = 0; i < 100; ++i) w2.observe(8.0e6);

  ASSERT_EQ(rec.runs().size(), 1u);
  const FlightRun& run = rec.runs()[0];
  ASSERT_EQ(run.samples.size(), 3u);
  EXPECT_EQ(run.samples[0].at, seconds(1));
  EXPECT_DOUBLE_EQ(run.samples[0].values[0], 10.0);
  EXPECT_DOUBLE_EQ(run.samples[0].values[1], 3.0);
  EXPECT_DOUBLE_EQ(run.samples[0].values[2], w1.quantile(0.50));
  EXPECT_DOUBLE_EQ(run.samples[1].values[0], 5.0);
  EXPECT_DOUBLE_EQ(run.samples[1].values[1], 1.5);
  EXPECT_DOUBLE_EQ(run.samples[1].values[2], w2.quantile(0.50));
  EXPECT_NE(run.samples[1].values[2], run.samples[0].values[2]);
  EXPECT_DOUBLE_EQ(run.samples[2].values[0], 0.0);
  EXPECT_DOUBLE_EQ(run.samples[2].values[2], 0.0);
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(rec.total_firings(), 0u);
}

TEST(FlightRecorder, MissingMetricsSampleAsZeroAndAppearLater) {
  // Registry entries are created lazily by the instrumented code; a column
  // whose metric does not exist yet must read 0, then pick the metric up
  // mid-run without a spurious first delta.
  metrics::global_registry().reset();
  FlightRecorder rec(tiny_config());
  rec.begin_run("RUN", 1);
  rec.sample(seconds(1));
  metrics::global_registry().counter("test.progress").add(4);
  rec.sample(seconds(2));
  const FlightRun& run = rec.runs()[0];
  EXPECT_DOUBLE_EQ(run.samples[0].values[0], 0.0);
  EXPECT_DOUBLE_EQ(run.samples[1].values[0], 4.0);
}

TEST(FlightRecorder, RingDropsOldestAndCountsDrops) {
  metrics::global_registry().reset();
  FlightRecorderConfig config = tiny_config();
  config.ring_capacity = 4;
  FlightRecorder rec(config);
  rec.begin_run("RUN", 1);
  for (int i = 1; i <= 10; ++i) {
    metrics::global_registry().gauge("test.depth").set(i);
    rec.sample(seconds(i));
  }
  const FlightRun& run = rec.runs()[0];
  EXPECT_EQ(run.samples.size(), 4u);
  EXPECT_EQ(run.samples_taken, 10u);
  EXPECT_EQ(run.dropped, 6u);
  EXPECT_EQ(run.samples.front().at, seconds(7));  // oldest surviving
  EXPECT_DOUBLE_EQ(run.samples.back().values[1], 10.0);
}

TEST(FlightRecorder, ExportsAreDeterministicAndWellShaped) {
  auto record_once = [](FlightRecorder& rec) {
    metrics::Registry& reg = metrics::global_registry();
    reg.reset();
    rec.begin_run("HDFS", 42);
    reg.counter("test.progress").add(3);
    reg.gauge("test.depth").set(0.125);
    rec.sample(seconds(1));
    rec.finish_run(seconds(1));
  };
  FlightRecorder a(tiny_config());
  FlightRecorder b(tiny_config());
  record_once(a);
  record_once(b);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());

  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"sample_interval_ns\":1000000000"),
            std::string::npos);
  EXPECT_NE(json.find("\"columns\":[\"t_ns\",\"progress\",\"depth\","
                      "\"lat_p50\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"samples\":[[1000000000,3,0.125,0]]"),
            std::string::npos);
  // The sweep driver moves each seed's run out of its worker's recorder
  // into one recorder; the merged export is the same document.
  FlightRecorder merged(tiny_config());
  merged.add_run(b.take_run());
  EXPECT_TRUE(b.runs().empty());
  EXPECT_EQ(merged.to_json(), json);
  EXPECT_EQ(merged.to_csv(), a.to_csv());
  const std::string csv = a.to_csv();
  EXPECT_NE(csv.find("run,seed,t_ns,progress,depth,lat_p50"),
            std::string::npos);
  EXPECT_NE(csv.find("HDFS,42,1000000000,3,0.125,0"), std::string::npos);
}

TEST(FlightRecorder, StallWatchdogTripsOnlyWhenPendingAndNoProgress) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorderConfig config = tiny_config();
  config.watchdogs = {{"stall", WatchdogSpec::Kind::kStall, "progress",
                       "depth", 0.0, 3}};
  FlightRecorder rec(config);
  rec.begin_run("RUN", 1);

  // Progress flowing: no firing no matter how long.
  reg.gauge("test.depth").set(2.0);
  for (int i = 1; i <= 6; ++i) {
    reg.counter("test.progress").add(1);
    rec.sample(seconds(i));
  }
  EXPECT_EQ(rec.total_firings(), 0u);

  // Zero progress but nothing pending either (depth 0): still quiet.
  reg.gauge("test.depth").set(0.0);
  for (int i = 7; i <= 12; ++i) rec.sample(seconds(i));
  EXPECT_EQ(rec.total_firings(), 0u);

  // Pending work and a flat progress counter: fires at the 3rd stalled tick,
  // and latches (one firing per run, not one per subsequent tick).
  reg.gauge("test.depth").set(2.0);
  rec.sample(seconds(13));
  rec.sample(seconds(14));
  EXPECT_EQ(rec.total_firings(), 0u);
  rec.sample(seconds(15));
  EXPECT_EQ(rec.firings_of("stall"), 1u);
  rec.sample(seconds(16));
  rec.finish_run(seconds(16));
  EXPECT_EQ(rec.total_firings(), 1u);

  const FlightRun& run = rec.runs()[0];
  ASSERT_EQ(run.firings.size(), 1u);
  EXPECT_EQ(run.firings[0].monitor, "stall");
  EXPECT_EQ(run.firings[0].at, seconds(15));
  EXPECT_FALSE(run.firings[0].tail.empty());
  EXPECT_NE(run.firings[0].registry_json.find("\"gauges\""),
            std::string::npos);
}

TEST(FlightRecorder, StallStreakResetsWhenProgressResumes) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorderConfig config = tiny_config();
  config.watchdogs = {{"stall", WatchdogSpec::Kind::kStall, "progress",
                       "depth", 0.0, 3}};
  FlightRecorder rec(config);
  rec.begin_run("RUN", 1);
  reg.gauge("test.depth").set(1.0);
  // Two stalled ticks, one with progress, two stalled again: never 3 in a
  // row, never fires.
  rec.sample(seconds(1));
  rec.sample(seconds(2));
  reg.counter("test.progress").add(1);
  rec.sample(seconds(3));
  rec.sample(seconds(4));
  rec.sample(seconds(5));
  EXPECT_EQ(rec.total_firings(), 0u);
  rec.sample(seconds(6));  // third consecutive stalled tick
  EXPECT_EQ(rec.total_firings(), 1u);
}

TEST(FlightRecorder, RunawayWatchdogNeedsSustainedDepth) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorderConfig config = tiny_config();
  config.watchdogs = {{"runaway", WatchdogSpec::Kind::kRunaway, "depth", "",
                       100.0, 2}};
  FlightRecorder rec(config);
  rec.begin_run("RUN", 1);
  // A one-tick spike is a burst, not a runaway.
  reg.gauge("test.depth").set(500.0);
  rec.sample(seconds(1));
  reg.gauge("test.depth").set(3.0);
  rec.sample(seconds(2));
  EXPECT_EQ(rec.total_firings(), 0u);
  // Two consecutive ticks past the threshold fire (and latch).
  reg.gauge("test.depth").set(150.0);
  rec.sample(seconds(3));
  rec.sample(seconds(4));
  EXPECT_EQ(rec.firings_of("runaway"), 1u);
  rec.sample(seconds(5));
  EXPECT_EQ(rec.total_firings(), 1u);
  ASSERT_EQ(rec.runs()[0].firings.size(), 1u);
  EXPECT_NE(rec.runs()[0].firings[0].reason.find("150"), std::string::npos);
}

TEST(FlightRecorder, QuiescenceWatchdogReadsRegistryAtFinish) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorderConfig config = tiny_config();
  config.watchdogs = {{"stuck", WatchdogSpec::Kind::kStuckAtQuiescence,
                       "test.leaked", "", 0.0, 1}};
  {
    FlightRecorder rec(config);
    rec.begin_run("CLEAN", 1);
    rec.sample(seconds(1));
    rec.finish_run(seconds(1));  // gauge absent: nothing leaked
    EXPECT_EQ(rec.total_firings(), 0u);
  }
  {
    FlightRecorder rec(config);
    rec.begin_run("CLEAN0", 1);
    reg.gauge("test.leaked").set(0.0);
    rec.sample(seconds(1));
    rec.finish_run(seconds(1));  // gauge zero: quiesced
    EXPECT_EQ(rec.total_firings(), 0u);
  }
  {
    FlightRecorder rec(config);
    rec.begin_run("LEAKY", 1);
    reg.gauge("test.leaked").set(2.0);
    rec.sample(seconds(1));
    rec.finish_run(seconds(1));
    EXPECT_EQ(rec.firings_of("stuck"), 1u);
    rec.finish_run(seconds(1));  // idempotent: no double fire
    EXPECT_EQ(rec.total_firings(), 1u);
  }
}

TEST(FlightRecorder, WatchdogDumpCarriesPendingSummary) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorderConfig config = tiny_config();
  config.watchdogs = {{"runaway", WatchdogSpec::Kind::kRunaway, "depth", "",
                       1.0, 1}};
  FlightRecorder rec(config);
  rec.set_pending_summary_provider(
      [] { return std::string("upload.packet: 12"); });
  rec.begin_run("RUN", 1);
  reg.gauge("test.depth").set(5.0);
  rec.sample(seconds(1));
  ASSERT_EQ(rec.total_firings(), 1u);
  EXPECT_EQ(rec.runs()[0].firings[0].pending_summary, "upload.packet: 12");
  // Dumps land in the JSON export, tail samples and all.
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"watchdogs\":[{\"monitor\":\"runaway\""),
            std::string::npos);
  EXPECT_NE(json.find("upload.packet: 12"), std::string::npos);
}

TEST(FlightRecorder, SecondBeginRunSealsAndResetsBaselines) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorder rec(tiny_config());
  rec.begin_run("A", 1);
  reg.counter("test.progress").add(100);
  rec.sample(seconds(1));
  // No finish_run: begin_run must seal A anyway (without quiescence checks)
  // and rebase the counter baselines so B's first delta is not -100 or +100.
  rec.begin_run("B", 2);
  rec.sample(seconds(1));
  ASSERT_EQ(rec.runs().size(), 2u);
  EXPECT_TRUE(rec.runs()[0].finished);
  EXPECT_DOUBLE_EQ(rec.runs()[1].samples[0].values[0], 0.0);
}

TEST(FlightRecorder, SamplesAfterFinishRunAreDropped) {
  metrics::Registry& reg = metrics::global_registry();
  reg.reset();
  FlightRecorder rec(tiny_config());
  rec.begin_run("RUN", 1);
  reg.counter("test.progress").add(2);
  rec.sample(seconds(1));
  rec.finish_run(seconds(1));
  // Simulated time driven after the verdict belongs to no run: the sealed
  // run keeps the samples its watchdogs judged.
  reg.counter("test.progress").add(3);
  rec.sample(seconds(2));
  ASSERT_EQ(rec.runs().size(), 1u);
  const FlightRun& run = rec.runs()[0];
  EXPECT_TRUE(run.finished);
  EXPECT_EQ(run.samples.size(), 1u);
  EXPECT_EQ(run.samples_taken, 1u);
  EXPECT_EQ(run.samples.back().at, seconds(1));
}

TEST(FlightRecorder, DefaultConfigClusterIntegration) {
  // End to end on a real world: the cluster attaches the sampler, goodput,
  // liveness and pipeline-concurrency columns move, no default watchdog
  // fires on a clean upload.
  metrics::global_registry().reset();
  FlightRecorderConfig config;  // default series + watchdogs
  config.sample_interval = milliseconds(100);  // the upload lasts ~1 s
  FlightRecorder rec(config);
  metrics::ScopedFlightInstall install(&rec);
  rec.begin_run("SMARTH", 42);
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.block_size = 4 * kMiB;
  Cluster cluster(spec);
  const auto stats =
      cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  // One more sample past the completion, which must read no open pipeline.
  cluster.sim().run_until(cluster.sim().now() + config.sample_interval);
  rec.finish_run(cluster.sim().now());

  ASSERT_EQ(rec.runs().size(), 1u);
  const FlightRun& run = rec.runs()[0];
  ASSERT_GT(run.samples.size(), 1u);
  const std::size_t bytes_col = rec.column("client.bytes_acked");
  const std::size_t live_col = rec.column("nn.live_datanodes");
  const std::size_t pipelines_col = rec.column("client.pipelines_open");
  double acked = 0.0;
  double pipelines_peak = 0.0;
  for (const metrics::FlightSample& s : run.samples) {
    acked += s.values[bytes_col];
    EXPECT_DOUBLE_EQ(s.values[live_col], 9.0);  // small cluster: 9 datanodes
    pipelines_peak = std::max(pipelines_peak, s.values[pipelines_col]);
  }
  EXPECT_GT(acked, 0.0);
  // The sampled concurrency never exceeds what the stream itself counted,
  // and nothing stays open once the upload is done.
  EXPECT_GE(pipelines_peak, 1.0);
  EXPECT_LE(pipelines_peak,
            static_cast<double>(stats.max_concurrent_pipelines));
  EXPECT_DOUBLE_EQ(run.samples.back().values[pipelines_col], 0.0);
  // Clean completion: no stall, no runaway, nothing stuck past quiescence.
  EXPECT_EQ(rec.total_firings(), 0u);
}

TEST(FlightRecorder, DisabledRecorderSchedulesNothing) {
  ASSERT_FALSE(metrics::flight_active());
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = cluster::small_cluster(42);
  spec.hdfs.block_size = 4 * kMiB;
  Cluster cluster(spec);
  const auto stats =
      cluster.run_upload("/data/a.bin", 8 * kMiB, Protocol::kSmarth);
  EXPECT_FALSE(stats.failed);
  // Nothing was installed mid-run and nothing sampled: there is no recorder
  // to hold samples, and the cluster never created a sampler task (checked
  // indirectly: a second identical run with a recorder takes samples).
  FlightRecorder rec;
  metrics::ScopedFlightInstall install(&rec);
  rec.begin_run("SMARTH", 42);
  metrics::global_registry().reset();
  Cluster cluster2(cluster::small_cluster(42));
  (void)cluster2.run_upload("/data/a.bin", 8 * kMiB, Protocol::kSmarth);
  rec.finish_run(cluster2.sim().now());
  EXPECT_GT(rec.runs()[0].samples_taken, 0u);
}

}  // namespace
}  // namespace smarth
