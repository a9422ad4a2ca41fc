// Tests for the tracing + metrics subsystem: span/track bookkeeping in the
// recorder, the metrics registry, Chrome trace_event export (schema-checked
// by the built-in validator), the golden two-block SMARTH upload trace, and
// straggler attribution naming a throttled datanode.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "metrics/report.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/straggler.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec small_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  return spec;
}

TEST(TraceRecorder, SpansCarryTimestampsAndDurations) {
  trace::TraceRecorder rec;
  SimTime now = 0;
  rec.set_time_source([&now] { return now; });
  const int pid = rec.begin_run("RUN");

  now = milliseconds(5);
  trace::SpanHandle span = rec.begin_span(trace::Category::kBlock, "block 0",
                                          "stream", {{"block", "blk-0"}});
  EXPECT_TRUE(span.valid());
  EXPECT_EQ(rec.open_span_count(), 1u);
  now = milliseconds(12);
  rec.end_span(span, {{"outcome", "ok"}});
  EXPECT_EQ(rec.open_span_count(), 0u);

  const trace::TraceEvent* ev = nullptr;
  for (const trace::TraceEvent& e : rec.events()) {
    if (e.ph == 'X') ev = &e;
  }
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->pid, pid);
  EXPECT_EQ(ev->ts, milliseconds(5));
  EXPECT_EQ(ev->dur, milliseconds(7));
  // Args from begin and end are merged in order.
  ASSERT_EQ(ev->args.size(), 2u);
  EXPECT_EQ(ev->args[0].first, "block");
  EXPECT_EQ(ev->args[0].second, "blk-0");
  EXPECT_EQ(ev->args[1].first, "outcome");
}

TEST(TraceRecorder, EndSpanIsIdempotentAndInertHandleIsSafe) {
  trace::TraceRecorder rec;
  rec.begin_run("RUN");
  trace::SpanHandle inert;
  EXPECT_FALSE(inert.valid());
  rec.end_span(inert);  // no-op, no crash

  trace::SpanHandle span =
      rec.begin_span(trace::Category::kRun, "client", "upload");
  rec.end_span(span);
  const std::size_t events_after_first_close = rec.events().size();
  rec.end_span(span, {{"ignored", "true"}});  // second close is a no-op
  EXPECT_EQ(rec.events().size(), events_after_first_close);
  EXPECT_EQ(rec.open_span_count(), 0u);
}

TEST(TraceRecorder, TracksGetDenseTidsAndOneMetadataEventEach) {
  trace::TraceRecorder rec;
  rec.begin_run("RUN");
  const std::int64_t client = rec.track("client");
  const std::int64_t block = rec.track("block 0");
  EXPECT_NE(client, block);
  EXPECT_EQ(rec.track("client"), client);  // stable on repeat lookups

  int thread_names = 0;
  for (const trace::TraceEvent& e : rec.events()) {
    if (e.ph == 'M' && e.name == "thread_name") ++thread_names;
  }
  EXPECT_EQ(thread_names, 2);

  // A second run gets its own dense tid space and its own metadata.
  rec.begin_run("RUN2");
  EXPECT_EQ(rec.track("client"), client);  // dense from 0 again
}

TEST(TraceRecorder, DisabledModeIsInert) {
  // No recorder installed: the global hooks must report inactive and every
  // instrumented struct's embedded handle stays invalid.
  ASSERT_FALSE(trace::active());
  trace::SpanHandle handle;
  EXPECT_FALSE(handle.valid());
  // A full upload with tracing disabled exercises every guarded site.
  metrics::global_registry().reset();
  Cluster cluster(small_spec());
  const auto stats =
      cluster.run_upload("/data/a.bin", 8 * kMiB, Protocol::kSmarth);
  EXPECT_FALSE(stats.failed);
}

TEST(TraceRecorder, HopStatsAccumulatePerPipelinePosition) {
  trace::TraceRecorder rec;
  const int pid = rec.begin_run("RUN");
  rec.record_hop(PipelineId{7}, NodeId{3}, 0, milliseconds(2));
  rec.record_hop(PipelineId{7}, NodeId{3}, 0, milliseconds(4));
  rec.record_hop(PipelineId{7}, NodeId{5}, 1, milliseconds(1));
  const auto& hops = rec.hops(pid);
  ASSERT_EQ(hops.size(), 1u);
  const std::vector<trace::HopStats>& pipeline = hops.at(7);
  ASSERT_EQ(pipeline.size(), 2u);
  for (const trace::HopStats& h : pipeline) {
    if (h.position == 0) {
      EXPECT_EQ(h.node, NodeId{3});
      EXPECT_EQ(h.ack_latency_ns.count(), 2u);
      EXPECT_DOUBLE_EQ(h.ack_latency_ns.mean(),
                       static_cast<double>(milliseconds(3)));
    }
  }
  EXPECT_TRUE(rec.hops(pid + 1).empty());  // unknown run: empty, no insert
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  metrics::Registry reg;
  reg.counter("a").add();
  reg.counter("a").add(4);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
  auto& h = reg.histogram("lat_ns");
  for (int i = 1; i <= 100; ++i) h.observe(i * 1.0e6);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.quantile(0.95), h.quantile(0.50));
  EXPECT_EQ(reg.find_counter("a")->value(), 5u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":5"), std::string::npos);
  EXPECT_NE(json.find("\"p95_ns\""), std::string::npos);
  const std::string csv = reg.to_csv("smarth");
  EXPECT_NE(csv.find("smarth,counter,a,,5"), std::string::npos);
  EXPECT_NE(csv.find("smarth,histogram,lat_ns,100"), std::string::npos);

  reg.reset();
  EXPECT_EQ(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_histogram("lat_ns"), nullptr);
}

TEST(ChromeTrace, ExportPassesSchemaValidation) {
  trace::TraceRecorder rec;
  SimTime now = 0;
  rec.set_time_source([&now] { return now; });
  rec.begin_run("RUN \"quoted\"");  // exercises json escaping
  trace::SpanHandle span = rec.begin_span(trace::Category::kBlock, "block 0",
                                          "stream", {{"k", "v with space"}});
  now = milliseconds(3);
  rec.instant(trace::Category::kFault, "faults", "crash", {{"dn", "2"}});
  rec.end_span(span);
  // Leave one span open: the exporter must close it ("truncated") and still
  // emit valid JSON.
  trace::SpanHandle open =
      rec.begin_span(trace::Category::kRecovery, "client", "recovery");
  (void)open;

  const std::string json = trace::to_chrome_trace_json(rec);
  const trace::ValidationResult result = trace::validate_chrome_trace(json);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.event_count, 0u);
  EXPECT_NE(json.find("truncated"), std::string::npos);
}

TEST(ChromeTrace, GoldenTwoBlockSmarthUploadTrace) {
  metrics::global_registry().reset();
  trace::TraceRecorder rec;
  trace::ScopedInstall install(&rec);

  rec.begin_run("SMARTH");
  {
    Cluster cluster(small_spec());
    rec.set_time_source([&cluster] { return cluster.sim().now(); });
    const auto stats =
        cluster.run_upload("/data/a.bin", 8 * kMiB, Protocol::kSmarth);
    ASSERT_FALSE(stats.failed) << stats.failure_reason;
    EXPECT_EQ(stats.blocks, 2);
    rec.set_time_source(nullptr);
  }
  metrics::global_registry().reset();
  rec.begin_run("HDFS");
  {
    Cluster cluster(small_spec());
    rec.set_time_source([&cluster] { return cluster.sim().now(); });
    const auto stats =
        cluster.run_upload("/data/a.bin", 8 * kMiB, Protocol::kHdfs);
    ASSERT_FALSE(stats.failed) << stats.failure_reason;
    rec.set_time_source(nullptr);
  }

  const std::string json = trace::to_chrome_trace_json(rec);
  const trace::ValidationResult result = trace::validate_chrome_trace(json);
  ASSERT_TRUE(result.ok) << result.error;
  // Both protocol runs are present as separate processes...
  EXPECT_NE(json.find("\"SMARTH\""), std::string::npos);
  EXPECT_NE(json.find("\"HDFS\""), std::string::npos);
  // ...and the two concurrent-capable pipelines render as distinct block
  // tracks, with the lifecycle phases as complete spans.
  EXPECT_NE(json.find("\"block 0\""), std::string::npos);
  EXPECT_NE(json.find("\"block 1\""), std::string::npos);
  EXPECT_EQ(json.find("\"block 2\""), std::string::npos);
  for (const char* phase : {"allocate", "setup", "stream", "tail-ack"}) {
    EXPECT_NE(json.find(std::string("\"") + phase + "\""), std::string::npos)
        << phase;
  }
  // No span may leak past the upload's clean completion.
  EXPECT_EQ(rec.open_span_count(), 0u);
  EXPECT_EQ(json.find("truncated"), std::string::npos);
}

TEST(ChromeTrace, GoldenCounterTrack) {
  trace::TraceRecorder rec;
  SimTime now = 0;
  rec.set_time_source([&now] { return now; });
  rec.begin_run("RUN");
  rec.counter("flight", "nn.rpc.queue_depth", 0);
  now = seconds(1);
  rec.counter("flight", "nn.rpc.queue_depth", 17);
  rec.counter("flight", "client.addblock_p99_ns", 1.25e6);
  now = seconds(2);
  rec.counter("flight", "nn.rpc.queue_depth", 4);

  const std::string json = trace::to_chrome_trace_json(rec);
  const trace::ValidationResult result = trace::validate_chrome_trace(json);
  ASSERT_TRUE(result.ok) << result.error;
  // Counter samples export with *raw numeric* args (Perfetto only renders
  // counter tracks from numbers, not quoted strings)...
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":17}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":1250000}"), std::string::npos);
  EXPECT_EQ(json.find("\"value\":\"17\""), std::string::npos);
  // ...on the named counter track, at microsecond timestamps.
  EXPECT_NE(json.find("\"nn.rpc.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);
}

TEST(ChromeTrace, ValidatorRejectsMalformedCounterEvents) {
  // A 'C' event with no args object has no value to plot.
  const std::string no_args =
      "{\"traceEvents\":[{\"name\":\"q\",\"cat\":\"run\",\"ph\":\"C\","
      "\"ts\":0,\"pid\":0,\"tid\":0}]}";
  EXPECT_FALSE(trace::validate_chrome_trace(no_args).ok);
  // Empty args: still nothing to plot.
  const std::string empty_args =
      "{\"traceEvents\":[{\"name\":\"q\",\"cat\":\"run\",\"ph\":\"C\","
      "\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{}}]}";
  EXPECT_FALSE(trace::validate_chrome_trace(empty_args).ok);
  // Quoted values render no counter track in Perfetto; reject them so a
  // regression in the exporter fails loudly here instead of silently
  // producing a blank track.
  const std::string quoted =
      "{\"traceEvents\":[{\"name\":\"q\",\"cat\":\"run\",\"ph\":\"C\","
      "\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"value\":\"17\"}}]}";
  EXPECT_FALSE(trace::validate_chrome_trace(quoted).ok);
  // The well-formed flavor of the same event passes.
  const std::string numeric =
      "{\"traceEvents\":[{\"name\":\"q\",\"cat\":\"run\",\"ph\":\"C\","
      "\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"value\":17}}]}";
  const trace::ValidationResult ok = trace::validate_chrome_trace(numeric);
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(Straggler, ThrottledDatanodeNamedDominant) {
  metrics::global_registry().reset();
  trace::TraceRecorder rec;
  trace::ScopedInstall install(&rec);
  const int pid = rec.begin_run("SMARTH");
  Cluster cluster(small_spec());
  rec.set_time_source([&cluster] { return cluster.sim().now(); });
  // Datanode index 2 ("node-3") gets a starved NIC: every pipeline through
  // it stalls on that hop.
  const NodeId slow = cluster.datanode(2).node_id();
  cluster.throttle_datanode(2, Bandwidth::mbps(20));
  const auto stats =
      cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  rec.set_time_source(nullptr);

  const trace::StragglerReport report = trace::straggler_report(rec, pid);
  EXPECT_EQ(report.dominant_node, slow) << report.text;
  EXPECT_GT(report.dominant_share, 0.0);
  EXPECT_NE(report.text.find("dominant straggler: " + slow.to_string()),
            std::string::npos)
      << report.text;
}

TEST(MetricsRegistry, RpcRetryCountersCoverStreamStats) {
  metrics::global_registry().reset();
  Cluster cluster(small_spec());
  rpc::RpcChaos chaos;
  chaos.loss_probability = 0.4;
  cluster.rpc().set_chaos(chaos);
  const auto stats =
      cluster.run_upload("/data/a.bin", 8 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  const metrics::Counter* retries =
      metrics::global_registry().find_counter("rpc.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value(), 0u);
}

TEST(MetricsRegistry, MergeAddsCountersGaugesAndHistograms) {
  metrics::Registry a;
  a.counter("x").add(2);
  a.gauge("g").set(1.5);
  a.histogram("h").observe(10.0);
  a.histogram("h").observe(50.0);
  metrics::Registry b;
  b.counter("x").add(3);
  b.counter("y").add(1);
  b.gauge("g").set(2.0);
  b.histogram("h").observe(1.0e6);
  b.histogram("only_b").observe(5.0);

  a.merge(b);
  EXPECT_EQ(a.counter_value("x"), 5u);
  EXPECT_EQ(a.counter_value("y"), 1u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 3.5);
  const metrics::LatencyHistogram& h = *a.find_histogram("h");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.histogram().total(), 3u);
  std::uint64_t bucketed = 0;
  for (std::size_t i = 0; i < h.histogram().bucket_count(); ++i) {
    bucketed += h.histogram().bucket(i);
  }
  EXPECT_EQ(bucketed, 3u);
  EXPECT_DOUBLE_EQ(h.stats().sum(), 1.0e6 + 60.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), 10.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 1.0e6);
  EXPECT_EQ(a.find_histogram("only_b")->count(), 1u);

  // Merging an empty registry is the identity.
  const std::string before = a.to_json();
  a.merge(metrics::Registry{});
  EXPECT_EQ(a.to_json(), before);

  // Histograms with different bucket bounds cannot be added.
  metrics::Registry other_bounds;
  other_bounds.histogram("h", {1.0, 2.0}).observe(1.0);
  EXPECT_THROW(a.merge(other_bounds), std::logic_error);
}

/// The value cell of `label`'s row in a rendered robustness table.
std::string fault_row(const std::string& table, const std::string& label) {
  const std::size_t at = table.find(label + "  ");
  if (at == std::string::npos) return "<missing>";
  const std::size_t value = table.find_first_not_of(' ', at + label.size());
  const std::size_t end = table.find('\n', value);
  return table.substr(value, table.find_last_not_of(' ', end - 1) - value + 1);
}

TEST(MetricsRegistry, RobustnessTableDerivesRowsFromTheRegistry) {
  metrics::Registry reg;
  EXPECT_EQ(fault_row(metrics::render_fault_summary(reg), "uploads"), "0");
  EXPECT_EQ(metrics::render_fault_summary(reg).find("nn downtime"),
            std::string::npos);

  reg.counter("write.uploads").add(2);
  reg.counter("write.recoveries").add(2);
  reg.histogram("stream.recovery_ns").observe(1.0e9);
  reg.histogram("stream.recovery_ns").observe(3.0e9);
  reg.counter("faults.crashes").add(2);
  reg.counter("faults.nn_crashes").add(1);
  reg.histogram("namenode.downtime_ns").observe(2.0e9);
  reg.histogram("namenode.downtime_ns").observe(4.0e9);
  const std::string table = metrics::render_fault_summary(reg);
  EXPECT_EQ(fault_row(table, "uploads"), "2");
  EXPECT_EQ(fault_row(table, "recovery MTTR (s)"), "2.00");
  EXPECT_EQ(fault_row(table, "faults injected"), "3");
  EXPECT_EQ(fault_row(table, "nn crashes"), "1");
  EXPECT_EQ(fault_row(table, "nn downtime mean (s)"), "3.00");
  EXPECT_EQ(fault_row(table, "nn downtime min/max (s)"), "2.00 / 4.00");
  // Population stddev of {2, 4}; the sample stddev would print 1.41.
  EXPECT_EQ(fault_row(table, "nn downtime stddev (s)"), "1.00");
}

}  // namespace
}  // namespace smarth
