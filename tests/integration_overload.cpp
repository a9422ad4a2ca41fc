// Control-plane overload integration: the defended namenode sheds load
// without mistaking overload for sickness (no suspicion, no re-registration
// of healthy datanodes), the open-loop workload completes through admission
// control, and the whole overload machinery is same-seed deterministic in
// both protocols and both fidelities.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "trace/metrics_registry.hpp"
#include "workload/open_loop.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec overload_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  spec.hdfs.fidelity = hdfs::DataFidelity::kBlock;
  spec.hdfs.nn_service_model = true;
  spec.hdfs.nn_admission_control = true;
  return spec;
}

workload::OpenLoopConfig small_open_loop() {
  workload::OpenLoopConfig cfg;
  cfg.clients = 8;
  cfg.arrival_rate = 6.0;
  cfg.duration = seconds(20);
  cfg.min_file_size = 1 * kMiB;
  return cfg;
}

// Satellite: shed heartbeats must never feed the gray-failure machinery. A
// namenode drowning in its own heartbeat load (huge per-heartbeat cost,
// queue depth 1, batching off) sheds most of them — but every datanode is
// healthy, so the suspicion list stays empty and nobody re-registers.
TEST(OverloadIntegration, ShedHeartbeatsFileNoSuspicionsOrReregistrations) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = overload_spec();
  spec.hdfs.nn_cost_heartbeat = seconds(2);
  spec.hdfs.nn_queue_capacity = 1;
  spec.hdfs.nn_heartbeat_batch_max = 1;
  Cluster cluster(spec);
  cluster.sim().run_until(seconds(60));
  ASSERT_NE(cluster.nn_service_queue(), nullptr);
  // The overload is real: heartbeats were dropped on the floor.
  EXPECT_GT(cluster.nn_service_queue()->counters().shed_heartbeats, 0u);
  // ...and invisible to the health machinery: a shed heartbeat's handler
  // never ran, so it cannot have been misread as datanode evidence.
  EXPECT_EQ(cluster.namenode().slow_node_reports(), 0u);
  EXPECT_TRUE(
      cluster.namenode().suspicion().suspects(cluster.sim().now()).empty());
  EXPECT_EQ(metrics::global_registry().counter_value("namenode.reregistrations"), 0u);
  EXPECT_EQ(cluster.namenode().lease_expiries(), 0u);
}

// The defense under real pressure: offered addBlock load beyond the modeled
// namenode capacity gets shed and retried, yet every job still lands — no
// stuck uploads, no failures, and the clients actually exercised the typed
// overloaded path.
TEST(OverloadIntegration, DefendedOpenLoopShedsButEveryJobCompletes) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = overload_spec();
  spec.hdfs.nn_cost_add_block = milliseconds(40);
  spec.hdfs.nn_cost_meta = milliseconds(10);
  spec.hdfs.nn_queue_capacity = 8;
  spec.hdfs.nn_client_addblock_cap = 1;
  Cluster cluster(spec);
  workload::OpenLoopWorkload wl(Protocol::kSmarth, small_open_loop());
  const workload::OpenLoopResult result = wl.run(cluster);
  EXPECT_GT(result.jobs, 0);
  EXPECT_EQ(result.stuck, 0);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.completed, result.jobs);
  ASSERT_NE(cluster.nn_service_queue(), nullptr);
  EXPECT_GT(cluster.nn_service_queue()->counters().shed_total, 0u);
  const metrics::Counter* retries =
      metrics::global_registry().find_counter("rpc.overload_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value(), 0u);
  // Overload still isn't sickness.
  EXPECT_EQ(cluster.namenode().slow_node_reports(), 0u);
  EXPECT_EQ(metrics::global_registry().counter_value("namenode.reregistrations"), 0u);
}

// The stream's overload wait, end to end: a namenode that keeps shedding a
// stream's addBlock or complete() past its (shortened) overload_retry_budget
// fails the upload cleanly with the typed rejection instead of re-polling
// forever. Pins the first job failed by each of the two waits: its reason
// and finish time.
TEST(OverloadIntegration, ShedPastTheOverloadBudgetFailsTheUpload) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = overload_spec();
  spec.hdfs.nn_cost_add_block = milliseconds(400);
  spec.hdfs.nn_cost_meta = milliseconds(1);
  spec.hdfs.nn_queue_capacity = 4;
  spec.hdfs.nn_client_addblock_cap = 1;
  spec.hdfs.overload_retry_budget = seconds(2);
  Cluster cluster(spec);
  workload::OpenLoopWorkload wl(Protocol::kSmarth, small_open_loop());
  const workload::OpenLoopResult result = wl.run(cluster);
  EXPECT_EQ(result.stuck, 0);
  ASSERT_EQ(result.failures.size(), static_cast<std::size_t>(result.failed));
  const auto first_failed_by = [&result](const std::string& reason) {
    const auto it = std::find_if(
        result.failures.begin(), result.failures.end(),
        [&reason](const hdfs::StreamStats& s) {
          return s.failure_reason == reason;
        });
    return it == result.failures.end() ? SimTime{-1} : it->finished_at;
  };
  EXPECT_EQ(first_failed_by(
                "addBlock failed: overloaded: namenode shed addBlock"),
            SimTime{6'821'115'005});
  EXPECT_EQ(first_failed_by("overloaded: namenode shed complete"),
            SimTime{6'889'714'189});
  // A shed create() fails without a stream and still carries when its
  // upload started and when it failed. The late arrivals /openloop/f90-f99
  // that are shed fail past the 20 s window.
  int late_shed_creates = 0;
  for (const hdfs::StreamStats& s : result.failures) {
    if (s.failure_reason.rfind("create failed", 0) != 0) continue;
    EXPECT_GT(s.started_at, 0) << s.failure_reason;
    EXPECT_GE(s.finished_at, s.started_at) << s.failure_reason;
    if (s.failure_reason.find("/openloop/f9") != std::string::npos &&
        s.failure_reason.find("/openloop/f9)") == std::string::npos) {
      ++late_shed_creates;
      EXPECT_GT(s.finished_at, seconds(20)) << s.failure_reason;
    }
  }
  EXPECT_EQ(late_shed_creates, 8);
}

struct OverloadRunDigest {
  int jobs = 0;
  int completed = 0;
  int failed = 0;
  int stuck = 0;
  Bytes bytes_completed = 0;
  std::vector<double> latencies_s;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t events = 0;

  bool operator==(const OverloadRunDigest& o) const {
    return jobs == o.jobs && completed == o.completed && failed == o.failed &&
           stuck == o.stuck && bytes_completed == o.bytes_completed &&
           latencies_s == o.latencies_s && admitted == o.admitted &&
           shed == o.shed && events == o.events;
  }
};

OverloadRunDigest run_digest(Protocol protocol, hdfs::DataFidelity fidelity,
                             std::uint64_t seed) {
  metrics::global_registry().reset();
  cluster::ClusterSpec spec = overload_spec(seed);
  spec.hdfs.fidelity = fidelity;
  spec.hdfs.nn_cost_add_block = milliseconds(25);
  spec.hdfs.nn_queue_capacity = 8;
  Cluster cluster(spec);
  workload::OpenLoopConfig cfg = small_open_loop();
  cfg.clients = 4;
  cfg.arrival_rate = 4.0;
  cfg.duration = seconds(10);
  workload::OpenLoopWorkload wl(protocol, cfg);
  const workload::OpenLoopResult r = wl.run(cluster);
  OverloadRunDigest d;
  d.jobs = r.jobs;
  d.completed = r.completed;
  d.failed = r.failed;
  d.stuck = r.stuck;
  d.bytes_completed = r.bytes_completed;
  d.latencies_s = r.latencies_s;
  d.admitted = cluster.nn_service_queue()->counters().admitted;
  d.shed = cluster.nn_service_queue()->counters().shed_total;
  d.events = cluster.sim().events_executed();
  return d;
}

// Determinism: same seed, same world — bit-identical outcomes including the
// exact admitted/shed counts and event totals, for both protocols in both
// fidelity modes. The open-loop generator draws from its own salted RNG
// stream, so nothing here depends on run-to-run state.
TEST(OverloadIntegration, SameSeedRunsAreIdenticalAcrossProtocolAndFidelity) {
  const Protocol protocols[] = {Protocol::kHdfs, Protocol::kSmarth};
  const hdfs::DataFidelity fidelities[] = {hdfs::DataFidelity::kPacket,
                                           hdfs::DataFidelity::kBlock};
  for (const Protocol protocol : protocols) {
    for (const hdfs::DataFidelity fidelity : fidelities) {
      const OverloadRunDigest first = run_digest(protocol, fidelity, 1234);
      const OverloadRunDigest second = run_digest(protocol, fidelity, 1234);
      EXPECT_TRUE(first == second)
          << "divergent rerun (protocol="
          << cluster::protocol_name(protocol) << ", fidelity="
          << (fidelity == hdfs::DataFidelity::kBlock ? "block" : "packet")
          << ")";
      EXPECT_GT(first.jobs, 0);
      EXPECT_EQ(first.stuck, 0);
    }
  }
}

// Changing only the workload seed changes the arrival schedule — guards
// against the generator accidentally reading a fixed stream.
TEST(OverloadIntegration, DifferentSeedsProduceDifferentSchedules) {
  const OverloadRunDigest a =
      run_digest(Protocol::kSmarth, hdfs::DataFidelity::kBlock, 1);
  const OverloadRunDigest b =
      run_digest(Protocol::kSmarth, hdfs::DataFidelity::kBlock, 2);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace smarth
