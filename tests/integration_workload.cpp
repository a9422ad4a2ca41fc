// Workload-level integration: multi-file and multi-client uploads started
// from events on one cluster, plus fault plans applied declaratively.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "workload/fault_plan.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;
using Outcome = std::optional<hdfs::StreamStats>;

cluster::ClusterSpec small_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  return spec;
}

/// Starts uploading `size` bytes to `path` from client `client` at `at`;
/// its stats land in `outcome` when it finishes.
void upload_at(Cluster& cluster, SimTime at, const std::string& path,
               Bytes size, Protocol protocol, Outcome& outcome,
               std::size_t client = 0) {
  cluster.sim().schedule_at(
      at, "test.upload_start",
      [&cluster, path, size, protocol, &outcome, client] {
        cluster.upload(
            path, size, protocol,
            [&outcome](const hdfs::StreamStats& s) { outcome = s; }, client);
      });
}

/// Runs until every upload in `outcomes` has reported.
bool run_until_reported(Cluster& cluster,
                        const std::vector<const Outcome*>& outcomes) {
  return cluster.sim().run_until_done(
      [&outcomes] {
        return std::all_of(outcomes.begin(), outcomes.end(),
                           [](const Outcome* o) { return o->has_value(); });
      },
      cluster.sim().now() + seconds(200'000));
}

TEST(Workload, SequentialJobsAllComplete) {
  Cluster cluster(small_spec());
  Outcome a;
  Outcome b;
  upload_at(cluster, 0, "/a", 8 * kMiB, Protocol::kSmarth, a);
  upload_at(cluster, seconds(5), "/b", 4 * kMiB, Protocol::kSmarth, b);
  ASSERT_TRUE(run_until_reported(cluster, {&a, &b}));
  EXPECT_FALSE(a->failed);
  EXPECT_FALSE(b->failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_TRUE(cluster.file_fully_replicated("/a"));
  EXPECT_TRUE(cluster.file_fully_replicated("/b"));
}

TEST(Workload, ConcurrentJobsOnOneClient) {
  Cluster cluster(small_spec());
  Outcome a;
  Outcome b;
  upload_at(cluster, 0, "/a", 8 * kMiB, Protocol::kHdfs, a);
  upload_at(cluster, 0, "/b", 8 * kMiB, Protocol::kHdfs, b);
  ASSERT_TRUE(run_until_reported(cluster, {&a, &b}));
  EXPECT_FALSE(a->failed);
  EXPECT_FALSE(b->failed);
  // Two concurrent streams share the client's NIC, so each upload is slower
  // than it would be alone.
  Cluster solo(small_spec());
  const auto alone = solo.run_upload("/a", 8 * kMiB, Protocol::kHdfs);
  EXPECT_GT(a->elapsed(), alone.elapsed());
}

TEST(Workload, MultiClientUploads) {
  Cluster cluster(small_spec());
  const std::size_t second =
      cluster.add_client("/rack1", cluster::small_instance());
  Outcome a;
  Outcome b;
  upload_at(cluster, 0, "/a", 8 * kMiB, Protocol::kSmarth, a);
  upload_at(cluster, 0, "/b", 8 * kMiB, Protocol::kSmarth, b, second);
  ASSERT_TRUE(run_until_reported(cluster, {&a, &b}));
  EXPECT_FALSE(a->failed);
  EXPECT_FALSE(b->failed);
  // Each client tracked its own speeds.
  EXPECT_TRUE(cluster.speed_tracker(0).has_records());
  EXPECT_TRUE(cluster.speed_tracker(second).has_records());
}

TEST(Workload, StaggeredStartRespectsStartTime) {
  Cluster cluster(small_spec());
  Outcome late;
  upload_at(cluster, seconds(30), "/late", 4 * kMiB, Protocol::kHdfs, late);
  ASSERT_TRUE(run_until_reported(cluster, {&late}));
  EXPECT_GE(late->started_at, seconds(30));
}

TEST(Workload, FaultPlanBuilders) {
  workload::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.crash(1, seconds(2)).corrupt(3, 100);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.corruptions.size(), 1u);
}

TEST(Workload, FaultPlanAppliesToCluster) {
  Cluster cluster(small_spec());
  faults::FaultInjector injector(cluster);
  workload::FaultPlan plan;
  plan.crash(2, seconds(3));
  plan.apply(injector);
  EXPECT_FALSE(cluster.datanode(2).crashed());
  cluster.sim().run_until(seconds(4));
  EXPECT_TRUE(cluster.datanode(2).crashed());
}

}  // namespace
}  // namespace smarth
