// Workload-level integration: multi-file and multi-client uploads through
// the UploadWorkload scheduler, plus fault plans applied declaratively.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "faults/fault_injector.hpp"
#include "workload/fault_plan.hpp"
#include "workload/upload_workload.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;
using workload::UploadWorkload;

cluster::ClusterSpec small_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  return spec;
}

TEST(Workload, SequentialJobsAllComplete) {
  Cluster cluster(small_spec());
  UploadWorkload workload(Protocol::kSmarth);
  workload.add("/a", 8 * kMiB, 0).add("/b", 4 * kMiB, seconds(5));
  const auto results = workload.run(cluster);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[1].failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_TRUE(cluster.file_fully_replicated("/a"));
  EXPECT_TRUE(cluster.file_fully_replicated("/b"));
}

TEST(Workload, ConcurrentJobsOnOneClient) {
  Cluster cluster(small_spec());
  UploadWorkload workload(Protocol::kHdfs);
  workload.add("/a", 8 * kMiB, 0).add("/b", 8 * kMiB, 0);
  const auto results = workload.run(cluster);
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[1].failed);
  // Two concurrent streams share the client's NIC, so each upload is slower
  // than it would be alone.
  Cluster solo(small_spec());
  const auto alone = solo.run_upload("/a", 8 * kMiB, Protocol::kHdfs);
  EXPECT_GT(results[0].elapsed(), alone.elapsed());
}

TEST(Workload, MultiClientUploads) {
  Cluster cluster(small_spec());
  const std::size_t second =
      cluster.add_client("/rack1", cluster::small_instance());
  UploadWorkload workload(Protocol::kSmarth);
  workload.add(workload::UploadJob{"/a", 8 * kMiB, 0, 0});
  workload.add(workload::UploadJob{"/b", 8 * kMiB, 0, second});
  const auto results = workload.run(cluster);
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[1].failed);
  // Each client tracked its own speeds.
  EXPECT_TRUE(cluster.speed_tracker(0).has_records());
  EXPECT_TRUE(cluster.speed_tracker(second).has_records());
}

TEST(Workload, StaggeredStartRespectsStartTime) {
  Cluster cluster(small_spec());
  UploadWorkload workload(Protocol::kHdfs);
  workload.add("/late", 4 * kMiB, seconds(30));
  const auto results = workload.run(cluster);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GE(results[0].started_at, seconds(30));
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

TEST(Workload, RejectsInvalidJobs) {
  UploadWorkload workload(Protocol::kHdfs);
  EXPECT_THROW(workload.add("", 4 * kMiB), std::logic_error);
  EXPECT_THROW(workload.add("/x", 0), std::logic_error);
  Cluster cluster(small_spec());
  EXPECT_THROW(workload.run(cluster), std::logic_error);  // no jobs
}

}  // namespace
}  // namespace smarth
