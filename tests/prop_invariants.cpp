// Property-based invariant sweeps (parameterized gtest): across protocols,
// file sizes, throttle levels and seeds, every upload must conserve bytes,
// respect the pipeline-concurrency cap and staging bound, and be
// deterministic for a fixed seed.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "harness/experiment.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

struct Params {
  Protocol protocol;
  Bytes file_size;
  double throttle_mbps;  // 0 = none
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  std::string name = p.protocol == Protocol::kHdfs ? "hdfs" : "smarth";
  name += '_';
  name += std::to_string(p.file_size / kMiB);
  name += "mib_t";
  name += std::to_string(static_cast<int>(p.throttle_mbps));
  name += "_s";
  name += std::to_string(p.seed);
  return name;
}

class UploadInvariants : public ::testing::TestWithParam<Params> {
 protected:
  static cluster::ClusterSpec make_spec(std::uint64_t seed) {
    cluster::ClusterSpec spec = cluster::small_cluster(seed);
    spec.hdfs.block_size = 4 * kMiB;
    return spec;
  }

  static void apply_throttle(Cluster& cluster, double mbps) {
    if (mbps > 0) cluster.throttle_cross_rack(Bandwidth::mbps(mbps));
  }
};

TEST_P(UploadInvariants, BytesConservedAndBounded) {
  const Params& p = GetParam();
  Cluster cluster(make_spec(p.seed));
  apply_throttle(cluster, p.throttle_mbps);
  const auto stats = cluster.run_upload("/f", p.file_size, p.protocol);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;

  // Time accounting is sane.
  EXPECT_GT(stats.elapsed(), 0);
  EXPECT_EQ(stats.file_size, p.file_size);
  const std::int64_t expected_blocks = (p.file_size + 4 * kMiB - 1) / (4 * kMiB);
  EXPECT_EQ(stats.blocks, expected_blocks);

  // Let trailing ACK/report traffic drain, then check byte conservation:
  // every block ends with `replication` finalized replicas.
  cluster.sim().run_until(cluster.sim().now() + seconds(3));
  EXPECT_TRUE(cluster.file_fully_replicated("/f"));
  EXPECT_EQ(cluster.total_finalized_replica_bytes(), 3 * p.file_size);

  // Concurrency caps: baseline is strictly sequential; SMARTH is bounded by
  // |datanodes| / replication.
  if (p.protocol == Protocol::kHdfs) {
    EXPECT_EQ(stats.max_concurrent_pipelines, 1);
  } else {
    EXPECT_LE(stats.max_concurrent_pipelines, 3);
  }

  // Buffer-overflow guard (paper §IV-C): staging never exceeds one block
  // per client, and no overflow events fire.
  const ClientId client = cluster.client().id();
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    EXPECT_EQ(cluster.datanode(i).staging_overflows(client), 0u);
    EXPECT_LE(cluster.datanode(i).staging_high_water(client),
              cluster.config().staging_buffer_bytes);
    // All staging returned.
    EXPECT_EQ(cluster.datanode(i).staging_used(client), 0);
  }

  // The namenode closed the file.
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, hdfs::FileState::kClosed);
}

TEST_P(UploadInvariants, DeterministicReplay) {
  const Params& p = GetParam();
  SimDuration elapsed[2];
  std::uint64_t events[2];
  for (int run = 0; run < 2; ++run) {
    Cluster cluster(make_spec(p.seed));
    apply_throttle(cluster, p.throttle_mbps);
    const auto stats = cluster.run_upload("/f", p.file_size, p.protocol);
    ASSERT_FALSE(stats.failed);
    elapsed[run] = stats.elapsed();
    events[run] = cluster.sim().events_executed();
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
  EXPECT_EQ(events[0], events[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UploadInvariants,
    ::testing::Values(
        Params{Protocol::kHdfs, 4 * kMiB, 0, 1},
        Params{Protocol::kHdfs, 12 * kMiB, 0, 2},
        Params{Protocol::kHdfs, 12 * kMiB, 20, 3},
        Params{Protocol::kHdfs, 5 * kMiB + 100, 40, 4},
        Params{Protocol::kSmarth, 4 * kMiB, 0, 5},
        Params{Protocol::kSmarth, 12 * kMiB, 0, 6},
        Params{Protocol::kSmarth, 12 * kMiB, 20, 7},
        Params{Protocol::kSmarth, 24 * kMiB, 10, 8},
        Params{Protocol::kSmarth, 5 * kMiB + 100, 40, 9},
        Params{Protocol::kSmarth, 16 * kMiB, 50, 10}),
    param_name);

// SMARTH must never lose to the baseline by more than noise, and must win
// clearly when the cross-rack hop is the bottleneck.
class ProtocolOrdering
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ProtocolOrdering, SmarthAtLeastCompetitive) {
  const double throttle = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 8 * kMiB;
  double secs[2];
  for (int p = 0; p < 2; ++p) {
    Cluster cluster(spec);
    if (throttle > 0) cluster.throttle_cross_rack(Bandwidth::mbps(throttle));
    // Pre-warm speed records: a 32 MiB test file is too short for the
    // optimizers' natural warm-up, which an 8 GB paper run amortizes.
    harness::warm_speed_records(cluster);
    const auto stats = cluster.run_upload(
        "/f", 32 * kMiB, p ? Protocol::kSmarth : Protocol::kHdfs);
    ASSERT_FALSE(stats.failed);
    secs[p] = to_seconds(stats.elapsed());
  }
  // Never slower than baseline by more than 10%.
  EXPECT_LT(secs[1], secs[0] * 1.10)
      << "throttle=" << throttle << " seed=" << seed;
  if (throttle > 0 && throttle <= 50) {
    // Clearly faster when replication is badly bottlenecked.
    EXPECT_LT(secs[1], secs[0] * 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThrottleSeeds, ProtocolOrdering,
    ::testing::Combine(::testing::Values(0.0, 30.0, 50.0, 100.0),
                       ::testing::Values(11ull, 12ull, 13ull)));

}  // namespace
}  // namespace smarth
