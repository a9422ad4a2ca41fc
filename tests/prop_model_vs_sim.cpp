// Property suite: the paper's analytic cost model (Formulas 1-3) must
// bracket the simulator. The serial formulas add per-packet stage costs and
// are therefore upper-bound-ish; the pipelined variants take the max stage
// cost and are lower bounds; SMARTH additionally saturates at the aggregate
// pipeline drain rate (n concurrent pipelines over the throttled hop).
// Speed records are pre-warmed so the runs measure steady state, which is
// what the closed-form model describes.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "harness/experiment.hpp"
#include "model/cost_model.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

struct Case {
  double throttle_mbps;  // cross-rack throttle; 0 = none
  Bytes file_size;
};

class ModelVsSim : public ::testing::TestWithParam<Case> {
 protected:
  static cluster::ClusterSpec make_spec() {
    cluster::ClusterSpec spec = cluster::small_cluster(42);
    spec.hdfs.block_size = 16 * kMiB;  // paper geometry, scaled for test speed
    return spec;
  }

  double run_seconds(const Case& c, Protocol protocol) {
    Cluster cluster(make_spec());
    if (c.throttle_mbps > 0) {
      cluster.throttle_cross_rack(Bandwidth::mbps(c.throttle_mbps));
    }
    harness::warm_speed_records(cluster);
    const auto stats = cluster.run_upload("/f", c.file_size, protocol);
    EXPECT_FALSE(stats.failed) << stats.failure_reason;
    return to_seconds(stats.elapsed());
  }
};

TEST_P(ModelVsSim, HdfsBracketedByModel) {
  const Case& c = GetParam();
  const cluster::ClusterSpec spec = make_spec();
  const model::CostParams params =
      harness::paper_cost_params(spec, c.throttle_mbps, c.file_size);
  const double serial = to_seconds(model::predict_hdfs_time(params));
  const double pipelined =
      to_seconds(model::predict_hdfs_time_pipelined(params));
  const double simulated = run_seconds(c, Protocol::kHdfs);
  EXPECT_GT(simulated, pipelined * 0.90)
      << "serial " << serial << " pipelined " << pipelined;
  EXPECT_LT(simulated, serial * 1.25)
      << "serial " << serial << " pipelined " << pipelined;
}

TEST_P(ModelVsSim, SmarthBracketedByModelPlusDrain) {
  const Case& c = GetParam();
  const cluster::ClusterSpec spec = make_spec();
  const model::CostParams params =
      harness::paper_cost_params(spec, c.throttle_mbps, c.file_size);
  const double serial = to_seconds(model::predict_smarth_time(params));
  const double pipelined =
      to_seconds(model::predict_smarth_time_pipelined(params));
  const double drain =
      harness::replica_drain_seconds(spec, c.throttle_mbps, c.file_size);
  const double simulated = run_seconds(c, Protocol::kSmarth);
  EXPECT_GT(simulated, pipelined * 0.90)
      << "pipelined " << pipelined << " drain " << drain;
  // Upper envelope: the larger of the paper's Formula-3 regime and the
  // aggregate drain bound, plus tolerance for block-boundary effects.
  const double upper = std::max(serial, drain);
  EXPECT_LT(simulated, upper * 1.35)
      << "serial " << serial << " drain " << drain;
}

TEST_P(ModelVsSim, ModelOrderingMatchesSim) {
  // Whenever the serial model says SMARTH wins by >20%, the simulator must
  // agree on the direction.
  const Case& c = GetParam();
  const cluster::ClusterSpec spec = make_spec();
  const model::CostParams params =
      harness::paper_cost_params(spec, c.throttle_mbps, c.file_size);
  const SimDuration m_hdfs = model::predict_hdfs_time(params);
  const SimDuration m_smarth = model::predict_smarth_time(params);
  const double hdfs_secs = run_seconds(c, Protocol::kHdfs);
  const double smarth_secs = run_seconds(c, Protocol::kSmarth);
  if (static_cast<double>(m_hdfs) > 1.2 * static_cast<double>(m_smarth)) {
    EXPECT_GT(hdfs_secs, smarth_secs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelVsSim,
    ::testing::Values(Case{0, 64 * kMiB}, Case{100, 64 * kMiB},
                      Case{50, 64 * kMiB}, Case{50, 128 * kMiB},
                      Case{20, 64 * kMiB}, Case{150, 96 * kMiB}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      std::string name = "t";
      name += std::to_string(static_cast<int>(param_info.param.throttle_mbps));
      name += '_';
      name += std::to_string(param_info.param.file_size / kMiB);
      name += "mib";
      return name;
    });

}  // namespace
}  // namespace smarth
