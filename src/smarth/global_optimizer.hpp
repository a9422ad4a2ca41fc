// Paper Algorithm 1 — the SMARTH namenode's global optimization. Installed
// on the namenode as its PlacementPolicy. With speed records for the
// requesting client it draws the pipeline's first datanode at random from the
// client's top-n fastest datanodes (n = active datanodes / replication, the
// maximum pipeline fan-out), keeps the rack-aware rule for replicas 2 and 3,
// and falls back to the stock HDFS policy for clients it knows nothing about.
#pragma once

#include <vector>

#include "hdfs/placement.hpp"

namespace smarth::core {

class GlobalOptimizerPolicy : public hdfs::PlacementPolicy {
 public:
  std::vector<NodeId> choose_targets(const hdfs::PlacementRequest& request,
                                     const hdfs::PlacementContext& ctx)
      override;
  const char* name() const override { return "smarth-global"; }

  /// Top-n selection used by choose_targets; exposed for tests. Measured
  /// alive datanodes sort by speed descending, ties in registration order;
  /// if fewer than n are measured the remainder is filled with unmeasured
  /// alive nodes in registration order (so a cold cluster is still fully
  /// explorable).
  static std::vector<NodeId> top_n_for_client(
      const hdfs::PlacementRequest& request, const hdfs::PlacementContext& ctx,
      std::size_t n);

  std::uint64_t optimized_placements() const { return optimized_; }
  std::uint64_t fallback_placements() const { return fallback_; }

 private:
  hdfs::DefaultPlacementPolicy fallback_policy_;
  std::uint64_t optimized_ = 0;
  std::uint64_t fallback_ = 0;
};

}  // namespace smarth::core
