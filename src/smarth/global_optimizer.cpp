#include "smarth/global_optimizer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "hdfs/namenode.hpp"

namespace smarth::core {

std::vector<NodeId> GlobalOptimizerPolicy::top_n_for_client(
    const hdfs::PlacementRequest& request, const hdfs::PlacementContext& ctx,
    std::size_t n) {
  SMARTH_CHECK(ctx.speeds != nullptr);
  struct Measured {
    double speed;
    std::int32_t pos;  // alive position: registration-order tie-break
  };
  std::vector<Measured> measured;
  if (const auto* records = ctx.speeds->records(request.client)) {
    measured.reserve(records->size());
    for (const auto& [node, record] : *records) {
      const std::int32_t pos = ctx.alive.position(node);
      if (pos >= 0) measured.push_back({record.speed.bits_per_second(), pos});
    }
  }
  // Measured nodes first (by speed, descending); unmeasured nodes keep their
  // registration order after them.
  std::sort(measured.begin(), measured.end(),
            [](const Measured& a, const Measured& b) {
              if (a.speed != b.speed) return a.speed > b.speed;
              return a.pos < b.pos;
            });
  std::vector<NodeId> top;
  top.reserve(std::min(n, ctx.alive.size()));
  const auto& nodes = ctx.alive.nodes();
  for (const Measured& m : measured) {
    if (top.size() >= n) return top;
    top.push_back(nodes[static_cast<std::size_t>(m.pos)]);
  }
  // Fill with unmeasured nodes in alive order, stepping over the measured
  // positions in ascending order.
  std::sort(measured.begin(), measured.end(),
            [](const Measured& a, const Measured& b) { return a.pos < b.pos; });
  auto next_measured = measured.begin();
  for (std::int32_t pos = 0;
       top.size() < n && static_cast<std::size_t>(pos) < nodes.size(); ++pos) {
    if (next_measured != measured.end() && next_measured->pos == pos) {
      ++next_measured;
      continue;
    }
    top.push_back(nodes[static_cast<std::size_t>(pos)]);
  }
  return top;
}

std::vector<NodeId> GlobalOptimizerPolicy::choose_targets(
    const hdfs::PlacementRequest& request, const hdfs::PlacementContext& ctx) {
  // Line 3: n = active datanodes / replication — the pipeline fan-out cap.
  const std::size_t repli = static_cast<std::size_t>(
      std::max(1, request.replication));
  const std::size_t n = std::max<std::size_t>(1, ctx.alive.size() / repli);

  // Line 4: without records for this client, fall back to stock HDFS.
  if (ctx.speeds == nullptr || !ctx.speeds->has_records(request.client)) {
    ++fallback_;
    return fallback_policy_.choose_targets(request, ctx);
  }
  ++optimized_;

  std::vector<NodeId> targets;
  targets.reserve(repli);

  // Lines 5, 9-10: first datanode — random draw from the client's top n.
  std::vector<NodeId> top = top_n_for_client(request, ctx, n);
  std::vector<NodeId> usable_top;
  std::vector<NodeId> suspect_top;
  std::vector<NodeId> quarantined_top;
  for (NodeId node : top) {
    if (hdfs::placement_unusable(node, targets, request.excluded)) continue;
    if (hdfs::listed(ctx.deprioritized, node)) {
      quarantined_top.push_back(node);  // last resort: fast but suspect
      continue;
    }
    if (hdfs::listed(ctx.suspects, node)) {
      // Suspicion outranks a stale speed record: the board still remembers
      // the node's healthy throughput, but eviction/hedge evidence says it
      // has gone gray since. Use it only when no clean top node remains.
      suspect_top.push_back(node);
      continue;
    }
    usable_top.push_back(node);
  }
  if (usable_top.empty()) usable_top = std::move(suspect_top);
  if (usable_top.empty()) usable_top = std::move(quarantined_top);
  NodeId first;
  if (!usable_top.empty()) {
    first = usable_top[ctx.rng.index(usable_top.size())];
  } else {
    // Every top node is excluded (all in active pipelines): any usable node.
    first = hdfs::pick_random_node(ctx, targets, request.excluded);
  }
  if (!first.valid()) return targets;
  targets.push_back(first);

  // Lines 11-16: rack-aware replicas, then random extras.
  while (targets.size() < repli) {
    NodeId next;
    if (targets.size() == 1) {
      next = hdfs::pick_remote_rack_node(ctx, targets[0], targets,
                                         request.excluded);
    } else if (targets.size() == 2) {
      next = hdfs::pick_same_rack_node(ctx, targets[1], targets,
                                       request.excluded);
    } else {
      next = hdfs::pick_random_node(ctx, targets, request.excluded);
    }
    if (!next.valid()) break;
    targets.push_back(next);
  }
  return targets;
}

}  // namespace smarth::core
