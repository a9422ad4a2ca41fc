#include "hdfs/placement.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace smarth::hdfs {

bool placement_unusable(NodeId node, const std::vector<NodeId>& chosen,
                        const std::vector<NodeId>& excluded) {
  return std::find(chosen.begin(), chosen.end(), node) != chosen.end() ||
         std::find(excluded.begin(), excluded.end(), node) != excluded.end();
}

void AliveIndex::assign(const net::Topology& topology,
                        const std::vector<NodeId>& alive) {
  nodes_ = alive;
  std::int64_t max_id = -1;
  for (NodeId node : nodes_) max_id = std::max(max_id, node.value());
  position_.assign(static_cast<std::size_t>(max_id + 1), -1);
  rack_positions_.resize(topology.rack_count());
  for (auto& positions : rack_positions_) positions.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto pos = static_cast<std::int32_t>(i);
    std::int32_t& slot = position_[static_cast<std::size_t>(nodes_[i].value())];
    SMARTH_CHECK_MSG(slot < 0, "node " << nodes_[i].value() << " listed twice");
    slot = pos;
    rack_positions_[static_cast<std::size_t>(topology.rack_index(nodes_[i]))]
        .push_back(pos);
  }
}

const std::vector<std::int32_t>& AliveIndex::rack_positions(
    std::int32_t rack) const {
  static const std::vector<std::int32_t> kNone;
  const auto r = static_cast<std::size_t>(rack);
  return rack >= 0 && r < rack_positions_.size() ? rack_positions_[r] : kNone;
}

bool listed(const std::vector<NodeId>* list, NodeId node) {
  return list != nullptr &&
         std::find(list->begin(), list->end(), node) != list->end();
}

namespace {

/// The alive positions a rack filter admits, addressed by rank: the k-th
/// admitted position in alive order has rank k.
class RackUniverse {
 public:
  RackUniverse(const PlacementContext& ctx, RackFilter filter)
      : kind_(filter.kind), alive_(ctx.alive.size()) {
    if (kind_ != RackFilter::Kind::kAny) {
      rack_ = &ctx.alive.rack_positions(ctx.topology.rack_index(filter.node));
    }
  }

  std::size_t size() const {
    switch (kind_) {
      case RackFilter::Kind::kAny: return alive_;
      case RackFilter::Kind::kSameAs: return rack_->size();
      case RackFilter::Kind::kOtherThan: return alive_ - rack_->size();
    }
    return 0;
  }

  /// Rank of alive position `pos`, or -1 when the filter rejects it.
  std::int32_t rank(std::int32_t pos) const {
    if (kind_ == RackFilter::Kind::kAny) return pos;
    const auto it = std::lower_bound(rack_->begin(), rack_->end(), pos);
    const bool on_rack = it != rack_->end() && *it == pos;
    const auto below = static_cast<std::int32_t>(it - rack_->begin());
    if (kind_ == RackFilter::Kind::kSameAs) return on_rack ? below : -1;
    return on_rack ? -1 : pos - below;
  }

  /// Alive position of rank `rank`.
  std::int32_t select(std::int32_t rank) const {
    switch (kind_) {
      case RackFilter::Kind::kAny: return rank;
      case RackFilter::Kind::kSameAs:
        return (*rack_)[static_cast<std::size_t>(rank)];
      case RackFilter::Kind::kOtherThan: {
        // The rank-th position off the rack is rank + (rack positions below
        // it); rack[j] - j is non-decreasing, so count the j with
        // rack[j] - j <= rank by bisection.
        std::size_t lo = 0;
        std::size_t hi = rack_->size();
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if ((*rack_)[mid] - static_cast<std::int32_t>(mid) <= rank) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        return rank + static_cast<std::int32_t>(lo);
      }
    }
    return -1;
  }

 private:
  RackFilter::Kind kind_;
  std::size_t alive_;
  const std::vector<std::int32_t>* rack_ = nullptr;
};

/// Draws from the alive-ordered members of `tier` the universe admits,
/// skipping unusable nodes and (for the suspect tier) deprioritized ones.
NodeId draw_from_tier(const PlacementContext& ctx, const RackUniverse& universe,
                      const std::vector<NodeId>& tier,
                      const std::vector<NodeId>& chosen,
                      const std::vector<NodeId>& excluded,
                      const std::vector<NodeId>* outranked_by) {
  std::vector<std::int32_t> positions;
  for (NodeId node : tier) {
    const std::int32_t pos = ctx.alive.position(node);
    if (pos < 0 || universe.rank(pos) < 0) continue;
    if (placement_unusable(node, chosen, excluded)) continue;
    if (listed(outranked_by, node)) continue;
    positions.push_back(pos);
  }
  if (positions.empty()) return NodeId{};
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  const std::size_t k = ctx.rng.index(positions.size());
  return ctx.alive.nodes()[static_cast<std::size_t>(positions[k])];
}

}  // namespace

NodeId pick_random_node(const PlacementContext& ctx,
                        const std::vector<NodeId>& chosen,
                        const std::vector<NodeId>& excluded,
                        RackFilter filter) {
  const RackUniverse universe(ctx, filter);
  // Ranks of every admitted node that is not a clean candidate.
  std::vector<std::int32_t> special;
  const auto mark = [&](const std::vector<NodeId>* list) {
    if (list == nullptr) return;
    for (NodeId node : *list) {
      const std::int32_t pos = ctx.alive.position(node);
      if (pos < 0) continue;
      const std::int32_t rank = universe.rank(pos);
      if (rank >= 0) special.push_back(rank);
    }
  };
  mark(&chosen);
  mark(&excluded);
  mark(ctx.deprioritized);
  mark(ctx.suspects);
  std::sort(special.begin(), special.end());
  special.erase(std::unique(special.begin(), special.end()), special.end());

  const std::size_t clean = universe.size() - special.size();
  if (clean > 0) {
    // The draw's k-th clean node: step over the special ranks at or below it.
    auto rank = static_cast<std::int32_t>(ctx.rng.index(clean));
    for (std::int32_t s : special) {
      if (s > rank) break;
      ++rank;
    }
    return ctx.alive.nodes()[static_cast<std::size_t>(universe.select(rank))];
  }
  if (ctx.suspects != nullptr) {
    const NodeId pick = draw_from_tier(ctx, universe, *ctx.suspects, chosen,
                                       excluded, ctx.deprioritized);
    if (pick.valid()) return pick;
  }
  if (ctx.deprioritized != nullptr) {
    return draw_from_tier(ctx, universe, *ctx.deprioritized, chosen, excluded,
                          nullptr);
  }
  return NodeId{};
}

NodeId pick_remote_rack_node(const PlacementContext& ctx, NodeId relative_to,
                             const std::vector<NodeId>& chosen,
                             const std::vector<NodeId>& excluded) {
  NodeId pick = pick_random_node(ctx, chosen, excluded,
                                 RackFilter::other_than(relative_to));
  if (pick.valid()) return pick;
  // Single-rack (or exhausted remote rack) fallback: any usable node.
  return pick_random_node(ctx, chosen, excluded);
}

NodeId pick_same_rack_node(const PlacementContext& ctx, NodeId relative_to,
                           const std::vector<NodeId>& chosen,
                           const std::vector<NodeId>& excluded) {
  NodeId pick = pick_random_node(ctx, chosen, excluded,
                                 RackFilter::same_as(relative_to));
  if (pick.valid()) return pick;
  return pick_random_node(ctx, chosen, excluded);
}

std::vector<NodeId> DefaultPlacementPolicy::choose_targets(
    const PlacementRequest& request, const PlacementContext& ctx) {
  std::vector<NodeId> targets;
  targets.reserve(static_cast<std::size_t>(request.replication));

  // First replica: on the writer itself when the writer is a datanode,
  // otherwise a random not-excluded node.
  const bool client_is_datanode = ctx.alive.contains(request.client_node);
  const bool client_quarantined =
      listed(ctx.deprioritized, request.client_node);
  // A suspected-slow writer node loses its local-write privilege the same
  // way a quarantined one does; pick_random_node may still fall back to it.
  const bool client_suspect = listed(ctx.suspects, request.client_node);
  NodeId first;
  if (client_is_datanode && !client_quarantined && !client_suspect &&
      !placement_unusable(request.client_node, targets, request.excluded)) {
    first = request.client_node;
  } else {
    first = pick_random_node(ctx, targets, request.excluded);
  }
  if (!first.valid()) return targets;
  targets.push_back(first);

  while (static_cast<int>(targets.size()) < request.replication) {
    NodeId next;
    if (targets.size() == 1) {
      // Second replica: a different rack from the first.
      next = pick_remote_rack_node(ctx, targets[0], targets, request.excluded);
    } else if (targets.size() == 2) {
      // Third replica: same rack as the second, different node.
      next = pick_same_rack_node(ctx, targets[1], targets, request.excluded);
    } else {
      next = pick_random_node(ctx, targets, request.excluded);
    }
    if (!next.valid()) break;
    targets.push_back(next);
  }
  return targets;
}

}  // namespace smarth::hdfs
