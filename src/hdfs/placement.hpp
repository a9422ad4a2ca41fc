// Replica placement policies. The default policy reproduces HDFS's
// rack-aware rule (first replica local-or-random, second on a remote rack,
// third beside the second); SMARTH's global optimization (paper Alg. 1) is a
// drop-in PlacementPolicy implemented in src/smarth/global_optimizer.*.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"

namespace smarth::hdfs {

class SpeedBoard;  // defined in namenode.hpp

/// The alive datanodes, in registration order, indexed so a placement draw
/// costs as much as its excluded/chosen/suspect lists, not the cluster size:
/// each node's position in that order, and the ascending positions on each
/// rack. The namenode keeps one and rebuilds it only when liveness may have
/// changed.
class AliveIndex {
 public:
  AliveIndex() = default;
  AliveIndex(const net::Topology& topology, const std::vector<NodeId>& alive) {
    assign(topology, alive);
  }

  /// Re-indexes `alive` (distinct nodes, registration order), reusing the
  /// buffers of the previous contents.
  void assign(const net::Topology& topology, const std::vector<NodeId>& alive);

  const std::vector<NodeId>& nodes() const { return nodes_; }
  std::size_t size() const { return nodes_.size(); }
  /// Position of `node` in nodes(), or -1 when it is not alive.
  std::int32_t position(NodeId node) const {
    if (!node.valid()) return -1;
    const auto v = static_cast<std::size_t>(node.value());
    return v < position_.size() ? position_[v] : -1;
  }
  bool contains(NodeId node) const { return position(node) >= 0; }
  /// Ascending positions of the alive nodes on `rack` (a Topology rack
  /// index); empty for a rack with none.
  const std::vector<std::int32_t>& rack_positions(std::int32_t rack) const;

 private:
  std::vector<NodeId> nodes_;
  std::vector<std::int32_t> position_;  // by NodeId value; -1 = not alive
  std::vector<std::vector<std::int32_t>> rack_positions_;  // by rack index
};

/// Everything a policy may consult when choosing targets.
struct PlacementContext {
  const net::Topology& topology;
  /// Datanodes currently alive (heartbeating), in registration order.
  const AliveIndex& alive;
  Rng& rng;
  /// Per-client speed records (SMARTH); nullptr under the default policy.
  const SpeedBoard* speeds = nullptr;
  /// Soft exclusion (client quarantine): these nodes are only chosen when no
  /// other candidate exists, so a degraded cluster keeps making progress.
  const std::vector<NodeId>* deprioritized = nullptr;
  /// Graded slowness demotion (namenode suspicion list): suspects rank below
  /// clean nodes but above the deprioritized tier — slow beats broken.
  const std::vector<NodeId>* suspects = nullptr;
};

struct PlacementRequest {
  ClientId client;
  NodeId client_node;
  int replication = 3;
  /// Nodes the client cannot use (active-pipeline members, failed nodes).
  std::vector<NodeId> excluded;
  /// Nodes the client would rather avoid (quarantined after failures); used
  /// as a last resort only.
  std::vector<NodeId> deprioritized;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  /// Returns `replication` distinct targets in pipeline order, or fewer if
  /// the cluster cannot satisfy the request.
  virtual std::vector<NodeId> choose_targets(const PlacementRequest& request,
                                             const PlacementContext& ctx) = 0;
  virtual const char* name() const = 0;
};

/// HDFS's default rack-aware policy.
class DefaultPlacementPolicy : public PlacementPolicy {
 public:
  std::vector<NodeId> choose_targets(const PlacementRequest& request,
                                     const PlacementContext& ctx) override;
  const char* name() const override { return "hdfs-default"; }
};

// --- Helpers shared with the SMARTH policy ----------------------------------

/// True if `node` is in `chosen` or `excluded`.
bool placement_unusable(NodeId node, const std::vector<NodeId>& chosen,
                        const std::vector<NodeId>& excluded);

/// True if `list` is non-null and holds `node`.
bool listed(const std::vector<NodeId>* list, NodeId node);

/// Which racks a random pick may draw from, relative to one node.
struct RackFilter {
  enum class Kind { kAny, kSameAs, kOtherThan };
  Kind kind = Kind::kAny;
  NodeId node;  ///< reference node for kSameAs / kOtherThan

  static RackFilter any() { return {}; }
  static RackFilter same_as(NodeId n) { return {Kind::kSameAs, n}; }
  static RackFilter other_than(NodeId n) { return {Kind::kOtherThan, n}; }
};

/// Uniformly random usable alive node on the racks `filter` admits; returns
/// an invalid id when no candidate exists. Clean nodes first, then suspects,
/// then deprioritized nodes; one `rng.index(tier size)` draw over the tier in
/// alive order.
NodeId pick_random_node(const PlacementContext& ctx,
                        const std::vector<NodeId>& chosen,
                        const std::vector<NodeId>& excluded,
                        RackFilter filter = RackFilter::any());

/// Remote-rack pick with graceful fallback to any usable node (single-rack
/// clusters must still be writable, as in HDFS).
NodeId pick_remote_rack_node(const PlacementContext& ctx, NodeId relative_to,
                             const std::vector<NodeId>& chosen,
                             const std::vector<NodeId>& excluded);

/// Same-rack pick with the same fallback.
NodeId pick_same_rack_node(const PlacementContext& ctx, NodeId relative_to,
                           const std::vector<NodeId>& chosen,
                           const std::vector<NodeId>& excluded);

}  // namespace smarth::hdfs
