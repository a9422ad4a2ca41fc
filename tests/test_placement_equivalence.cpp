// Differential test for placement over the alive index. The reference below
// is the linear implementation the index replaced: every draw filtered the
// whole alive list, and SMARTH's top n was a stable sort over every alive
// node. On seeded random clusters (1-4 racks, alive subsets in a shuffled
// registration order) and overlapping chosen / excluded / deprioritized /
// suspect lists that name dead, non-datanode, invalid and duplicate nodes,
// the indexed picks must equal the reference's, and both generators must be
// left in the same state, so every later draw of a run stays identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/placement.hpp"
#include "net/topology.hpp"
#include "smarth/global_optimizer.hpp"

namespace smarth {
namespace {

// --- Reference: the linear implementation -----------------------------------

namespace ref {

struct Context {
  const net::Topology& topology;
  const std::vector<NodeId>& alive;
  Rng& rng;
  const hdfs::SpeedBoard* speeds = nullptr;
  const std::vector<NodeId>* deprioritized = nullptr;
  const std::vector<NodeId>* suspects = nullptr;
};

bool placement_unusable(NodeId node, const std::vector<NodeId>& chosen,
                        const std::vector<NodeId>& excluded) {
  return std::find(chosen.begin(), chosen.end(), node) != chosen.end() ||
         std::find(excluded.begin(), excluded.end(), node) != excluded.end();
}

NodeId pick_random_node(const Context& ctx, const std::vector<NodeId>& chosen,
                        const std::vector<NodeId>& excluded,
                        const std::function<bool(NodeId)>& rack_ok) {
  std::vector<NodeId> candidates;
  std::vector<NodeId> demoted;
  std::vector<NodeId> last_resort;
  for (NodeId node : ctx.alive) {
    if (placement_unusable(node, chosen, excluded)) continue;
    if (rack_ok && !rack_ok(node)) continue;
    if (ctx.deprioritized != nullptr &&
        std::find(ctx.deprioritized->begin(), ctx.deprioritized->end(),
                  node) != ctx.deprioritized->end()) {
      last_resort.push_back(node);
      continue;
    }
    if (ctx.suspects != nullptr &&
        std::find(ctx.suspects->begin(), ctx.suspects->end(), node) !=
            ctx.suspects->end()) {
      demoted.push_back(node);
      continue;
    }
    candidates.push_back(node);
  }
  if (candidates.empty()) candidates = std::move(demoted);
  if (candidates.empty()) candidates = std::move(last_resort);
  if (candidates.empty()) return NodeId{};
  return candidates[ctx.rng.index(candidates.size())];
}

NodeId pick_remote_rack_node(const Context& ctx, NodeId relative_to,
                             const std::vector<NodeId>& chosen,
                             const std::vector<NodeId>& excluded) {
  NodeId pick = pick_random_node(ctx, chosen, excluded, [&](NodeId n) {
    return !ctx.topology.same_rack(n, relative_to);
  });
  if (pick.valid()) return pick;
  return pick_random_node(ctx, chosen, excluded, nullptr);
}

NodeId pick_same_rack_node(const Context& ctx, NodeId relative_to,
                           const std::vector<NodeId>& chosen,
                           const std::vector<NodeId>& excluded) {
  NodeId pick = pick_random_node(ctx, chosen, excluded, [&](NodeId n) {
    return ctx.topology.same_rack(n, relative_to);
  });
  if (pick.valid()) return pick;
  return pick_random_node(ctx, chosen, excluded, nullptr);
}

std::vector<NodeId> default_choose_targets(
    const hdfs::PlacementRequest& request, const Context& ctx) {
  std::vector<NodeId> targets;
  const bool client_is_datanode =
      std::find(ctx.alive.begin(), ctx.alive.end(), request.client_node) !=
      ctx.alive.end();
  const bool client_quarantined =
      ctx.deprioritized != nullptr &&
      std::find(ctx.deprioritized->begin(), ctx.deprioritized->end(),
                request.client_node) != ctx.deprioritized->end();
  const bool client_suspect =
      ctx.suspects != nullptr &&
      std::find(ctx.suspects->begin(), ctx.suspects->end(),
                request.client_node) != ctx.suspects->end();
  NodeId first;
  if (client_is_datanode && !client_quarantined && !client_suspect &&
      !placement_unusable(request.client_node, targets, request.excluded)) {
    first = request.client_node;
  } else {
    first = pick_random_node(ctx, targets, request.excluded, nullptr);
  }
  if (!first.valid()) return targets;
  targets.push_back(first);
  while (static_cast<int>(targets.size()) < request.replication) {
    NodeId next;
    if (targets.size() == 1) {
      next = pick_remote_rack_node(ctx, targets[0], targets, request.excluded);
    } else if (targets.size() == 2) {
      next = pick_same_rack_node(ctx, targets[1], targets, request.excluded);
    } else {
      next = pick_random_node(ctx, targets, request.excluded, nullptr);
    }
    if (!next.valid()) break;
    targets.push_back(next);
  }
  return targets;
}

std::vector<NodeId> top_n_for_client(const hdfs::PlacementRequest& request,
                                     const Context& ctx, std::size_t n) {
  struct Scored {
    NodeId node;
    double speed;
    bool measured;
  };
  std::vector<Scored> scored;
  for (NodeId node : ctx.alive) {
    const auto s = ctx.speeds->speed(request.client, node);
    scored.push_back(
        Scored{node, s ? s->bits_per_second() : 0.0, s.has_value()});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.measured != b.measured) return a.measured;
                     return a.speed > b.speed;
                   });
  std::vector<NodeId> top;
  for (const Scored& s : scored) {
    if (top.size() >= n) break;
    top.push_back(s.node);
  }
  return top;
}

std::vector<NodeId> global_choose_targets(
    const hdfs::PlacementRequest& request, const Context& ctx) {
  const std::size_t repli =
      static_cast<std::size_t>(std::max(1, request.replication));
  const std::size_t n = std::max<std::size_t>(1, ctx.alive.size() / repli);
  if (ctx.speeds == nullptr || !ctx.speeds->has_records(request.client)) {
    return default_choose_targets(request, ctx);
  }
  std::vector<NodeId> targets;
  std::vector<NodeId> top = top_n_for_client(request, ctx, n);
  std::vector<NodeId> usable_top;
  std::vector<NodeId> suspect_top;
  std::vector<NodeId> quarantined_top;
  for (NodeId node : top) {
    if (placement_unusable(node, targets, request.excluded)) continue;
    if (ctx.deprioritized != nullptr &&
        std::find(ctx.deprioritized->begin(), ctx.deprioritized->end(),
                  node) != ctx.deprioritized->end()) {
      quarantined_top.push_back(node);
      continue;
    }
    if (ctx.suspects != nullptr &&
        std::find(ctx.suspects->begin(), ctx.suspects->end(), node) !=
            ctx.suspects->end()) {
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
    first = pick_random_node(ctx, targets, request.excluded, nullptr);
  }
  if (!first.valid()) return targets;
  targets.push_back(first);
  while (targets.size() < repli) {
    NodeId next;
    if (targets.size() == 1) {
      next = pick_remote_rack_node(ctx, targets[0], targets, request.excluded);
    } else if (targets.size() == 2) {
      next = pick_same_rack_node(ctx, targets[1], targets, request.excluded);
    } else {
      next = pick_random_node(ctx, targets, request.excluded, nullptr);
    }
    if (!next.valid()) break;
    targets.push_back(next);
  }
  return targets;
}

}  // namespace ref

// --- Random cases -----------------------------------------------------------

/// One random cluster state plus the lists a placement call consults.
struct Case {
  net::Topology topology;
  std::vector<NodeId> hosts;  // every host, datanode or not
  std::vector<NodeId> alive;  // registration order
  std::vector<NodeId> chosen;
  std::vector<NodeId> excluded;
  std::vector<NodeId> deprioritized;
  std::vector<NodeId> suspects;
  bool with_deprioritized = false;
  bool with_suspects = false;
};

/// Draws up to `max_len` nodes from every host plus the invalid id; repeats
/// are allowed, so lists carry duplicates, dead nodes and non-datanodes.
std::vector<NodeId> random_list(Rng& gen, const Case& c, int max_len) {
  std::vector<NodeId> out;
  const auto len = gen.uniform_int(0, max_len);
  for (std::int64_t i = 0; i < len; ++i) {
    const std::size_t k = gen.index(c.hosts.size() + 1);
    out.push_back(k == c.hosts.size() ? NodeId{} : c.hosts[k]);
  }
  return out;
}

void fill_case(Rng& gen, Case& c) {
  const auto racks = gen.uniform_int(1, 4);
  const auto datanodes = gen.uniform_int(1, 40);
  std::vector<NodeId> datanode_ids;
  for (std::int64_t i = 0; i < datanodes; ++i) {
    const NodeId id = c.topology.add_host(
        "dn" + std::to_string(i),
        "/rack" + std::to_string(gen.uniform_int(0, racks - 1)));
    datanode_ids.push_back(id);
    c.hosts.push_back(id);
  }
  for (int i = 0; i < 2; ++i) {
    c.hosts.push_back(c.topology.add_host(
        "client" + std::to_string(i),
        "/rack" + std::to_string(gen.uniform_int(0, racks - 1))));
  }
  // Registration order need not follow NodeId order (re-registration after
  // a namenode restart reorders it); some registered nodes are dead.
  gen.shuffle(datanode_ids);
  const double alive_share = 0.3 + 0.7 * gen.uniform();
  for (NodeId id : datanode_ids) {
    if (gen.uniform() < alive_share) c.alive.push_back(id);
  }
  // Mostly short lists; sometimes long ones, which empty the clean tier and
  // exercise the suspect and deprioritized fallbacks.
  const int span = gen.uniform() < 0.25 ? 40 : 4;
  c.chosen = random_list(gen, c, 3);
  c.excluded = random_list(gen, c, span);
  c.with_deprioritized = gen.uniform() < 0.6;
  c.with_suspects = gen.uniform() < 0.6;
  if (c.with_deprioritized) c.deprioritized = random_list(gen, c, span);
  if (c.with_suspects) c.suspects = random_list(gen, c, span);
}

/// A random host, datanode (alive or dead) or client.
NodeId random_host(Rng& gen, const Case& c) {
  return c.hosts[gen.index(c.hosts.size())];
}

class PlacementEquivalence : public ::testing::Test {
 protected:
  static constexpr int kCases = 4000;

  /// Runs `body` on kCases random cases; `seed` fixes the case stream.
  template <typename Body>
  void for_each_case(std::uint64_t seed, Body body) {
    Rng gen(seed);
    for (int i = 0; i < kCases; ++i) {
      Case c;
      fill_case(gen, c);
      const hdfs::AliveIndex index(c.topology, c.alive);
      const std::uint64_t draw_seed = gen.next();
      Rng ref_rng(draw_seed);
      Rng new_rng(draw_seed);
      ref::Context ref_ctx{c.topology, c.alive, ref_rng};
      hdfs::PlacementContext new_ctx{c.topology, index, new_rng};
      if (c.with_deprioritized) {
        ref_ctx.deprioritized = &c.deprioritized;
        new_ctx.deprioritized = &c.deprioritized;
      }
      if (c.with_suspects) {
        ref_ctx.suspects = &c.suspects;
        new_ctx.suspects = &c.suspects;
      }
      body(gen, c, ref_ctx, new_ctx, i);
      ASSERT_EQ(ref_rng.next(), new_rng.next())
          << "case " << i << ": generators diverged";
    }
  }
};

TEST_F(PlacementEquivalence, PickRandomNodeMatchesLinearScan) {
  for_each_case(1, [](Rng& gen, const Case& c, const ref::Context& rc,
                      const hdfs::PlacementContext& nc, int i) {
    const NodeId relative = random_host(gen, c);
    std::function<bool(NodeId)> rack_ok;
    hdfs::RackFilter filter;
    switch (gen.uniform_int(0, 2)) {
      case 0:
        break;
      case 1:
        rack_ok = [&](NodeId n) { return c.topology.same_rack(n, relative); };
        filter = hdfs::RackFilter::same_as(relative);
        break;
      default:
        rack_ok = [&](NodeId n) { return !c.topology.same_rack(n, relative); };
        filter = hdfs::RackFilter::other_than(relative);
        break;
    }
    const NodeId expected =
        ref::pick_random_node(rc, c.chosen, c.excluded, rack_ok);
    const NodeId actual =
        hdfs::pick_random_node(nc, c.chosen, c.excluded, filter);
    ASSERT_EQ(expected, actual) << "case " << i;
  });
}

TEST_F(PlacementEquivalence, DefaultChooseTargetsMatchesLinearScan) {
  hdfs::DefaultPlacementPolicy policy;
  for_each_case(2, [&](Rng& gen, const Case& c, const ref::Context& rc,
                       const hdfs::PlacementContext& nc, int i) {
    hdfs::PlacementRequest request;
    request.client = ClientId{0};
    request.client_node = random_host(gen, c);
    request.replication = static_cast<int>(gen.uniform_int(1, 5));
    request.excluded = c.excluded;
    ASSERT_EQ(ref::default_choose_targets(request, rc),
              policy.choose_targets(request, nc))
        << "case " << i;
  });
}

/// Speed records for client 0 on a random subset of hosts (dead ones
/// included), from few distinct speeds so ties are common; sometimes none.
hdfs::SpeedBoard random_board(Rng& gen, const Case& c) {
  hdfs::SpeedBoard board;
  if (gen.uniform() < 0.1) return board;
  const double share = gen.uniform();
  for (NodeId host : c.hosts) {
    if (gen.uniform() >= share) continue;
    const double mbps = 10.0 * static_cast<double>(gen.uniform_int(1, 4));
    board.update(ClientId{0}, {host, Bandwidth::mbps(mbps), 1});
  }
  return board;
}

TEST_F(PlacementEquivalence, TopNForClientMatchesStableSort) {
  for_each_case(3, [](Rng& gen, const Case& c, ref::Context rc,
                      hdfs::PlacementContext nc, int i) {
    const hdfs::SpeedBoard board = random_board(gen, c);
    rc.speeds = &board;
    nc.speeds = &board;
    hdfs::PlacementRequest request;
    request.client = ClientId{0};
    const std::size_t n = gen.index(c.alive.size() + 3);
    ASSERT_EQ(ref::top_n_for_client(request, rc, n),
              core::GlobalOptimizerPolicy::top_n_for_client(request, nc, n))
        << "case " << i << " n " << n;
  });
}

TEST_F(PlacementEquivalence, GlobalChooseTargetsMatchesLinearScan) {
  core::GlobalOptimizerPolicy policy;
  for_each_case(4, [&](Rng& gen, const Case& c, ref::Context rc,
                       hdfs::PlacementContext nc, int i) {
    const hdfs::SpeedBoard board = random_board(gen, c);
    rc.speeds = &board;
    nc.speeds = &board;
    hdfs::PlacementRequest request;
    request.client = ClientId{0};
    request.client_node = random_host(gen, c);
    request.replication = static_cast<int>(gen.uniform_int(1, 5));
    request.excluded = c.excluded;
    ASSERT_EQ(ref::global_choose_targets(request, rc),
              policy.choose_targets(request, nc))
        << "case " << i;
  });
}

TEST_F(PlacementEquivalence, AliveIndexPositionsAndRacks) {
  for_each_case(5, [](Rng&, const Case& c, const ref::Context&,
                      const hdfs::PlacementContext& nc, int i) {
    ASSERT_EQ(nc.alive.nodes(), c.alive) << "case " << i;
    for (NodeId host : c.hosts) {
      const auto it = std::find(c.alive.begin(), c.alive.end(), host);
      const std::int32_t expected =
          it == c.alive.end() ? -1
                              : static_cast<std::int32_t>(it - c.alive.begin());
      ASSERT_EQ(nc.alive.position(host), expected) << "case " << i;
    }
    ASSERT_EQ(nc.alive.position(NodeId{}), -1);
    for (std::size_t r = 0; r < c.topology.rack_count(); ++r) {
      std::vector<std::int32_t> expected;
      for (std::size_t p = 0; p < c.alive.size(); ++p) {
        if (c.topology.rack_index(c.alive[p]) == static_cast<std::int32_t>(r)) {
          expected.push_back(static_cast<std::int32_t>(p));
        }
      }
      ASSERT_EQ(nc.alive.rack_positions(static_cast<std::int32_t>(r)),
                expected)
          << "case " << i << " rack " << r;
    }
  });
}

}  // namespace
}  // namespace smarth
