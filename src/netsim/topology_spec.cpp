#include "netsim/topology_spec.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "qbase/assert.hpp"
#include "qbase/rng.hpp"

namespace qnetp::netsim {

TopologySpec TopologySpec::chain(std::size_t n,
                                 const qhw::HardwareParams& hw,
                                 const qhw::FiberParams& fiber) {
  QNETP_ASSERT(n >= 2);
  TopologySpec spec;
  spec.name = "chain" + std::to_string(n);
  spec.default_hw = hw;
  spec.default_fiber = fiber;
  for (std::size_t i = 1; i <= n; ++i) {
    spec.nodes.push_back(NodeSpec{NodeId{i}, std::nullopt});
  }
  for (std::size_t i = 1; i < n; ++i) {
    spec.links.push_back(LinkSpec{NodeId{i}, NodeId{i + 1}, std::nullopt});
  }
  return spec;
}

TopologySpec TopologySpec::ring(std::size_t n, const qhw::HardwareParams& hw,
                                const qhw::FiberParams& fiber) {
  QNETP_ASSERT(n >= 3);
  TopologySpec spec = chain(n, hw, fiber);
  spec.name = "ring" + std::to_string(n);
  spec.links.push_back(LinkSpec{NodeId{n}, NodeId{1}, std::nullopt});
  return spec;
}

TopologySpec TopologySpec::star(std::size_t leaves,
                                const qhw::HardwareParams& hw,
                                const qhw::FiberParams& fiber) {
  QNETP_ASSERT(leaves >= 2);
  TopologySpec spec;
  spec.name = "star" + std::to_string(leaves);
  spec.default_hw = hw;
  spec.default_fiber = fiber;
  for (std::size_t i = 1; i <= leaves + 1; ++i) {
    spec.nodes.push_back(NodeSpec{NodeId{i}, std::nullopt});
  }
  for (std::size_t i = 2; i <= leaves + 1; ++i) {
    spec.links.push_back(LinkSpec{NodeId{1}, NodeId{i}, std::nullopt});
  }
  return spec;
}

TopologySpec TopologySpec::grid(std::size_t rows, std::size_t cols,
                                const qhw::HardwareParams& hw,
                                const qhw::FiberParams& fiber) {
  QNETP_ASSERT(rows >= 1 && cols >= 1 && rows * cols >= 2);
  TopologySpec spec;
  spec.name = "grid" + std::to_string(rows) + "x" + std::to_string(cols);
  spec.default_hw = hw;
  spec.default_fiber = fiber;
  const auto node_at = [cols](std::size_t r, std::size_t c) {
    return NodeId{r * cols + c + 1};
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      spec.nodes.push_back(NodeSpec{node_at(r, c), std::nullopt});
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        spec.links.push_back(
            LinkSpec{node_at(r, c), node_at(r, c + 1), std::nullopt});
      }
      if (r + 1 < rows) {
        spec.links.push_back(
            LinkSpec{node_at(r, c), node_at(r + 1, c), std::nullopt});
      }
    }
  }
  return spec;
}

TopologySpec TopologySpec::dumbbell(const qhw::HardwareParams& hw,
                                    const qhw::FiberParams& fiber) {
  TopologySpec spec;
  spec.name = "dumbbell";
  spec.default_hw = hw;
  spec.default_fiber = fiber;
  const DumbbellIds ids;
  for (NodeId id : {ids.a0, ids.a1, ids.b0, ids.b1, ids.ma, ids.mb}) {
    spec.nodes.push_back(NodeSpec{id, std::nullopt});
  }
  spec.links.push_back(LinkSpec{ids.a0, ids.ma, std::nullopt});
  spec.links.push_back(LinkSpec{ids.a1, ids.ma, std::nullopt});
  spec.links.push_back(LinkSpec{ids.ma, ids.mb, std::nullopt});
  spec.links.push_back(LinkSpec{ids.mb, ids.b0, std::nullopt});
  spec.links.push_back(LinkSpec{ids.mb, ids.b1, std::nullopt});
  return spec;
}

TopologySpec TopologySpec::waxman(std::uint64_t seed,
                                  const WaxmanParams& params,
                                  const qhw::HardwareParams& hw) {
  QNETP_ASSERT(params.nodes >= 2);
  QNETP_ASSERT(params.alpha > 0.0 && params.alpha <= 1.0);
  QNETP_ASSERT(params.beta > 0.0);
  QNETP_ASSERT(params.field_m > 0.0);

  TopologySpec spec;
  spec.name = "waxman" + std::to_string(params.nodes) + "-s" +
              std::to_string(seed);
  spec.default_hw = hw;
  spec.default_fiber =
      qhw::FiberParams{params.min_length_m, params.attenuation_db_per_km};

  Rng rng(derive_stream_seed(seed, 0x7090u));
  struct Point {
    double x, y;
  };
  std::vector<Point> pos(params.nodes);
  for (std::size_t i = 0; i < params.nodes; ++i) {
    pos[i] = Point{rng.uniform(0.0, params.field_m),
                   rng.uniform(0.0, params.field_m)};
    spec.nodes.push_back(NodeSpec{NodeId{i + 1}, std::nullopt});
  }
  const auto dist = [&](std::size_t i, std::size_t j) {
    const double dx = pos[i].x - pos[j].x;
    const double dy = pos[i].y - pos[j].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  double max_dist = 1e-9;
  for (std::size_t i = 0; i < params.nodes; ++i) {
    for (std::size_t j = i + 1; j < params.nodes; ++j) {
      max_dist = std::max(max_dist, dist(i, j));
    }
  }
  const auto fiber_for = [&](std::size_t i, std::size_t j) {
    return qhw::FiberParams{std::max(params.min_length_m, dist(i, j)),
                           params.attenuation_db_per_km};
  };

  // Union-find over node indexes to stitch components afterwards.
  std::vector<std::size_t> parent(params.nodes);
  for (std::size_t i = 0; i < params.nodes; ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };

  for (std::size_t i = 0; i < params.nodes; ++i) {
    for (std::size_t j = i + 1; j < params.nodes; ++j) {
      const double p =
          params.alpha *
          std::exp(-dist(i, j) / (params.beta * max_dist));
      if (!rng.bernoulli(p)) continue;
      spec.links.push_back(
          LinkSpec{NodeId{i + 1}, NodeId{j + 1}, fiber_for(i, j)});
      parent[find(i)] = find(j);
    }
  }

  // Connectivity guarantee: link each later component to an earlier one
  // through the closest cross-component node pair (deterministic).
  for (;;) {
    std::size_t best_i = 0, best_j = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < params.nodes; ++i) {
      for (std::size_t j = i + 1; j < params.nodes; ++j) {
        if (find(i) == find(j)) continue;
        const double d = dist(i, j);
        if (d < best_d) {
          best_d = d;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (!std::isfinite(best_d)) break;  // single component
    spec.links.push_back(LinkSpec{NodeId{best_i + 1}, NodeId{best_j + 1},
                                  fiber_for(best_i, best_j)});
    parent[find(best_i)] = find(best_j);
  }
  return spec;
}

TopologySpec TopologySpec::compose_regions(
    const std::vector<TopologySpec>& parts,
    const qhw::FiberParams& bridge_fiber) {
  QNETP_ASSERT_MSG(!parts.empty(), "compose_regions of zero parts");
  bridge_fiber.validate();
  TopologySpec spec;
  spec.name = "regions" + std::to_string(parts.size());
  spec.default_hw = parts.front().default_hw;
  spec.default_fiber = parts.front().default_fiber;

  std::uint64_t offset = 0;
  std::vector<NodeId> region_first;
  std::vector<NodeId> region_last;
  for (std::size_t r = 0; r < parts.size(); ++r) {
    const TopologySpec& part = parts[r];
    part.validate();
    QNETP_ASSERT_MSG(!part.nodes.empty(), "empty region in compose_regions");
    // Renumber to a contiguous block, preserving the part's spec order.
    std::map<NodeId, NodeId> remap;
    for (std::size_t i = 0; i < part.nodes.size(); ++i) {
      const NodeId nid{offset + i + 1};
      remap[part.nodes[i].id] = nid;
      // Parts keep their own defaults: materialize them as overrides for
      // every part whose defaults are not the composed spec's (part 0).
      std::optional<qhw::HardwareParams> hw = part.nodes[i].hw;
      if (!hw.has_value() && r != 0) hw = part.default_hw;
      spec.nodes.push_back(NodeSpec{nid, std::move(hw), r});
    }
    for (const auto& l : part.links) {
      std::optional<qhw::FiberParams> fiber = l.fiber;
      if (!fiber.has_value() && r != 0) fiber = part.default_fiber;
      spec.links.push_back(
          LinkSpec{remap.at(l.a), remap.at(l.b), std::move(fiber)});
    }
    region_first.push_back(NodeId{offset + 1});
    region_last.push_back(NodeId{offset + part.nodes.size()});
    offset += part.nodes.size();
  }
  // Long-haul bridges between consecutive regions. Only classical
  // traffic crosses them; their propagation delay is the sharded
  // kernel's lookahead bound.
  for (std::size_t r = 0; r + 1 < parts.size(); ++r) {
    spec.links.push_back(
        LinkSpec{region_last[r], region_first[r + 1], bridge_fiber});
  }
  return spec;
}

std::size_t TopologySpec::region_count() const {
  std::size_t max_region = 0;
  for (const auto& n : nodes) max_region = std::max(max_region, n.region);
  return max_region + 1;
}

TopologySpec& TopologySpec::with_link_fiber(NodeId a, NodeId b,
                                            const qhw::FiberParams& fiber) {
  for (auto& l : links) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      l.fiber = fiber;
      return *this;
    }
  }
  QNETP_ASSERT_MSG(false, "with_link_fiber: no such link");
  return *this;
}

TopologySpec& TopologySpec::with_node_hardware(NodeId node,
                                               const qhw::HardwareParams& hw) {
  for (auto& n : nodes) {
    if (n.id == node) {
      n.hw = hw;
      return *this;
    }
  }
  QNETP_ASSERT_MSG(false, "with_node_hardware: no such node");
  return *this;
}

bool TopologySpec::has_node(NodeId id) const {
  return std::any_of(nodes.begin(), nodes.end(),
                     [id](const NodeSpec& n) { return n.id == id; });
}

const LinkSpec* TopologySpec::link_between(NodeId a, NodeId b) const {
  for (const auto& l : links) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return &l;
  }
  return nullptr;
}

bool TopologySpec::connected() const {
  if (nodes.empty()) return true;
  std::unordered_set<NodeId> reached;
  std::vector<NodeId> frontier{nodes.front().id};
  reached.insert(nodes.front().id);
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const auto& l : links) {
      NodeId v;
      if (l.a == u) {
        v = l.b;
      } else if (l.b == u) {
        v = l.a;
      } else {
        continue;
      }
      if (reached.insert(v).second) frontier.push_back(v);
    }
  }
  return reached.size() == nodes.size();
}

void TopologySpec::validate() const {
  std::unordered_set<NodeId> seen;
  for (const auto& n : nodes) {
    QNETP_ASSERT_MSG(n.id.valid(), "invalid node id in spec");
    QNETP_ASSERT_MSG(seen.insert(n.id).second, "duplicate node id in spec");
    if (n.hw.has_value()) n.hw->validate();
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto& l = links[i];
    QNETP_ASSERT_MSG(seen.count(l.a) > 0 && seen.count(l.b) > 0,
                     "link endpoint not in spec");
    QNETP_ASSERT_MSG(l.a != l.b, "self-loop link in spec");
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      const bool same = (links[j].a == l.a && links[j].b == l.b) ||
                        (links[j].a == l.b && links[j].b == l.a);
      QNETP_ASSERT_MSG(!same, "duplicate link in spec");
    }
    if (l.fiber.has_value()) l.fiber->validate();
  }
  default_hw.validate();
  default_fiber.validate();
}

std::unique_ptr<Network> TopologySpec::build(
    const NetworkConfig& config) const {
  validate();
  NetworkConfig cfg = config;
  // The spec's region tags are the execution-sharding partition; the
  // caller's cfg.sharding.shards picks how many worker loops the regions
  // fold onto (a single region always runs on one).
  cfg.sharding.regions = region_count();
  for (const auto& n : nodes) {
    if (n.region != 0) cfg.sharding.region_of[n.id] = n.region;
  }
  auto net = std::make_unique<Network>(cfg);
  for (const auto& n : nodes) {
    net->add_node(n.id, n.hw.has_value() ? *n.hw : default_hw);
  }
  for (const auto& l : links) {
    net->connect(l.a, l.b, l.fiber.has_value() ? *l.fiber : default_fiber);
  }
  return net;
}

}  // namespace qnetp::netsim
