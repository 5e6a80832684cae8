#include "net/transit_stub.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace smrp::net {

namespace {

/// Copy `sub` into `dest` starting at node id `base`, translating positions
/// by (dx, dy). Returns the positions that were appended.
std::vector<Point> splice_subgraph(Graph& dest, NodeId base, const Graph& sub,
                                   double dx, double dy) {
  for (const Link& l : sub.links()) {
    dest.add_link(base + l.a, base + l.b, l.weight);
  }
  std::vector<Point> moved;
  moved.reserve(static_cast<std::size_t>(sub.node_count()));
  for (const Point& p : sub.positions()) {
    moved.push_back(Point{p.x + dx, p.y + dy});
  }
  return moved;
}

}  // namespace

TransitStubTopology generate_transit_stub(const TransitStubParams& p,
                                          Rng& rng) {
  if (p.transit_nodes < 2) throw std::invalid_argument("need >= 2 transit nodes");
  if (p.stubs_per_transit < 0 || p.stub_size < 1) {
    throw std::invalid_argument("bad stub shape");
  }
  // Size check FIRST, before any generation work: transit × stubs ×
  // stub_size are each int, and a profile past the NodeId range must
  // throw up front — not wrap, and not after minutes of core generation.
  const std::int64_t stub_count_wide =
      static_cast<std::int64_t>(p.transit_nodes) * p.stubs_per_transit;
  const std::int64_t total_nodes_wide =
      p.transit_nodes + stub_count_wide * p.stub_size;
  if (total_nodes_wide > std::numeric_limits<NodeId>::max()) {
    throw std::overflow_error(
        "transit-stub profile exceeds the NodeId range");
  }

  TransitStubTopology topo;

  // 1. Transit core.
  WaxmanParams core_params;
  core_params.node_count = p.transit_nodes;
  core_params.alpha = p.transit_alpha;
  core_params.beta = p.beta;
  core_params.plane_size = p.plane_size;
  core_params.weight_mode = p.weight_mode;
  Graph core = waxman_graph(core_params, rng);

  const int total_nodes = static_cast<int>(total_nodes_wide);
  topo.graph = Graph(total_nodes);
  std::vector<Point> positions;
  positions.reserve(static_cast<std::size_t>(total_nodes));

  for (const Point& point : core.positions()) positions.push_back(point);
  for (const Link& l : core.links()) {
    topo.graph.add_link(l.a, l.b, l.weight);
  }

  topo.domain_of_node.assign(static_cast<std::size_t>(total_nodes),
                             kTransitDomain);
  topo.gateway_of_domain.push_back(kNoNode);  // entry for the transit domain
  topo.nodes_of_domain.emplace_back();
  for (NodeId n = 0; n < p.transit_nodes; ++n) {
    topo.nodes_of_domain[0].push_back(n);
  }

  // 2. Stub domains: a local Waxman patch near the gateway, plus one access
  //    link from the gateway into the patch.
  NodeId next_node = p.transit_nodes;
  for (NodeId gateway = 0; gateway < p.transit_nodes; ++gateway) {
    for (int s = 0; s < p.stubs_per_transit; ++s) {
      const DomainId domain = static_cast<DomainId>(topo.nodes_of_domain.size());

      Graph patch;
      if (p.stub_size == 1) {
        patch = Graph(1);
        patch.set_positions({Point{p.stub_patch_size / 2, p.stub_patch_size / 2}});
      } else {
        WaxmanParams stub_params;
        stub_params.node_count = p.stub_size;
        stub_params.alpha = p.stub_alpha;
        stub_params.beta = p.beta;
        stub_params.plane_size = p.stub_patch_size;
        stub_params.weight_mode = p.weight_mode;
        patch = waxman_graph(stub_params, rng);
      }

      const Point& gw_pos = positions[static_cast<std::size_t>(gateway)];
      // Offset the patch to sit beside the gateway.
      const double angle = rng.uniform(0.0, 2.0 * std::acos(-1.0));
      const double radius = p.stub_patch_size * 1.5;
      const double dx = gw_pos.x + radius * std::cos(angle);
      const double dy = gw_pos.y + radius * std::sin(angle);

      const NodeId base = next_node;
      std::vector<Point> patch_positions =
          splice_subgraph(topo.graph, base, patch, dx, dy);
      positions.insert(positions.end(), patch_positions.begin(),
                       patch_positions.end());

      topo.nodes_of_domain.emplace_back();
      for (int i = 0; i < p.stub_size; ++i) {
        const NodeId n = base + i;
        topo.domain_of_node[static_cast<std::size_t>(n)] = domain;
        topo.nodes_of_domain.back().push_back(n);
      }
      // Access link gateway -> first patch node.
      const double access_dist =
          euclidean(gw_pos, positions[static_cast<std::size_t>(base)]);
      const double weight = p.weight_mode == LinkWeightMode::kUnit
                                ? 1.0
                                : std::max(access_dist, 1e-6);
      topo.graph.add_link(gateway, base, weight);
      topo.gateway_of_domain.push_back(gateway);

      next_node += p.stub_size;
    }
  }

  topo.graph.set_positions(std::move(positions));
  if (!topo.graph.connected()) {
    throw std::logic_error("transit-stub construction produced a disconnected graph");
  }
  return topo;
}

}  // namespace smrp::net
