#include "net/waxman.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

namespace smrp::net {

namespace {

double link_weight(LinkWeightMode mode, double distance, Rng& rng) {
  switch (mode) {
    case LinkWeightMode::kEuclidean:
      // Clamp away from zero so co-located nodes cannot create zero-weight
      // links (Dijkstra assumes strictly positive weights).
      return std::max(distance, 1e-6);
    case LinkWeightMode::kUnit:
      return 1.0;
    case LinkWeightMode::kUniformRandom:
      return rng.uniform(1.0, 10.0);
  }
  throw std::logic_error("unknown weight mode");
}

/// One sample: node positions and the links drawn between them.
struct Sample {
  std::vector<Point> positions;
  std::vector<Link> links;
};

Sample sample_once(const WaxmanParams& p, Rng& rng) {
  Sample sample;
  sample.positions.resize(static_cast<std::size_t>(p.node_count));
  for (auto& point : sample.positions) {
    point = Point{rng.uniform(0.0, p.plane_size), rng.uniform(0.0, p.plane_size)};
  }
  const auto& pos = sample.positions;
  const double diagonal = p.plane_size * std::numbers::sqrt2;
  for (NodeId u = 0; u < p.node_count; ++u) {
    for (NodeId v = u + 1; v < p.node_count; ++v) {
      const double d = euclidean(pos[static_cast<std::size_t>(u)],
                                 pos[static_cast<std::size_t>(v)]);
      const double probability = p.alpha * std::exp(-d / (p.beta * diagonal));
      if (rng.uniform() < probability) {
        sample.links.push_back(Link{u, v, link_weight(p.weight_mode, d, rng)});
      }
    }
  }
  return sample;
}

/// Connect all components by repeatedly adding the geometrically shortest
/// link between the component containing node 0 and the rest.
int patch_connectivity(Sample& sample, LinkWeightMode mode, Rng& rng) {
  int added = 0;
  const auto& positions = sample.positions;
  const auto nodes = static_cast<NodeId>(positions.size());
  for (;;) {
    const std::vector<char> in_main = joined_to_node_zero(nodes, sample.links);
    NodeId best_u = kNoNode;
    NodeId best_v = kNoNode;
    double best_d = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < nodes; ++u) {
      if (!in_main[static_cast<std::size_t>(u)]) continue;
      for (NodeId v = 0; v < nodes; ++v) {
        if (in_main[static_cast<std::size_t>(v)]) continue;
        const double d = euclidean(positions[static_cast<std::size_t>(u)],
                                   positions[static_cast<std::size_t>(v)]);
        if (d < best_d) {
          best_d = d;
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best_u == kNoNode) return added;  // already connected
    sample.links.push_back(
        Link{best_u, best_v, link_weight(mode, best_d, rng)});
    ++added;
  }
}

}  // namespace

WaxmanResult generate_waxman(const WaxmanParams& p, Rng& rng) {
  if (p.node_count < 2) throw std::invalid_argument("need >= 2 nodes");
  if (p.alpha <= 0.0 || p.alpha > 1.0) {
    throw std::invalid_argument("alpha must be in (0, 1]");
  }
  if (p.beta <= 0.0 || p.beta > 1.0) {
    throw std::invalid_argument("beta must be in (0, 1]");
  }
  WaxmanResult result;
  Sample sample;
  for (int attempt = 0;; ++attempt) {
    sample = sample_once(p, rng);
    if (std::ranges::count(joined_to_node_zero(p.node_count, sample.links),
                           0) == 0) {
      break;
    }
    if (attempt >= p.max_resample_attempts) {
      result.patched_links = patch_connectivity(sample, p.weight_mode, rng);
      break;
    }
    ++result.resamples;
  }
  result.graph = Graph(p.node_count, std::move(sample.links));
  result.graph.set_positions(std::move(sample.positions));
  return result;
}

Graph waxman_graph(const WaxmanParams& params, Rng& rng) {
  return generate_waxman(params, rng).graph;
}

}  // namespace smrp::net
