#include "net/random_graphs.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace smrp::net {

namespace {

double draw_weight(double lo, double hi, Rng& rng) {
  if (hi <= lo) return lo;
  return rng.uniform(lo, hi);
}

Graph sample_gnp(const ErdosRenyiParams& p, Rng& rng) {
  Graph g(p.node_count);
  for (NodeId u = 0; u < p.node_count; ++u) {
    for (NodeId v = u + 1; v < p.node_count; ++v) {
      if (rng.uniform() < p.edge_probability) {
        g.add_link(u, v, draw_weight(p.min_weight, p.max_weight, rng));
      }
    }
  }
  return g;
}

/// Bridge components with random links until connected.
int patch_random(Graph& g, double lo, double hi, Rng& rng) {
  int added = 0;
  for (;;) {
    // Component of node 0.
    std::vector<char> in_main(static_cast<std::size_t>(g.node_count()), 0);
    std::vector<NodeId> stack{0};
    in_main[0] = 1;
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const Adjacency& adj : g.neighbors(n)) {
        if (!in_main[static_cast<std::size_t>(adj.neighbor)]) {
          in_main[static_cast<std::size_t>(adj.neighbor)] = 1;
          stack.push_back(adj.neighbor);
        }
      }
    }
    std::vector<NodeId> inside;
    std::vector<NodeId> outside;
    for (NodeId n = 0; n < g.node_count(); ++n) {
      (in_main[static_cast<std::size_t>(n)] ? inside : outside).push_back(n);
    }
    if (outside.empty()) return added;
    const NodeId u = inside[static_cast<std::size_t>(rng.below(inside.size()))];
    const NodeId v =
        outside[static_cast<std::size_t>(rng.below(outside.size()))];
    g.add_link(u, v, draw_weight(lo, hi, rng));
    ++added;
  }
}

}  // namespace

ErdosRenyiResult generate_erdos_renyi(const ErdosRenyiParams& p, Rng& rng) {
  if (p.node_count < 2) throw std::invalid_argument("need >= 2 nodes");
  if (p.edge_probability <= 0.0 || p.edge_probability > 1.0) {
    throw std::invalid_argument("edge probability must be in (0, 1]");
  }
  ErdosRenyiResult result;
  for (int attempt = 0;; ++attempt) {
    result.graph = sample_gnp(p, rng);
    if (result.graph.connected()) return result;
    if (attempt >= p.max_resample_attempts) break;
    ++result.resamples;
  }
  result.patched_links =
      patch_random(result.graph, p.min_weight, p.max_weight, rng);
  return result;
}

Graph erdos_renyi_graph(const ErdosRenyiParams& p, Rng& rng) {
  return generate_erdos_renyi(p, rng).graph;
}

Graph barabasi_albert_graph(const BarabasiAlbertParams& p, Rng& rng) {
  if (p.edges_per_node < 1) throw std::invalid_argument("need m >= 1");
  const int seed_size = p.edges_per_node + 1;
  if (p.node_count < seed_size) {
    throw std::invalid_argument("node count below the seed clique size");
  }
  Graph g(p.node_count);
  // Attachment pool: one entry per link endpoint, so sampling uniformly
  // from it is sampling proportionally to degree.
  std::vector<NodeId> endpoint_pool;

  // Seed: a small clique so every early node has degree > 0.
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = u + 1; v < seed_size; ++v) {
      g.add_link(u, v, draw_weight(p.min_weight, p.max_weight, rng));
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }

  std::vector<NodeId> attached_to;
  for (NodeId newcomer = seed_size; newcomer < p.node_count; ++newcomer) {
    attached_to.clear();
    int guard = 0;
    while (static_cast<int>(attached_to.size()) < p.edges_per_node &&
           guard++ < 1000) {
      const NodeId target = endpoint_pool[static_cast<std::size_t>(
          rng.below(endpoint_pool.size()))];
      // The newcomer's only links are the ones it made this round, so
      // its own list answers "already linked" without reading the graph
      // (a read mid-build would force a CSR rebuild per newcomer).
      if (target == newcomer ||
          std::find(attached_to.begin(), attached_to.end(), target) !=
              attached_to.end()) {
        continue;
      }
      g.add_link(newcomer, target,
                 draw_weight(p.min_weight, p.max_weight, rng));
      attached_to.push_back(target);
    }
    // Register the new endpoints only after all of this newcomer's
    // attachments, so it cannot preferentially attach to itself.
    for (const NodeId target : attached_to) {
      endpoint_pool.push_back(newcomer);
      endpoint_pool.push_back(target);
    }
  }
  return g;
}

}  // namespace smrp::net
