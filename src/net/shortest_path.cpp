#include "net/shortest_path.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace smrp::net {

std::vector<NodeId> ExclusionSet::banned_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(banned_nodes_));
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] != 0) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<LinkId> ExclusionSet::banned_links() const {
  std::vector<LinkId> out;
  out.reserve(static_cast<std::size_t>(banned_links_));
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i] != 0) out.push_back(static_cast<LinkId>(i));
  }
  return out;
}

std::vector<NodeId> ShortestPathTree::path_to_source(NodeId target) const {
  std::vector<NodeId> out;
  if (!reachable(target)) return out;
  for (NodeId n = target; n != kNoNode;
       n = parent[static_cast<std::size_t>(n)]) {
    out.push_back(n);
  }
  return out;
}

std::vector<NodeId> ShortestPathTree::path_from_source(NodeId target) const {
  std::vector<NodeId> out = path_to_source(target);
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<LinkId> ShortestPathTree::link_path_from_source(
    NodeId target) const {
  std::vector<LinkId> out;
  if (!reachable(target)) return out;
  for (NodeId n = target; parent[static_cast<std::size_t>(n)] != kNoNode;
       n = parent[static_cast<std::size_t>(n)]) {
    out.push_back(parent_link[static_cast<std::size_t>(n)]);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void DeadEndMarks::reset(const Graph& g) {
  for (const std::int32_t c : marked_) marks_[static_cast<std::size_t>(c)] = 0;
  marked_.clear();
  graph_ = &g;
  tree_ = &g.bridge_tree();
  const auto components = static_cast<std::size_t>(tree_->component_count());
  if (marks_.size() != components) marks_.assign(components, 0);
}

void DeadEndMarks::mark(NodeId n) {
  if (graph_ == nullptr || !graph_->valid_node(n)) {
    throw std::out_of_range("DeadEndMarks::mark: bad node or no reset()");
  }
  for (auto c = static_cast<std::int32_t>(component(n));
       c != -1 && marks_[static_cast<std::size_t>(c)] == 0;
       c = tree_->parent[static_cast<std::size_t>(c)]) {
    marks_[static_cast<std::size_t>(c)] = 1;
    marked_.push_back(c);
  }
}

namespace {

// Deterministic queue order: lower distance first, then lower node id, so
// a rebuilt binary can replay an experiment bit-for-bit. std::pair's
// lexicographic ordering on (dist, node) provides exactly that.
using QueueEntry = std::pair<double, NodeId>;

}  // namespace

NodeId DijkstraWorkspace::run_impl(const Graph& g, NodeId source,
                                   const ExclusionSet& excluded,
                                   const std::vector<char>* absorbing,
                                   SearchBound bound,
                                   const DeadEndMarks* dead_ends,
                                   bool stop_at_absorbed,
                                   const SeedLabel* seed,
                                   ShortestPathTree& tree) {
  if (!g.valid_node(source)) throw std::out_of_range("bad source node");
  if (excluded.node_banned(source)) {
    throw std::invalid_argument("source node is banned");
  }

  // Undo the previous run. A run into tree_ or a seeded run recorded the
  // nodes it labelled, so only those settled flags, and for tree_ those
  // labels, are reset (labelled_ ids index the arrays as they were sized
  // for that run). A whole-tree run into a caller-owned tree is a
  // whole-graph search anyway, so it records nothing and its settled
  // flags are cleared whole.
  if (listed_) {
    for (const NodeId v : labelled_) {
      const auto i = static_cast<std::size_t>(v);
      settled_[i] = 0;
      if (!tree_dirty_) continue;
      tree_.dist[i] = kInfinity;
      tree_.parent[i] = kNoNode;
      tree_.parent_link[i] = kNoLink;
      tree_.hops[i] = -1;
    }
  } else {
    std::fill(settled_.begin(), settled_.end(), 0);
  }
  labelled_.clear();
  heap_.clear();

  const auto n = static_cast<std::size_t>(g.node_count());
  if (settled_.size() != n) settled_.assign(n, 0);
  tree_dirty_ = &tree == &tree_;
  listed_ = tree_dirty_ || seed != nullptr;
  const bool record = listed_;
  const auto s = static_cast<std::size_t>(source);
  if (seed == nullptr) {
    if (!tree_dirty_ || tree.dist.size() != n) {
      tree.dist.assign(n, kInfinity);
      tree.parent.assign(n, kNoNode);
      tree.parent_link.assign(n, kNoLink);
      tree.hops.assign(n, -1);
    }
    tree.source = source;
    tree.dist[s] = 0.0;
    tree.hops[s] = 0;
  } else {
    // The seed's parent was settled before the source in the run this
    // one continues, so the link back to it is never relaxed.
    labelled_.push_back(seed->parent);
    settled_[static_cast<std::size_t>(seed->parent)] = 1;
    tree.dist[s] = seed->dist;
    tree.hops[s] = seed->hops;
    tree.parent[s] = seed->parent;
    tree.parent_link[s] = seed->parent_link;
  }

  const auto heap_greater = std::greater<QueueEntry>{};
  if (record) labelled_.push_back(source);
  heap_.emplace_back(tree.dist[s], source);

  while (!heap_.empty()) {
    const QueueEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
    heap_.pop_back();
    const auto u = static_cast<std::size_t>(top.second);
    if (settled_[u]) continue;
    settled_[u] = 1;
    // Absorbing nodes are valid destinations but never relay further.
    if (absorbing != nullptr && (*absorbing)[u] != 0) {
      if (stop_at_absorbed) return top.second;
      continue;
    }

    const bool gated = dead_ends != nullptr && dead_ends->gated(top.second);
    for (const Adjacency& adj : g.neighbors(top.second)) {
      if (excluded.link_banned(adj.link) || excluded.node_banned(adj.neighbor))
        continue;
      if (gated && dead_ends->dead_end(adj)) continue;
      const auto v = static_cast<std::size_t>(adj.neighbor);
      if (settled_[v]) continue;
      const double candidate = tree.dist[u] + g.link(adj.link).weight;
      if (bound.potential != nullptr &&
          candidate + (*bound.potential)[v] > bound.limit) {
        continue;
      }
      // Equal-cost ties prefer fewer hops (an expanding-ring search finds
      // the closer-by-hops node first), then the lower predecessor id for
      // determinism. A node with no predecessor yet (only the source, via
      // zero-weight links) keeps kNoNode explicitly, so the contract does
      // not lean on the sentinel's numeric value.
      const int candidate_hops = tree.hops[u] + 1;
      const bool better =
          candidate < tree.dist[v] ||
          (candidate == tree.dist[v] &&
           (candidate_hops < tree.hops[v] ||
            (candidate_hops == tree.hops[v] && tree.parent[v] != kNoNode &&
             top.second < tree.parent[v])));
      if (better) {
        if (record && tree.dist[v] == kInfinity) {
          labelled_.push_back(adj.neighbor);
        }
        tree.dist[v] = candidate;
        tree.parent[v] = top.second;
        tree.parent_link[v] = adj.link;
        tree.hops[v] = tree.hops[u] + 1;
        heap_.emplace_back(candidate, adj.neighbor);
        std::push_heap(heap_.begin(), heap_.end(), heap_greater);
      }
    }
  }
  return kNoNode;
}

void DijkstraWorkspace::check_absorbing(const Graph& g, NodeId source,
                                        const std::vector<char>& absorbing,
                                        const DeadEndMarks* dead_ends) {
  if (absorbing.size() != static_cast<std::size_t>(g.node_count())) {
    throw std::invalid_argument("absorbing flags sized incorrectly");
  }
  if (g.valid_node(source) && absorbing[static_cast<std::size_t>(source)]) {
    throw std::invalid_argument("source must not be absorbing");
  }
  check_dead_ends(g, source, dead_ends);
}

void DijkstraWorkspace::check_dead_ends(const Graph& g, NodeId source,
                                        const DeadEndMarks* dead_ends) {
  if (dead_ends != nullptr &&
      (dead_ends->graph() != &g || !g.valid_node(source) ||
       !dead_ends->covered(source))) {
    throw std::invalid_argument(
        "dead-end marks are not reset for this graph or miss the source");
  }
}

const ShortestPathTree& DijkstraWorkspace::run(const Graph& g, NodeId source,
                                               const ExclusionSet& excluded) {
  run_impl(g, source, excluded, nullptr, {}, nullptr, false, nullptr, tree_);
  return tree_;
}

const ShortestPathTree& DijkstraWorkspace::run_absorbing(
    const Graph& g, NodeId source, const std::vector<char>& absorbing,
    const ExclusionSet& excluded, SearchBound bound,
    const DeadEndMarks* dead_ends) {
  check_absorbing(g, source, absorbing, dead_ends);
  if (bound.potential != nullptr &&
      bound.potential->size() != static_cast<std::size_t>(g.node_count())) {
    throw std::invalid_argument("search potential sized incorrectly");
  }
  run_impl(g, source, excluded, &absorbing, bound, dead_ends, false, nullptr,
           tree_);
  return tree_;
}

NodeId DijkstraWorkspace::run_to_first_absorbed(
    const Graph& g, NodeId source, const std::vector<char>& absorbing,
    const ExclusionSet& excluded, const DeadEndMarks* dead_ends) {
  check_absorbing(g, source, absorbing, dead_ends);
  return run_impl(g, source, excluded, &absorbing, {}, dead_ends, true,
                  nullptr, tree_);
}

void DijkstraWorkspace::run_into(const Graph& g, NodeId source,
                                 const ExclusionSet& excluded,
                                 ShortestPathTree& out,
                                 const DeadEndMarks* dead_ends) {
  check_dead_ends(g, source, dead_ends);
  run_impl(g, source, excluded, nullptr, {}, dead_ends, false, nullptr, out);
}

void DijkstraWorkspace::run_absorbing_into(const Graph& g, NodeId source,
                                           const std::vector<char>& absorbing,
                                           const ExclusionSet& excluded,
                                           ShortestPathTree& out) {
  check_absorbing(g, source, absorbing, nullptr);
  run_impl(g, source, excluded, &absorbing, {}, nullptr, false, nullptr, out);
}

void DijkstraWorkspace::run_seeded_into(const Graph& g, NodeId source,
                                        const SeedLabel& seed,
                                        ShortestPathTree& out) {
  if (out.dist.size() != static_cast<std::size_t>(g.node_count()) ||
      &out == &tree_ || !g.valid_node(seed.parent) || seed.parent == source) {
    throw std::invalid_argument(
        "seeded run needs a caller-owned tree of the graph and a parent");
  }
  run_impl(g, source, ExclusionSet{}, nullptr, {}, nullptr, false, &seed, out);
}

std::vector<char>& DijkstraWorkspace::node_flags(NodeId node_count) {
  const auto n = static_cast<std::size_t>(node_count);
  if (flags_.size() != n) flags_.assign(n, 0);
  return flags_;
}

DeadEndMarks& DijkstraWorkspace::dead_end_marks(const Graph& g) {
  dead_ends_.reset(g);
  return dead_ends_;
}

ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          const ExclusionSet& excluded) {
  DijkstraWorkspace workspace;
  ShortestPathTree out;
  workspace.run_into(g, source, excluded, out);
  return out;
}

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  return dijkstra(g, source, ExclusionSet{});
}

ShortestPathTree dijkstra_absorbing(const Graph& g, NodeId source,
                                    const std::vector<char>& absorbing,
                                    const ExclusionSet& excluded) {
  DijkstraWorkspace workspace;
  ShortestPathTree out;
  workspace.run_absorbing_into(g, source, absorbing, excluded, out);
  return out;
}

}  // namespace smrp::net
