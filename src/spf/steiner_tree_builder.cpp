#include "spf/steiner_tree_builder.hpp"

#include <stdexcept>

namespace smrp::baseline {

SteinerTreeBuilder::SteinerTreeBuilder(const Graph& g, NodeId source,
                                       net::RoutingOracle* oracle)
    : g_(&g),
      tree_(g, source),
      owned_oracle_(oracle == nullptr ? std::make_unique<net::RoutingOracle>(g)
                                      : nullptr),
      oracle_(oracle != nullptr ? oracle : owned_oracle_.get()) {}

bool SteinerTreeBuilder::join(NodeId member) {
  if (member == tree_.source()) {
    throw std::invalid_argument("the source cannot join its own session");
  }
  if (tree_.is_member(member)) return true;
  if (tree_.on_tree(member)) {
    tree_.graft(member, {});
    return true;
  }
  // Nearest point of the current tree (Takahashi–Matsuyama step): run an
  // absorbing search so the graft touches the tree exactly once. The
  // search depends on the tree state, so it leases a pooled workspace
  // (never the cache) and reuses this builder's flag/result buffers.
  absorbing_.assign(static_cast<std::size_t>(g_->node_count()), 0);
  for (const NodeId n : tree_.on_tree_nodes()) {
    absorbing_[static_cast<std::size_t>(n)] = 1;
  }
  {
    const net::RoutingOracle::WorkspaceLease lease = oracle_->workspace();
    lease->run_absorbing_into(*g_, member, absorbing_, net::ExclusionSet{},
                              search_);
  }
  NodeId best = net::kNoNode;
  for (const NodeId n : tree_.on_tree_nodes()) {
    if (!search_.reachable(n)) continue;
    if (best == net::kNoNode ||
        search_.dist[static_cast<std::size_t>(n)] <
            search_.dist[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  if (best == net::kNoNode) return false;
  // The search is rooted at the member: its links run member → … → best.
  tree_.graft(member, search_.link_path_from_source(best));
  return true;
}

void SteinerTreeBuilder::leave(NodeId member) { tree_.leave(member); }

}  // namespace smrp::baseline
