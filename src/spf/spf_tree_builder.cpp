#include "spf/spf_tree_builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace smrp::baseline {

SpfTreeBuilder::SpfTreeBuilder(const Graph& g, NodeId source,
                               net::RoutingOracle* oracle)
    : g_(&g),
      tree_(g, source),
      owned_oracle_(oracle == nullptr ? std::make_unique<net::RoutingOracle>(g)
                                      : nullptr),
      spf_from_source_(
          (oracle != nullptr ? oracle : owned_oracle_.get())->spf(source)) {}

double SpfTreeBuilder::spf_delay(NodeId n) const {
  if (!g_->valid_node(n)) throw std::out_of_range("bad node");
  return spf_from_source_->dist[static_cast<std::size_t>(n)];
}

bool SpfTreeBuilder::join(NodeId member) {
  if (member == tree_.source()) {
    throw std::invalid_argument("the source cannot join its own session");
  }
  if (tree_.is_member(member)) return true;
  if (!spf_from_source_->reachable(member)) return false;

  // Walk from the member toward the source along the SPF tree, taking
  // each hop's SPF parent link; the join stops at the first on-tree
  // router (at once if the member is on-tree already).
  const net::ShortestPathTree& spf = *spf_from_source_;
  std::vector<net::LinkId> graft;
  for (NodeId cur = member; !tree_.on_tree(cur);
       cur = spf.parent[static_cast<std::size_t>(cur)]) {
    graft.push_back(spf.parent_link[static_cast<std::size_t>(cur)]);
  }
  tree_.graft(member, graft);
  return true;
}

void SpfTreeBuilder::leave(NodeId member) { tree_.leave(member); }

}  // namespace smrp::baseline
