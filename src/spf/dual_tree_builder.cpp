#include "spf/dual_tree_builder.hpp"

#include <stdexcept>

namespace smrp::baseline {

namespace {

/// The on-tree links `n` → … → source, read from the tree's parent links.
std::vector<LinkId> links_to_source(const MulticastTree& tree, NodeId n) {
  std::vector<LinkId> out;
  for (NodeId cur = n; cur != tree.source(); cur = tree.parent(cur)) {
    out.push_back(tree.parent_link(cur));
  }
  return out;
}

}  // namespace

DualTreeBuilder::DualTreeBuilder(const Graph& g, NodeId source,
                                 net::RoutingOracle* oracle)
    : g_(&g),
      blue_(g, source),
      red_(g, source),
      owned_oracle_(oracle == nullptr ? std::make_unique<net::RoutingOracle>(g)
                                      : nullptr),
      oracle_(oracle != nullptr ? oracle : owned_oracle_.get()),
      spf_from_source_(oracle_->spf(source)),
      protected_(static_cast<std::size_t>(g.node_count()), 0) {}

bool DualTreeBuilder::join(NodeId member) {
  if (member == blue_.source()) {
    throw std::invalid_argument("the source cannot join its own session");
  }
  if (blue_.is_member(member)) return true;
  if (!spf_from_source_->reachable(member)) return false;

  // Blue: plain SPF join (PIM semantics along the source-rooted SPF tree),
  // along each hop's SPF parent link up to the first on-tree router.
  const net::ShortestPathTree& spf = *spf_from_source_;
  std::vector<LinkId> graft;
  for (NodeId cur = member; !blue_.on_tree(cur);
       cur = spf.parent[static_cast<std::size_t>(cur)]) {
    graft.push_back(spf.parent_link[static_cast<std::size_t>(cur)]);
  }
  blue_.graft(member, graft);

  // Red: shortest path to the source avoiding the member's blue path
  // (links and interior nodes), grafted onto the red tree at its first
  // intersection. Falls back to the unconstrained path when the graph is
  // not 2-connected around this member.
  const std::vector<LinkId> blue_links = links_to_source(blue_, member);
  net::ExclusionSet excluded(*g_);
  for (NodeId n = blue_.parent(member); n != blue_.source();
       n = blue_.parent(n)) {
    excluded.ban_node(n);
  }
  for (const LinkId link : blue_links) excluded.ban_link(link);
  net::RoutingOracle::TreePtr red_search = oracle_->spf(member, excluded);
  if (!red_search->reachable(blue_.source())) {
    red_search = oracle_->spf(member);
  }

  if (!red_.is_member(member)) {
    // The search is rooted at the member, so its link path "from the
    // source" runs member → … → source.
    const std::vector<LinkId> to_source =
        red_search->link_path_from_source(blue_.source());
    graft.clear();
    for (NodeId cur = member; !red_.on_tree(cur);) {
      const LinkId hop = to_source[graft.size()];
      graft.push_back(hop);
      cur = g_->link(hop).other(cur);
    }
    red_.graft(member, graft);
  }

  // Protection is judged on the *realised* trees: grafting onto existing
  // red branches (shared with other members) can reintroduce overlap, so
  // the computed disjoint path alone is not a guarantee.
  const std::vector<LinkId> red_links = links_to_source(red_, member);
  bool disjoint = true;
  for (const LinkId bl : blue_links) {
    for (const LinkId rl : red_links) {
      if (bl == rl) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) break;
  }
  protected_[static_cast<std::size_t>(member)] = disjoint ? 1 : 0;
  return true;
}

bool DualTreeBuilder::is_protected(NodeId member) const {
  return protected_[static_cast<std::size_t>(member)] != 0;
}

bool DualTreeBuilder::survives_link(NodeId member, LinkId failed_link) const {
  if (!blue_.is_member(member)) {
    throw std::invalid_argument("not a member");
  }
  const auto blue_alive = blue_.surviving_after_link(failed_link);
  if (blue_alive[static_cast<std::size_t>(member)]) return true;
  const auto red_alive = red_.surviving_after_link(failed_link);
  return red_alive[static_cast<std::size_t>(member)] != 0;
}

}  // namespace smrp::baseline
