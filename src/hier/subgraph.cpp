#include "hier/subgraph.hpp"

#include <stdexcept>
#include <utility>

namespace smrp::hier {

SubgraphView::SubgraphView(const Graph& parent,
                           std::vector<NodeId> global_nodes)
    : to_global_nodes_(std::move(global_nodes)) {
  for (NodeId local = 0; local < static_cast<NodeId>(to_global_nodes_.size());
       ++local) {
    const NodeId global = to_global_nodes_[static_cast<std::size_t>(local)];
    if (!parent.valid_node(global)) throw std::out_of_range("bad node");
    if (!to_local_.emplace(global, local).second) {
      throw std::invalid_argument("duplicate node in subgraph");
    }
  }
  std::vector<net::Link> links;
  for (LinkId l = 0; l < parent.link_count(); ++l) {
    const net::Link& link = parent.link(l);
    const auto a = to_local_.find(link.a);
    const auto b = to_local_.find(link.b);
    if (a == to_local_.end() || b == to_local_.end()) continue;
    link_to_local_.emplace(l, static_cast<LinkId>(links.size()));
    links.push_back(net::Link{a->second, b->second, link.weight});
    to_global_links_.push_back(l);
  }
  graph_ = Graph(static_cast<int>(to_global_nodes_.size()), std::move(links));
}

NodeId SubgraphView::to_local(NodeId global) const {
  const auto it = to_local_.find(global);
  if (it == to_local_.end()) throw std::out_of_range("node not in subgraph");
  return it->second;
}

NodeId SubgraphView::to_global(NodeId local) const {
  if (local < 0 || static_cast<std::size_t>(local) >= to_global_nodes_.size()) {
    throw std::out_of_range("bad local node");
  }
  return to_global_nodes_[static_cast<std::size_t>(local)];
}

std::optional<LinkId> SubgraphView::link_to_local(LinkId global) const {
  const auto it = link_to_local_.find(global);
  if (it == link_to_local_.end()) return std::nullopt;
  return it->second;
}

LinkId SubgraphView::link_to_global(LinkId local) const {
  if (local < 0 ||
      static_cast<std::size_t>(local) >= to_global_links_.size()) {
    throw std::out_of_range("bad local link");
  }
  return to_global_links_[static_cast<std::size_t>(local)];
}

}  // namespace smrp::hier
