#include "net/paths.hpp"

#include <stdexcept>
#include <unordered_set>

namespace smrp::net {

bool is_simple_path(const Graph& g, const std::vector<NodeId>& nodes) {
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!g.valid_node(nodes[i])) return false;
    if (!seen.insert(nodes[i]).second) return false;
    if (i > 0 && !g.link_between(nodes[i - 1], nodes[i])) return false;
  }
  return true;
}

double path_weight(const Graph& g, const std::vector<NodeId>& nodes) {
  double total = 0.0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const auto link = g.link_between(nodes[i - 1], nodes[i]);
    if (!link) throw std::invalid_argument("non-adjacent hop in path");
    total += g.link(*link).weight;
  }
  return total;
}

std::vector<LinkId> path_links(const Graph& g,
                               const std::vector<NodeId>& nodes) {
  std::vector<LinkId> out;
  out.reserve(nodes.empty() ? 0 : nodes.size() - 1);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const auto link = g.link_between(nodes[i - 1], nodes[i]);
    if (!link) throw std::invalid_argument("non-adjacent hop in path");
    out.push_back(*link);
  }
  return out;
}

}  // namespace smrp::net
