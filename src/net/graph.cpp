#include "net/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace smrp::net {

double euclidean(const Point& p, const Point& q) noexcept {
  const double dx = p.x - q.x;
  const double dy = p.y - q.y;
  return std::sqrt(dx * dx + dy * dy);
}

std::vector<char> joined_to_node_zero(int node_count,
                                      std::span<const Link> links) {
  // Union-find with path halving; each set is named by its lowest node.
  std::vector<NodeId> up(static_cast<std::size_t>(node_count));
  for (NodeId n = 0; n < node_count; ++n) up[static_cast<std::size_t>(n)] = n;
  const auto root = [&up](NodeId n) {
    while (up[static_cast<std::size_t>(n)] != n) {
      NodeId& next = up[static_cast<std::size_t>(n)];
      next = up[static_cast<std::size_t>(next)];
      n = next;
    }
    return n;
  };
  for (const Link& l : links) {
    const NodeId a = root(l.a);
    const NodeId b = root(l.b);
    up[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
  std::vector<char> joined(static_cast<std::size_t>(node_count), 0);
  for (NodeId n = 0; n < node_count; ++n) {
    joined[static_cast<std::size_t>(n)] = root(n) == 0 ? 1 : 0;
  }
  return joined;
}

Graph::Graph(int node_count, std::vector<Link> links)
    : node_count_(node_count), links_(std::move(links)) {
  if (node_count < 0) throw std::invalid_argument("negative node count");
  const auto nodes = static_cast<std::size_t>(node_count);
  offsets_.assign(nodes + 1, 0);
  for (const Link& l : links_) {
    if (!valid_node(l.a) || !valid_node(l.b)) {
      throw std::out_of_range("link endpoint out of range");
    }
    if (l.a == l.b) throw std::invalid_argument("self-loop rejected");
    if (!(l.weight > 0.0)) {
      throw std::invalid_argument("weight must be positive");
    }
    ++offsets_[static_cast<std::size_t>(l.a) + 1];
    ++offsets_[static_cast<std::size_t>(l.b) + 1];
  }
  for (std::size_t n = 0; n < nodes; ++n) offsets_[n + 1] += offsets_[n];

  // Filling in link-id order gives each node its links in list order.
  packed_.resize(2 * links_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (LinkId id = 0; id < link_count(); ++id) {
    const Link& l = links_[static_cast<std::size_t>(id)];
    packed_[cursor[static_cast<std::size_t>(l.a)]++] = Adjacency{l.b, id};
    packed_[cursor[static_cast<std::size_t>(l.b)]++] = Adjacency{l.a, id};
  }

  // Parallel links share their lower endpoint's row: scanning each row for
  // the higher neighbors, stamped with the row's node, checks every link
  // once.
  std::vector<NodeId> seen_from(nodes, kNoNode);
  for (NodeId u = 0; u < node_count; ++u) {
    for (const Adjacency& adj : neighbors(u)) {
      if (adj.neighbor < u) continue;
      NodeId& stamp = seen_from[static_cast<std::size_t>(adj.neighbor)];
      if (stamp == u) throw std::invalid_argument("parallel link rejected");
      stamp = u;
    }
  }
  build_bridge_tree();
}

void Graph::build_bridge_tree() {
  const auto nodes = static_cast<std::size_t>(node_count_);
  BridgeTree& t = bridges_;
  t.component.assign(nodes, -1);
  t.has_child_bridge.assign(nodes, 0);

  // Iterative Tarjan over the CSR. low[v] is the earliest discovery time
  // a back link from v's DFS subtree reaches; when it is no earlier than
  // v's own, the link v came in by is a bridge and v heads a component:
  // the nodes discovered since v (still on `open`) are exactly its
  // members.
  std::vector<std::int32_t> order(nodes, -1);
  std::vector<std::int32_t> low(nodes, 0);
  struct Frame {
    NodeId node;
    LinkId via;  ///< link the DFS arrived by; kNoLink at the root
    std::size_t next;
  };
  std::vector<Frame> stack;
  std::vector<NodeId> open;
  std::vector<NodeId> anchor;  ///< per component: parent-side endpoint
  std::int32_t clock = 0;
  for (NodeId root = 0; root < node_count_; ++root) {
    const auto r = static_cast<std::size_t>(root);
    if (order[r] >= 0) continue;
    order[r] = low[r] = clock++;
    open.push_back(root);
    stack.push_back(Frame{root, kNoLink, 0});
    while (!stack.empty()) {
      Frame& top = stack.back();
      const auto u = static_cast<std::size_t>(top.node);
      const std::span<const Adjacency> row = neighbors(top.node);
      if (top.next < row.size()) {
        const Adjacency adj = row[top.next++];
        if (adj.link == top.via) continue;
        const auto v = static_cast<std::size_t>(adj.neighbor);
        if (order[v] < 0) {
          order[v] = low[v] = clock++;
          open.push_back(adj.neighbor);
          stack.push_back(Frame{adj.neighbor, adj.link, 0});  // `top` dangles
        } else {
          low[u] = std::min(low[u], order[v]);
        }
        continue;
      }
      const Frame done = top;
      stack.pop_back();
      const NodeId up = stack.empty() ? kNoNode : stack.back().node;
      if (up != kNoNode) {
        const auto p = static_cast<std::size_t>(up);
        low[p] = std::min(low[p], low[u]);
        if (low[u] <= order[p]) continue;  // u's link to `up` is on a cycle
      }
      const auto c = static_cast<std::int32_t>(t.parent.size());
      NodeId x = kNoNode;
      do {
        x = open.back();
        open.pop_back();
        t.component[static_cast<std::size_t>(x)] = c;
      } while (x != done.node);
      t.parent.push_back(-1);
      t.parent_link.push_back(done.via);
      anchor.push_back(up);
    }
  }

  // Each component hangs off the node its DFS entered it from; a part's
  // root, the component of its lowest-numbered node, has no such node.
  for (std::size_t c = 0; c < anchor.size(); ++c) {
    if (anchor[c] == kNoNode) continue;
    const auto up = static_cast<std::size_t>(anchor[c]);
    t.parent[c] = t.component[up];
    t.has_child_bridge[up] = 1;
  }
}

std::optional<LinkId> Graph::link_between(NodeId u, NodeId v) const {
  if (!valid_node(u) || !valid_node(v) || u == v) return std::nullopt;
  const bool from_u = degree(u) <= degree(v);
  const NodeId to = from_u ? v : u;
  for (const Adjacency& adj : neighbors(from_u ? u : v)) {
    if (adj.neighbor == to) return adj.link;
  }
  return std::nullopt;
}

double Graph::average_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return 2.0 * link_count() / node_count();
}

int Graph::reachable_count_from(NodeId start, LinkId banned_link) const {
  if (!valid_node(start)) {
    throw std::out_of_range("reachable_count_from: invalid start node");
  }
  if (banned_link != kNoLink &&
      (banned_link < 0 || banned_link >= link_count())) {
    throw std::invalid_argument("reachable_count_from: bad banned link id");
  }
  std::vector<char> seen(static_cast<std::size_t>(node_count()), 0);
  std::vector<NodeId> stack{start};
  seen[static_cast<std::size_t>(start)] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const Adjacency& adj : neighbors(n)) {
      if (adj.link == banned_link) continue;
      if (!seen[static_cast<std::size_t>(adj.neighbor)]) {
        seen[static_cast<std::size_t>(adj.neighbor)] = 1;
        ++reached;
        stack.push_back(adj.neighbor);
      }
    }
  }
  return reached;
}

int Graph::component_count(LinkId banned_link) const {
  if (banned_link != kNoLink &&
      (banned_link < 0 || banned_link >= link_count())) {
    throw std::invalid_argument("component_count: bad banned link id");
  }
  const auto nodes = static_cast<std::size_t>(node_count());
  std::vector<char> seen(nodes, 0);
  std::vector<NodeId> stack;
  int components = 0;
  for (NodeId root = 0; root < node_count(); ++root) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    ++components;
    seen[static_cast<std::size_t>(root)] = 1;
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const Adjacency& adj : neighbors(n)) {
        if (adj.link == banned_link) continue;
        if (!seen[static_cast<std::size_t>(adj.neighbor)]) {
          seen[static_cast<std::size_t>(adj.neighbor)] = 1;
          stack.push_back(adj.neighbor);
        }
      }
    }
  }
  return components;
}

bool Graph::connected() const {
  return node_count() == 0 || component_count(kNoLink) == 1;
}

bool Graph::connected_without(LinkId failed_link) const {
  if (node_count() == 0) return true;
  if (failed_link == kNoLink) return connected();
  return component_count(failed_link) == 1;
}

void Graph::set_positions(std::vector<Point> positions) {
  if (static_cast<int>(positions.size()) != node_count()) {
    throw std::invalid_argument("position count != node count");
  }
  positions_ = std::move(positions);
}

std::string Graph::to_string() const {
  std::ostringstream out;
  out << "Graph{nodes=" << node_count() << ", links=" << link_count()
      << ", avg_degree=" << average_degree() << "}\n";
  for (LinkId id = 0; id < link_count(); ++id) {
    const Link& l = link(id);
    out << "  L" << id << ": " << l.a << " -- " << l.b << " (w=" << l.weight
        << ")\n";
  }
  return out.str();
}

}  // namespace smrp::net
