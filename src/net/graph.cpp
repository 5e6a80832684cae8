#include "net/graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

Graph::Graph(int node_count) {
  if (node_count < 0) throw std::invalid_argument("negative node count");
  node_count_ = node_count;
  degree_.resize(static_cast<std::size_t>(node_count), 0);
}

void Graph::copy_from(const Graph& other) {
  // Copy under the source's CSR lock so a concurrent lazy rebuild in
  // another reader cannot tear the arrays mid-copy.
  std::lock_guard<std::mutex> lock(other.csr_mutex_);
  links_ = other.links_;
  node_count_ = other.node_count_;
  degree_ = other.degree_;
  // The key table is not copied: the copy's next add_link, if it ever
  // makes one, rebuilds it from links_.
  release_keys();
  positions_ = other.positions_;
  topology_version_ = other.topology_version_;
  dup_check_ops_ = other.dup_check_ops_;
  offsets_ = other.offsets_;
  packed_ = other.packed_;
  csr_valid_.store(other.csr_valid_.load(std::memory_order_acquire),
                   std::memory_order_release);
  // Nor is the bridge tree: the copy builds its own if a search asks.
  bridges_ = BridgeTree{};
  bridges_version_.store(0, std::memory_order_release);
}

void Graph::move_from(Graph&& other) noexcept {
  links_ = std::move(other.links_);
  node_count_ = other.node_count_;
  degree_ = std::move(other.degree_);
  keys_ = std::move(other.keys_);
  positions_ = std::move(other.positions_);
  topology_version_ = other.topology_version_;
  dup_check_ops_ = other.dup_check_ops_;
  offsets_ = std::move(other.offsets_);
  packed_ = std::move(other.packed_);
  csr_valid_.store(other.csr_valid_.load(std::memory_order_acquire),
                   std::memory_order_release);
  bridges_ = std::move(other.bridges_);
  bridges_version_.store(other.bridges_version_.load(std::memory_order_acquire),
                         std::memory_order_release);
}

Graph::Graph(const Graph& other) { copy_from(other); }

Graph::Graph(Graph&& other) noexcept { move_from(std::move(other)); }

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) copy_from(other);
  return *this;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) move_from(std::move(other));
  return *this;
}

Graph Graph::from_links(int node_count, std::span<const Link> links) {
  Graph g(node_count);
  g.links_.reserve(links.size());
  g.rebuild_keys(links.size());
  for (const Link& l : links) {
    g.check_new_link(l.a, l.b, l.weight);
    g.links_.push_back(l);
    ++g.degree_[static_cast<std::size_t>(l.a)];
    ++g.degree_[static_cast<std::size_t>(l.b)];
  }
  // Same observable state as the incremental path: Graph(n) starts at
  // version 0 and every add_link bumps once.
  g.topology_version_ = links.size();
  g.rebuild_csr();
  return g;
}

NodeId Graph::add_nodes(int count) {
  if (count <= 0) throw std::invalid_argument("node count must be positive");
  const NodeId first = node_count();
  // NodeId is 32-bit; a runaway generator must fail loudly, not wrap.
  if (static_cast<std::int64_t>(node_count_) + count >
      std::numeric_limits<NodeId>::max()) {
    throw std::overflow_error("node count exceeds NodeId range");
  }
  node_count_ += count;
  degree_.resize(static_cast<std::size_t>(node_count_), 0);
  ++topology_version_;
  mark_csr_stale();
  return first;
}

void Graph::check_new_link(NodeId a, NodeId b, double weight) {
  if (!valid_node(a) || !valid_node(b)) {
    throw std::out_of_range("link endpoint out of range");
  }
  if (a == b) throw std::invalid_argument("self-loop rejected");
  if (!(weight > 0.0)) throw std::invalid_argument("weight must be positive");
  // The table is empty after a read released it (or before the first
  // link); at most half full otherwise, so every probe ends.
  if (2 * (links_.size() + 1) > keys_.size()) rebuild_keys(links_.size() + 1);
  ++dup_check_ops_;
  if (!insert_key(endpoint_key(a, b))) {
    // A rejected first link after a read leaves the CSR valid: drop the
    // table again instead of keeping it behind a valid CSR.
    if (csr_valid_.load(std::memory_order_relaxed)) release_keys();
    throw std::invalid_argument("parallel link rejected");
  }
}

void Graph::release_keys() const noexcept {
  std::vector<std::uint64_t>().swap(keys_);
}

void Graph::rebuild_keys(std::size_t links) {
  // Release the old table before sizing the new one, so growth never
  // holds both.
  release_keys();
  keys_.resize(std::bit_ceil(std::max<std::size_t>(2 * links, 16)));
  for (const Link& l : links_) insert_key(endpoint_key(l.a, l.b));
}

bool Graph::insert_key(std::uint64_t key) noexcept {
  // Fibonacci hashing: the top bits of the golden-ratio product spread
  // both endpoint halves of the key across the table.
  const std::size_t mask = keys_.size() - 1;
  const int shift = std::countl_zero(keys_.size()) + 1;
  auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift);
  for (;; i = (i + 1) & mask) {
    if (keys_[i] == key) return false;
    if (keys_[i] == 0) {
      keys_[i] = key;
      return true;
    }
  }
}

LinkId Graph::add_link(NodeId a, NodeId b, double weight) {
  check_new_link(a, b, weight);
  const LinkId id = link_count();
  links_.push_back(Link{a, b, weight});
  ++degree_[static_cast<std::size_t>(a)];
  ++degree_[static_cast<std::size_t>(b)];
  ++topology_version_;
  mark_csr_stale();
  return id;
}

void Graph::set_link_weight(LinkId id, double weight) {
  if (id < 0 || id >= link_count()) {
    throw std::out_of_range("link id out of range");
  }
  if (!(weight > 0.0)) throw std::invalid_argument("weight must be positive");
  links_[static_cast<std::size_t>(id)].weight = weight;
  ++topology_version_;
  // Adjacency structure is unchanged: the CSR stays valid.
}

void Graph::rebuild_csr() const {
  std::lock_guard<std::mutex> lock(csr_mutex_);
  if (csr_valid_.load(std::memory_order_relaxed)) return;
  // A read ends the construction batch: the duplicate-check table goes
  // first, so its memory is back before the CSR arrays are sized.
  release_keys();

  const auto nodes = static_cast<std::size_t>(node_count_);
  offsets_.assign(nodes + 1, 0);
  for (std::size_t n = 0; n < nodes; ++n) {
    offsets_[n + 1] =
        offsets_[n] + static_cast<std::size_t>(degree_[n]);
  }
  packed_.resize(2 * links_.size());

  // Filling in link-id order reproduces the legacy per-node push_back
  // order exactly — the differential suite depends on it.
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (LinkId id = 0; id < link_count(); ++id) {
    const Link& l = links_[static_cast<std::size_t>(id)];
    packed_[cursor[static_cast<std::size_t>(l.a)]++] = Adjacency{l.b, id};
    packed_[cursor[static_cast<std::size_t>(l.b)]++] = Adjacency{l.a, id};
  }
  csr_valid_.store(true, std::memory_order_release);
}

void Graph::rebuild_bridge_tree() const {
  std::lock_guard<std::mutex> lock(bridges_mutex_);
  const std::uint64_t version = topology_version_ + 1;
  if (bridges_version_.load(std::memory_order_relaxed) == version) return;

  const auto nodes = static_cast<std::size_t>(node_count_);
  BridgeTree& t = bridges_;
  t.component.assign(nodes, -1);
  t.parent.clear();
  t.parent_link.clear();
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
  bridges_version_.store(version, std::memory_order_release);
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
