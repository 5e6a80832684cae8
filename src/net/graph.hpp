// Undirected weighted graph used as the network substrate.
//
// Nodes are dense integer ids [0, node_count). Links are undirected with a
// positive weight which this codebase interprets both as propagation delay
// (the paper's Figure 1 annotates links with delays) and as link cost for
// the tree-cost metric, matching the paper's SPF-on-delay evaluation.
//
// A Graph is built once, from its node count and link list, and never
// changes: the persistent failures SMRP restores from are bans on this one
// substrate (ExclusionSet, SimNetwork's up/down flags), never edits to it
// (DESIGN.md §14). The constructor validates the links and derives
// everything a reader needs before it returns: CSR (compressed sparse row)
// adjacency, one packed Adjacency array plus per-node offsets filled in
// link-id order, so each node's neighbors come in the order its links
// were listed; and the bridge tree (DESIGN.md §17, "Dead-end regions").
// Apart from set_positions(), which attaches a generator's coordinates and
// touches nothing derived, every member function is a const read, so any
// number of threads may share a built graph without synchronisation.
//
// There is no endpoint index: paths carry the link ids their searches
// already hold, and link_between() scans the CSR row of the lower-degree
// endpoint.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace smrp::net {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr LinkId kNoLink = -1;

/// One undirected link between nodes `a` and `b`.
struct Link {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  double weight = 1.0;

  /// The endpoint opposite to `from`; `from` must be an endpoint.
  [[nodiscard]] NodeId other(NodeId from) const noexcept {
    assert(from == a || from == b);
    return from == a ? b : a;
  }
};

/// Adjacency entry: neighbor node plus the link leading to it.
struct Adjacency {
  NodeId neighbor = kNoNode;
  LinkId link = kNoLink;
};

/// Optional 2-D coordinates attached to nodes (used by Waxman generation
/// and by benches that report geometric properties).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double euclidean(const Point& p, const Point& q) noexcept;

/// Per node of [0, node_count), 1 when `links` join it to node 0 (node 0
/// included): the connectivity test the random generators run on a link
/// list before they build its graph. Requires node_count > 0 and every
/// endpoint in range.
[[nodiscard]] std::vector<char> joined_to_node_zero(
    int node_count, std::span<const Link> links);

/// The forest the bridges of a graph form over its 2-edge-connected
/// components (DESIGN.md §17, "Dead-end regions"). A bridge is a link
/// whose removal disconnects its endpoints; cutting every bridge leaves
/// the components, and each bridge joins a component to its parent. Every
/// connected part of the graph is rooted at the component of its
/// lowest-numbered node.
struct BridgeTree {
  std::vector<std::int32_t> component;  ///< per node: its component
  std::vector<std::int32_t> parent;     ///< per component: -1 at a root
  std::vector<LinkId> parent_link;      ///< per component: bridge to parent
  /// Per node: 1 when a bridge leads from it down to a child component.
  std::vector<char> has_child_bridge;

  [[nodiscard]] int component_count() const noexcept {
    return static_cast<int>(parent.size());
  }
};

/// Undirected weighted multigraph-free graph. Self-loops and parallel links
/// are rejected; weights must be strictly positive.
class Graph {
 public:
  /// The empty graph.
  Graph() = default;

  /// `node_count` nodes joined by `links`; link i gets id i. Throws
  /// std::invalid_argument for a negative node count, a self-loop, a
  /// non-positive weight or a second link between the same two nodes, and
  /// std::out_of_range for an endpoint outside [0, node_count). One
  /// O(V + E) pass builds the CSR adjacency and the bridge tree.
  Graph(int node_count, std::vector<Link> links);

  [[nodiscard]] int node_count() const noexcept { return node_count_; }
  [[nodiscard]] int link_count() const noexcept {
    return static_cast<int>(links_.size());
  }

  [[nodiscard]] const Link& link(LinkId id) const {
    assert(id >= 0 && id < link_count());
    return links_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::span<const Link> links() const noexcept { return links_; }

  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId n) const {
    assert(valid_node(n));
    const std::size_t begin = offsets_[static_cast<std::size_t>(n)];
    const std::size_t end = offsets_[static_cast<std::size_t>(n) + 1];
    return {packed_.data() + begin, end - begin};
  }

  [[nodiscard]] int degree(NodeId n) const {
    assert(valid_node(n));
    return static_cast<int>(offsets_[static_cast<std::size_t>(n) + 1] -
                            offsets_[static_cast<std::size_t>(n)]);
  }

  /// Link between u and v if one exists: a scan of the lower-degree
  /// endpoint's CSR row. Hot paths pass the link ids their searches hold
  /// instead of calling this.
  [[nodiscard]] std::optional<LinkId> link_between(NodeId u, NodeId v) const;

  [[nodiscard]] bool valid_node(NodeId n) const noexcept {
    return n >= 0 && n < node_count();
  }

  /// Mean node degree, 2·|E|/|V| (reported under the α axis in Fig. 9).
  [[nodiscard]] double average_degree() const noexcept;

  /// Number of nodes reachable from `start` (including `start` itself),
  /// optionally treating `banned_link` as failed. Throws std::out_of_range
  /// for an invalid start, std::invalid_argument for a bad link id
  /// (kNoLink means "no ban").
  [[nodiscard]] int reachable_count_from(NodeId start,
                                         LinkId banned_link = kNoLink) const;

  /// Connected components remaining after `banned_link` is removed
  /// (kNoLink = none). 0 for the empty graph. The shared component
  /// machinery behind connected() / connected_without().
  [[nodiscard]] int component_count(LinkId banned_link = kNoLink) const;

  /// True iff every node can reach every other node.
  [[nodiscard]] bool connected() const;

  /// True iff the graph stays connected after removing `failed_link`.
  [[nodiscard]] bool connected_without(LinkId failed_link) const;

  /// The bridge tree, built with the graph.
  [[nodiscard]] const BridgeTree& bridge_tree() const noexcept {
    return bridges_;
  }

  /// Node coordinates; empty unless a generator attached them.
  [[nodiscard]] std::span<const Point> positions() const noexcept {
    return positions_;
  }
  void set_positions(std::vector<Point> positions);

  /// Comparisons the constructor spent on duplicate-link checks: one per
  /// link, the operation count the complexity regression test pins (a
  /// scan of an endpoint's row per link costs O(deg) each).
  [[nodiscard]] std::uint64_t duplicate_check_ops() const noexcept {
    return dup_check_ops_;
  }

  /// Human-readable dump, for examples and debugging.
  [[nodiscard]] std::string to_string() const;

 private:
  void build_bridge_tree();

  int node_count_ = 0;
  std::vector<Link> links_;
  std::vector<Point> positions_;
  std::uint64_t dup_check_ops_ = 0;
  /// CSR adjacency: node n's row is packed_[offsets_[n], offsets_[n + 1]).
  std::vector<std::size_t> offsets_;
  std::vector<Adjacency> packed_;
  BridgeTree bridges_;
};

}  // namespace smrp::net
