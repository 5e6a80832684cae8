// Undirected weighted graph used as the network substrate.
//
// Nodes are dense integer ids [0, node_count). Links are undirected with a
// positive weight which this codebase interprets both as propagation delay
// (the paper's Figure 1 annotates links with delays) and as link cost for
// the tree-cost metric, matching the paper's SPF-on-delay evaluation.
//
// Storage is CSR (compressed sparse row): one packed Adjacency array plus
// per-node offsets, rebuilt lazily after a mutation batch (DESIGN.md §14).
// Mutators only append to the link list and bump per-node degrees; the
// first neighbor read after a mutation performs one O(V + E) counting-sort
// rebuild, so bulk construction is linear instead of the old per-node
// vector-of-vectors' allocation storm. Neighbor order within a node is the
// link-insertion order — exactly what the legacy per-node push_back layout
// produced — so every CSR traversal is bit-identical to the old layout.
//
// There is no persistent endpoint index: paths carry the link ids their
// searches already hold, and link_between() scans the CSR row of the
// lower-degree endpoint. Duplicate-link detection during construction
// probes a transient flat open-addressing table of (min, max) endpoint
// keys, so add_link stays O(1) amortized (a linear adjacency scan made
// hub-heavy construction O(Σ deg²)). The table exists only while the CSR
// is stale: the CSR rebuild releases it, and the first add_link after a
// read rebuilds it from the link list.
//
// The bridge tree (DESIGN.md §17, "Dead-end regions") is derived the same
// way: built by the first search that asks for it after a topology change,
// never by a graph nobody prunes a search on.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
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
///
/// Thread-safety: mutation is single-threaded; concurrent reads are safe,
/// including the first read after a mutation batch (the lazy CSR rebuild,
/// which also releases the duplicate-check table, is guarded by a mutex
/// and published with release/acquire ordering, and so is the lazy
/// bridge-tree build). Spans returned by neighbors() and the
/// bridge_tree() reference stay valid until the next mutation.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int node_count);

  Graph(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(const Graph& other);
  Graph& operator=(Graph&& other) noexcept;

  /// Bulk construction: `node_count` nodes plus all of `links` in one
  /// pass, with the same validation as add_link (and the same resulting
  /// state, topology_version() included), but building the CSR arrays
  /// directly — no lazy-rebuild debt, one O(V + E) pass.
  [[nodiscard]] static Graph from_links(int node_count,
                                        std::span<const Link> links);

  /// Append `count` fresh isolated nodes; returns the id of the first one.
  NodeId add_nodes(int count);

  /// Insert an undirected link; returns its id. Precondition: a != b, both
  /// valid, weight > 0, and no link between a and b exists yet.
  LinkId add_link(NodeId a, NodeId b, double weight);

  /// Change an existing link's weight (must stay strictly positive).
  void set_link_weight(LinkId id, double weight);

  /// Monotone counter bumped by every topology mutation (node/link
  /// insertion, weight change). Consumers that cache anything derived
  /// from the topology — RoutingOracle above all — compare this against
  /// the version they computed under and flush when it moved.
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return topology_version_;
  }

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
    if (!csr_valid_.load(std::memory_order_acquire)) rebuild_csr();
    const std::size_t begin = offsets_[static_cast<std::size_t>(n)];
    const std::size_t end = offsets_[static_cast<std::size_t>(n) + 1];
    return {packed_.data() + begin, end - begin};
  }

  /// O(1): degrees are maintained incrementally, never via the CSR.
  [[nodiscard]] int degree(NodeId n) const {
    assert(valid_node(n));
    return degree_[static_cast<std::size_t>(n)];
  }

  /// Link between u and v if one exists: a scan of the lower-degree
  /// endpoint's CSR row (built first if stale, like neighbors()). Hot
  /// paths pass the link ids their searches hold instead of calling this.
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

  /// The bridge tree of the current topology: one O(V + E) build on the
  /// first call after a topology change (keyed to topology_version()),
  /// shared by every later call. Copies rebuild their own on demand.
  [[nodiscard]] const BridgeTree& bridge_tree() const {
    if (bridges_version_.load(std::memory_order_acquire) !=
        topology_version_ + 1) {
      rebuild_bridge_tree();
    }
    return bridges_;
  }

  /// Node coordinates; empty unless a generator attached them.
  [[nodiscard]] std::span<const Point> positions() const noexcept {
    return positions_;
  }
  void set_positions(std::vector<Point> positions);

  /// Total key-table probes spent on add_link duplicate checks so far — the
  /// operation count the complexity regression test pins (one probe per
  /// insertion; the legacy adjacency scan spent O(deg) comparisons each).
  [[nodiscard]] std::uint64_t duplicate_check_ops() const noexcept {
    return dup_check_ops_;
  }

  /// Human-readable dump, for examples and debugging.
  [[nodiscard]] std::string to_string() const;

 private:
  /// Packed (min, max) endpoint key for the duplicate-link table. Never 0
  /// (the two endpoints differ, so hi > 0), which marks an empty cell.
  [[nodiscard]] static std::uint64_t endpoint_key(NodeId u, NodeId v) noexcept {
    const auto lo = static_cast<std::uint32_t>(u < v ? u : v);
    const auto hi = static_cast<std::uint32_t>(u < v ? v : u);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  /// Validate one new link and record its key, (re)building the key table
  /// first if it is missing or would pass half full; throws on a bad
  /// endpoint, a self-loop, a non-positive weight or a parallel link.
  void check_new_link(NodeId a, NodeId b, double weight);
  /// Size the key table for `links` entries at most half full and fill it
  /// from links_.
  void rebuild_keys(std::size_t links);
  void release_keys() const noexcept;
  /// Insert `key`; false if it is already present.
  bool insert_key(std::uint64_t key) noexcept;

  void rebuild_csr() const;
  void rebuild_bridge_tree() const;
  void mark_csr_stale() noexcept {
    csr_valid_.store(false, std::memory_order_relaxed);
  }
  void copy_from(const Graph& other);
  void move_from(Graph&& other) noexcept;

  std::vector<Link> links_;
  int node_count_ = 0;
  std::vector<int> degree_;  ///< per-node degree, maintained on add_link
  /// Transient duplicate-check table: a power-of-two open-addressing
  /// (linear probing) set of endpoint keys, 0 = empty cell. Empty while
  /// the CSR is valid; rebuild_csr() releases it.
  mutable std::vector<std::uint64_t> keys_;
  std::vector<Point> positions_;
  std::uint64_t topology_version_ = 0;
  std::uint64_t dup_check_ops_ = 0;

  // CSR arrays, rebuilt lazily on first read after a mutation batch.
  mutable std::vector<std::size_t> offsets_;  ///< node_count_ + 1 entries
  mutable std::vector<Adjacency> packed_;     ///< 2 · link_count entries
  mutable std::atomic<bool> csr_valid_{false};
  mutable std::mutex csr_mutex_;

  // Bridge tree, built lazily like the CSR (it reads the CSR, so its
  // mutex is always taken first).
  mutable BridgeTree bridges_;
  /// topology_version_ + 1 of the build in bridges_; 0 before the first.
  mutable std::atomic<std::uint64_t> bridges_version_{0};
  mutable std::mutex bridges_mutex_;
};

}  // namespace smrp::net
