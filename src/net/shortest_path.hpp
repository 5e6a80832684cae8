// Single-source shortest paths (Dijkstra) with optional exclusion of failed
// or forbidden links/nodes. This is the SPF engine underlying both the
// baseline multicast protocol and SMRP's candidate-path enumeration.
#pragma once

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/graph.hpp"

namespace smrp::net {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Set of banned nodes and links, e.g. failed components or — during SMRP
/// graft enumeration — the on-tree nodes a candidate must not cross.
///
/// A set is sized from its Graph at construction; banning an id the graph
/// does not have is a hard error (it would mean the set is being used
/// against a different graph than it was built for — a mismatch the old
/// silent auto-resize used to mask). The default-constructed set is the
/// immutable "no exclusions" value.
///
/// Alongside the flags the set maintains an order-independent 64-bit
/// signature of its banned ids (XOR of per-id hashes), so equal ban sets
/// always hash equal regardless of the ban/allow call sequence that
/// produced them. RoutingOracle keys its SPF-tree cache on it.
class ExclusionSet {
 public:
  ExclusionSet() = default;
  explicit ExclusionSet(const Graph& g)
      : nodes_(static_cast<std::size_t>(g.node_count()), 0),
        links_(static_cast<std::size_t>(g.link_count()), 0) {}

  void ban_node(NodeId n) { set_flag(nodes_, n, 1, mix_node(n), banned_nodes_); }
  void allow_node(NodeId n) { set_flag(nodes_, n, 0, mix_node(n), banned_nodes_); }
  void ban_link(LinkId l) { set_flag(links_, l, 1, mix_link(l), banned_links_); }
  void allow_link(LinkId l) { set_flag(links_, l, 0, mix_link(l), banned_links_); }

  [[nodiscard]] bool node_banned(NodeId n) const {
    return n >= 0 && n < static_cast<NodeId>(nodes_.size()) &&
           nodes_[static_cast<std::size_t>(n)] != 0;
  }
  [[nodiscard]] bool link_banned(LinkId l) const {
    return l >= 0 && l < static_cast<LinkId>(links_.size()) &&
           links_[static_cast<std::size_t>(l)] != 0;
  }

  /// True when nothing is banned.
  [[nodiscard]] bool empty() const noexcept {
    return banned_nodes_ == 0 && banned_links_ == 0;
  }

  [[nodiscard]] int banned_node_count() const noexcept { return banned_nodes_; }
  [[nodiscard]] int banned_link_count() const noexcept { return banned_links_; }

  /// Order-independent hash of the banned id sets; 0 for an empty set.
  [[nodiscard]] std::uint64_t signature() const noexcept { return signature_; }

  /// Banned ids in ascending order (an O(capacity) scan — cache-miss
  /// paths only, never per-relaxation).
  [[nodiscard]] std::vector<NodeId> banned_nodes() const;
  [[nodiscard]] std::vector<LinkId> banned_links() const;

 private:
  /// The per-id hashes the signature is built from.
  [[nodiscard]] static std::uint64_t mix_node(NodeId n) noexcept {
    return mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)));
  }
  [[nodiscard]] static std::uint64_t mix_link(LinkId l) noexcept {
    return mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(l)) |
               (std::uint64_t{1} << 32));  // tag: link ids hash apart from nodes
  }

  /// splitmix64 finalizer — avalanches dense small ids into independent bits.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  template <typename Id>
  void set_flag(std::vector<char>& v, Id id, char value, std::uint64_t hash,
                int& count) {
    if (id < 0 || static_cast<std::size_t>(id) >= v.size()) {
      throw std::out_of_range(
          "ExclusionSet id out of range (set built for a different graph?)");
    }
    char& slot = v[static_cast<std::size_t>(id)];
    if (slot == value) return;  // no state change: signature stays put
    slot = value;
    signature_ ^= hash;
    count += value != 0 ? 1 : -1;
  }

  std::vector<char> nodes_;
  std::vector<char> links_;
  std::uint64_t signature_ = 0;
  int banned_nodes_ = 0;
  int banned_links_ = 0;
};

/// Result of one Dijkstra run: per-node distance and predecessor data.
struct ShortestPathTree {
  NodeId source = kNoNode;
  std::vector<double> dist;         ///< kInfinity if unreachable
  std::vector<NodeId> parent;       ///< predecessor toward the source
  std::vector<LinkId> parent_link;  ///< link to the predecessor
  std::vector<std::int32_t> hops;   ///< hop count from the source

  [[nodiscard]] bool reachable(NodeId n) const {
    return n >= 0 && static_cast<std::size_t>(n) < dist.size() &&
           dist[static_cast<std::size_t>(n)] < kInfinity;
  }

  /// Node sequence source → … → target (empty if unreachable).
  [[nodiscard]] std::vector<NodeId> path_from_source(NodeId target) const;

  /// Node sequence target → … → source (empty if unreachable).
  [[nodiscard]] std::vector<NodeId> path_to_source(NodeId target) const;

  /// Link sequence along source → … → target (empty if unreachable).
  [[nodiscard]] std::vector<LinkId> link_path_from_source(NodeId target) const;
};

/// Optional pruning of a search, A*-style (DESIGN.md §17): a relaxation
/// that would label node v with distance d is dropped when
/// d + potential[v] > limit. The heap still orders by d alone, so with a
/// consistent potential (potential[u] <= w(u,v) + potential[v] on every
/// link) every node whose true distance satisfies d + potential <= limit
/// keeps exactly the (dist, hops, parent) label an unbounded run gives it,
/// and so does every equal-cost predecessor of such a node. A null
/// potential means no bound.
struct SearchBound {
  const std::vector<double>* potential = nullptr;  ///< sized to the node count
  double limit = kInfinity;
};

/// Marks over a graph's bridge tree that prune an absorbing search of its
/// dead ends (DESIGN.md §17, "Dead-end regions"). A component is marked
/// when its subtree holds a marked node. The region below a bridge meets
/// the rest of the graph only at that bridge, so a search from outside
/// can only enter it to come back the way it came: a search given these
/// marks skips every bridge down into a subtree that holds no mark, and
/// every label outside such a subtree, settle order and tie-breaks
/// included, stays exactly what the unpruned search gives. The caller
/// marks the search's origin and every node that is or may become one of
/// its targets; a pruned search reaches exactly the covered() nodes.
class DeadEndMarks {
 public:
  /// Bind to `g`'s bridge tree with no mark set: the previous marks are
  /// undone by list, not by an O(components) fill.
  void reset(const Graph& g);

  /// Mark `n`: its component and every ancestor up to the first one
  /// already marked. Requires reset().
  void mark(NodeId n);

  /// True when `n`'s component is marked: a pruned search may reach it.
  [[nodiscard]] bool covered(NodeId n) const {
    return marks_[component(n)] != 0;
  }

  /// The graph the marks were last reset() for.
  [[nodiscard]] const Graph* graph() const noexcept { return graph_; }

  /// One byte per pop: whether `u` has a bridge down to a child
  /// component, the only kind of link dead_end() can reject.
  [[nodiscard]] bool gated(NodeId u) const noexcept {
    return tree_->has_child_bridge[static_cast<std::size_t>(u)] != 0;
  }
  /// True when `adj`, leaving a gated node, is a bridge down into a child
  /// subtree that holds no mark.
  [[nodiscard]] bool dead_end(const Adjacency& adj) const noexcept {
    const std::size_t c = component(adj.neighbor);
    return tree_->parent_link[c] == adj.link && marks_[c] == 0;
  }

 private:
  [[nodiscard]] std::size_t component(NodeId n) const noexcept {
    return static_cast<std::size_t>(
        tree_->component[static_cast<std::size_t>(n)]);
  }

  const Graph* graph_ = nullptr;
  const BridgeTree* tree_ = nullptr;
  std::vector<char> marks_;             ///< per component
  std::vector<std::int32_t> marked_;    ///< components to unmark on reset
};

/// The label a seeded run starts from (DijkstraWorkspace::run_seeded_into):
/// its source's distance and hop count, and the settled node and link the
/// source hangs off.
struct SeedLabel {
  double dist = 0.0;
  std::int32_t hops = 0;
  NodeId parent = kNoNode;
  LinkId parent_link = kNoLink;
};

/// Reusable scratch space for repeated Dijkstra runs. A single run
/// allocates four result vectors plus the queue and settled flags; hot
/// paths (candidate enumeration, per-member recovery searches) run
/// thousands of searches per trial, so they thread one workspace through
/// and every run after the first reuses the same storage. A run into the
/// workspace's own tree, and a seeded run, record the nodes they label,
/// and the next run resets only those entries, so a search that stops
/// early, is bounded or stays in one region costs what it explores, not
/// O(nodes). Whole-tree runs into caller-owned trees fill the whole tree
/// anyway and record nothing. Results are bit-for-bit identical to the
/// free functions (a property test enforces this). Not thread-safe; use
/// one workspace per thread.
class DijkstraWorkspace {
 public:
  /// Run Dijkstra and return the workspace's internal result tree. The
  /// reference stays valid (and stable) until the next run on this
  /// workspace; callers that need the result to outlive it use run_into.
  const ShortestPathTree& run(const Graph& g, NodeId source,
                              const ExclusionSet& excluded = ExclusionSet{});
  /// Absorbing run (see dijkstra_absorbing), optionally pruned by `bound`
  /// and by `dead_ends` (reset for `g`, the source covered); nodes either
  /// cuts off read as unreachable.
  const ShortestPathTree& run_absorbing(
      const Graph& g, NodeId source, const std::vector<char>& absorbing,
      const ExclusionSet& excluded = ExclusionSet{}, SearchBound bound = {},
      const DeadEndMarks* dead_ends = nullptr);

  /// Absorbing run that stops as soon as it settles its first absorbing
  /// node: the nearest one, ties to the lowest id, because the queue pops
  /// in (dist, id) order. Returns that node, or kNoNode when no absorbing
  /// node is reachable. result() then holds final labels for every node
  /// settled before the stop; other labelled nodes carry tentative
  /// distances no smaller than their true ones. `dead_ends` prunes as in
  /// run_absorbing.
  NodeId run_to_first_absorbed(const Graph& g, NodeId source,
                               const std::vector<char>& absorbing,
                               const ExclusionSet& excluded = ExclusionSet{},
                               const DeadEndMarks* dead_ends = nullptr);

  /// Same as run/run_absorbing, but fill a caller-owned tree (reusing its
  /// capacity; every entry is rewritten); only the queue/settled scratch
  /// is shared with the workspace. `dead_ends` prunes as in run_absorbing.
  void run_into(const Graph& g, NodeId source, const ExclusionSet& excluded,
                ShortestPathTree& out,
                const DeadEndMarks* dead_ends = nullptr);
  void run_absorbing_into(const Graph& g, NodeId source,
                          const std::vector<char>& absorbing,
                          const ExclusionSet& excluded, ShortestPathTree& out);

  /// Continue a whole-graph run into `out`, which is sized to `g` and
  /// holds the run's labels everywhere the seeded run cannot reach:
  /// `source` gets `seed`'s label, and `seed.parent` counts as settled, so
  /// the link back to it is never relaxed. That is the state a full run
  /// is in when it settles `source`, if `source` is the far end of a
  /// bridge from `seed.parent`: the run then labels exactly the region
  /// behind the bridge, as the full run does (DESIGN.md §16), and leaves
  /// every other entry of `out` as it was. No exclusions, no pruning.
  void run_seeded_into(const Graph& g, NodeId source, const SeedLabel& seed,
                       ShortestPathTree& out);

  /// The internal tree the last run/run_absorbing/run_to_first_absorbed
  /// filled.
  [[nodiscard]] const ShortestPathTree& result() const noexcept {
    return tree_;
  }
  /// Nodes the last run gave a finite distance, in labelling order (empty
  /// after a whole-tree run into a caller-owned tree; a seeded run lists
  /// its seed's parent first).
  [[nodiscard]] const std::vector<NodeId>& labelled() const noexcept {
    return labelled_;
  }

  /// Per-node caller scratch flags (e.g. the absorbing set), sized to
  /// `node_count` and all zero on return. A caller that sets flags must
  /// clear them again before the workspace goes back to its pool, so the
  /// next user can rely on the all-zero state without an O(nodes) fill.
  [[nodiscard]] std::vector<char>& node_flags(NodeId node_count);

  /// Pooled dead-end marks, reset for `g` (no mark set).
  [[nodiscard]] DeadEndMarks& dead_end_marks(const Graph& g);

 private:
  NodeId run_impl(const Graph& g, NodeId source, const ExclusionSet& excluded,
                  const std::vector<char>* absorbing, SearchBound bound,
                  const DeadEndMarks* dead_ends, bool stop_at_absorbed,
                  const SeedLabel* seed, ShortestPathTree& out);
  static void check_absorbing(const Graph& g, NodeId source,
                              const std::vector<char>& absorbing,
                              const DeadEndMarks* dead_ends);
  static void check_dead_ends(const Graph& g, NodeId source,
                              const DeadEndMarks* dead_ends);

  ShortestPathTree tree_;  ///< result of run()/run_absorbing()
  /// Whether the last run recorded labelled_ (so the next run resets the
  /// settled flags sparsely): false after a whole-tree run into a
  /// caller-owned tree.
  bool listed_ = false;
  /// Whether the last run wrote tree_ (so the next run also resets
  /// labelled_'s entries of tree_).
  bool tree_dirty_ = false;
  std::vector<NodeId> labelled_;                 ///< see labelled()
  std::vector<std::pair<double, NodeId>> heap_;  ///< (dist, node) min-heap
  std::vector<char> settled_;
  std::vector<char> flags_;                      ///< see node_flags()
  DeadEndMarks dead_ends_;                       ///< see dead_end_marks()
};

/// Dijkstra over the whole graph.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Dijkstra avoiding the given banned nodes/links. The source itself must
/// not be banned. Banned nodes are never relaxed or expanded.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        const ExclusionSet& excluded);

/// Dijkstra where nodes flagged in `absorbing` can be *reached* but never
/// *expanded*. For every absorbing node A this yields the shortest
/// source→A path whose intermediate nodes are all non-absorbing — exactly
/// the "graft that touches the multicast tree only at its merge node"
/// needed by SMRP's candidate enumeration (one run covers all merge
/// candidates). `excluded` is applied on top (e.g. failed links).
/// `absorbing` must be sized to the node count; the source must not be
/// absorbing or banned.
[[nodiscard]] ShortestPathTree dijkstra_absorbing(
    const Graph& g, NodeId source, const std::vector<char>& absorbing,
    const ExclusionSet& excluded = ExclusionSet{});

}  // namespace smrp::net
