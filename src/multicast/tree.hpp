// Multicast delivery-tree state shared by SMRP and the SPF baseline.
//
// The tree is rooted at the source S. Every on-tree node R carries the
// paper's per-node data structure (§3.2.1):
//   * N_R        — number of members in the subtree rooted at R,
//   * SHR(S,R)   — the sharing metric, read as the Eq. 1 path sum of N
//                  (S excluded) in O(depth); nothing stores it.
// Because N_{L(R,R_u)} = N_R (all members below R use the link to R's
// upstream), that sum equals Eq. 2's SHR(S,R) = SHR(S,R_u) + N_R; the
// test suite checks the equivalence against an Eq. 2 reference tree.
// Storing no SHR keeps every mutation O(path + depth), not O(tree).
//
// Storage is sparse (DESIGN.md §14): like the paper's routers, the tree
// keeps state for on-tree nodes only, so a session costs O(tree) memory
// however large the graph is. Each on-tree node owns one Record in a
// single vector (freed records are chained on a free list and reused);
// parent and child links are slot indices into that vector, with the
// child lists encoded intrusively as first-child/next-sibling chains. An
// open-addressing node→slot index (linear probing, backward-shift
// deletion) answers the public by-NodeId queries; internal walks follow
// slot links and never hash. Off-tree nodes simply have no record and
// read as the defaults: kOffTree, kNoNode, kNoLink, 0, no children.
// Child iteration order is append order (and detachment preserves it),
// and members()/on_tree_nodes()/tree_links() are ascending by node id;
// the differential suite pins both.
//
// A tree is a set of links, and a join installs state hop by hop along
// the links its search found (§3.2.1–3.2.2): graft() and move_subtree()
// take those hop links and derive the hop nodes from their endpoints, so
// no mutation looks a link up by its endpoints.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "net/graph.hpp"

namespace smrp::mcast {

using net::Graph;
using net::LinkId;
using net::NodeId;
using net::kNoLink;
using net::kNoNode;

/// Role of a node with respect to one multicast session.
enum class NodeRole : unsigned char {
  kOffTree,  ///< not part of the session
  kRelay,    ///< forwards traffic but is not itself a receiver
  kMember,   ///< a receiver (may also forward to children)
};

/// Rooted multicast tree over a fixed substrate graph.
///
/// Mutations keep N_R consistent along the paths they touch; `validate()`
/// re-derives everything from first principles and throws on any
/// mismatch, which the property tests exploit.
class MulticastTree {
  using Slot = std::int32_t;
  static constexpr Slot kNoSlot = -1;

  /// Per-on-tree-node state. `node == kNoNode` marks a free record, whose
  /// `next_sibling` then links the free list.
  struct Record {
    NodeId node = kNoNode;
    LinkId parent_link = kNoLink;
    int n_members = 0;  ///< N_R
    Slot parent = kNoSlot;
    Slot first_child = kNoSlot;
    Slot last_child = kNoSlot;  ///< O(1) append at the tail
    Slot next_sibling = kNoSlot;
    NodeRole role = NodeRole::kOffTree;
  };

  /// One node→slot index cell; `node == kNoNode` marks an empty cell.
  struct Cell {
    NodeId node = kNoNode;
    Slot slot = kNoSlot;
  };

 public:
  /// Lightweight forward range over one node's children (no allocation):
  /// walks the intrusive next-sibling chain in append order. It refers to
  /// the tree's record vector, not its storage, so it stays valid while
  /// the tree grows.
  class ChildRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NodeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const NodeId*;
      using reference = NodeId;

      iterator() = default;
      iterator(const std::vector<Record>* records, Slot at) noexcept
          : records_(records), at_(at) {}

      [[nodiscard]] NodeId operator*() const noexcept {
        return (*records_)[static_cast<std::size_t>(at_)].node;
      }
      iterator& operator++() noexcept {
        at_ = (*records_)[static_cast<std::size_t>(at_)].next_sibling;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator old = *this;
        ++*this;
        return old;
      }
      [[nodiscard]] bool operator==(const iterator& o) const noexcept {
        return at_ == o.at_;
      }
      [[nodiscard]] bool operator!=(const iterator& o) const noexcept {
        return at_ != o.at_;
      }

     private:
      const std::vector<Record>* records_ = nullptr;
      Slot at_ = kNoSlot;
    };

    ChildRange(const std::vector<Record>* records, Slot first) noexcept
        : records_(records), first_(first) {}

    [[nodiscard]] iterator begin() const noexcept { return {records_, first_}; }
    [[nodiscard]] iterator end() const noexcept { return {records_, kNoSlot}; }
    [[nodiscard]] bool empty() const noexcept { return first_ == kNoSlot; }
    /// O(children) chain walk.
    [[nodiscard]] std::size_t size() const noexcept {
      std::size_t n = 0;
      for (const NodeId child : *this) {
        (void)child;
        ++n;
      }
      return n;
    }
    /// Materialized copy, for call sites that need random access.
    [[nodiscard]] std::vector<NodeId> to_vector() const {
      return {begin(), end()};
    }

   private:
    const std::vector<Record>* records_;
    Slot first_;
  };

  MulticastTree(const Graph& graph, NodeId source);

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  // -- Queries ------------------------------------------------------------

  [[nodiscard]] bool on_tree(NodeId n) const {
    return role(n) != NodeRole::kOffTree;
  }
  [[nodiscard]] bool is_member(NodeId n) const {
    return role(n) == NodeRole::kMember;
  }
  [[nodiscard]] NodeRole role(NodeId n) const {
    const Slot s = checked_find(n);
    return s == kNoSlot ? NodeRole::kOffTree : rec(s).role;
  }

  /// Upstream (toward-source) neighbor; kNoNode for the source / off-tree.
  [[nodiscard]] NodeId parent(NodeId n) const {
    const Slot s = checked_find(n);
    if (s == kNoSlot || rec(s).parent == kNoSlot) return kNoNode;
    return rec(rec(s).parent).node;
  }
  [[nodiscard]] LinkId parent_link(NodeId n) const {
    const Slot s = checked_find(n);
    return s == kNoSlot ? kNoLink : rec(s).parent_link;
  }
  [[nodiscard]] ChildRange children(NodeId n) const {
    const Slot s = checked_find(n);
    return {&records_, s == kNoSlot ? kNoSlot : rec(s).first_child};
  }

  /// N_R: members in the subtree rooted at `n` (counting `n` itself if it
  /// is a member). 0 for off-tree nodes.
  [[nodiscard]] int subtree_members(NodeId n) const {
    const Slot s = checked_find(n);
    return s == kNoSlot ? 0 : rec(s).n_members;
  }

  /// SHR(S,R) per Eq. 1: N summed over `n`'s path to the source, in
  /// O(depth). 0 for the source; throws for off-tree nodes, and
  /// std::overflow_error if the sum passes int range.
  [[nodiscard]] int shr(NodeId n) const;

  /// SHR(S,`merge_candidate`) as it would read if the members currently in
  /// `member`'s subtree were removed from `member`'s present path — the
  /// adjustment §3.2.3 requires before comparing paths during reshaping.
  [[nodiscard]] int shr_excluding_subtree(NodeId merge_candidate,
                                          NodeId member) const;

  /// All current members, ascending by id.
  [[nodiscard]] std::vector<NodeId> members() const;
  [[nodiscard]] int member_count() const noexcept { return member_count_; }

  /// All on-tree nodes, ascending by id (includes the source).
  [[nodiscard]] std::vector<NodeId> on_tree_nodes() const;
  [[nodiscard]] int on_tree_count() const noexcept { return on_tree_count_; }

  /// On-tree node sequence n → … → source. Empty if off-tree.
  [[nodiscard]] std::vector<NodeId> path_to_source(NodeId n) const;

  /// Sum of link weights along the on-tree path n → source (the paper's
  /// end-to-end delay D(S,R)). Throws if off-tree.
  [[nodiscard]] double delay_to_source(NodeId n) const;
  [[nodiscard]] int hops_to_source(NodeId n) const;

  /// True iff `ancestor` lies on `n`'s path to the source (or equals `n`).
  [[nodiscard]] bool is_ancestor_or_self(NodeId ancestor, NodeId n) const;

  /// Links currently carrying the session, ordered by their downstream
  /// node's id.
  [[nodiscard]] std::vector<LinkId> tree_links() const;

  /// Total tree cost: Σ link weights over tree links (paper's Cost_T).
  [[nodiscard]] double total_cost() const;

  /// Per-node survival flags after `failed_link` dies: flag[n] is true iff
  /// n is on-tree and its on-tree path to the source avoids the link.
  [[nodiscard]] std::vector<char> surviving_after_link(LinkId failed_link) const;

  /// Same for a failed node (the node itself does not survive).
  [[nodiscard]] std::vector<char> surviving_after_node(NodeId failed_node) const;

  // -- Mutations ----------------------------------------------------------

  /// Join `member` along `links`: the hop links member → … → merge node,
  /// as the search that chose the path holds them. The hop nodes follow
  /// from the link endpoints, each link touching the node before it (an
  /// O(1) check per hop; nothing is looked up by endpoints). The merge
  /// node, which the last link reaches, must already be on-tree, every
  /// earlier node off-tree, and no node may repeat. A join of an
  /// already-on-tree node passes no links. Throws std::invalid_argument
  /// and leaves the tree unchanged on any violation, kNoLink and ids
  /// outside the graph included.
  void graft(NodeId member, std::span<const LinkId> links);

  /// Leave: clears the member flag, prunes now-useless relay chains.
  void leave(NodeId member);

  /// Reshaping support: detach the subtree rooted at `node` from its old
  /// upstream path and re-attach it along `links` (node → … → merge node;
  /// same contract as graft(), except that `node` itself is on-tree and
  /// the merge node must lie outside `node`'s own subtree). Keeps all of
  /// `node`'s descendants attached below it.
  void move_subtree(NodeId node, std::span<const LinkId> links);

  /// Persistent-failure surgery: drop the entire component disconnected by
  /// `failed_link` from the tree (its nodes become off-tree; in the real
  /// protocol their soft state times out). Returns the members that lost
  /// service, ascending by id. No-op (empty result) if the link is not a
  /// tree link — kNoLink and ids outside the graph included.
  std::vector<NodeId> sever(LinkId failed_link);

  /// Same for an incapacitated node: the node and its whole subtree leave
  /// the tree. Returns the members that lost service and can still seek
  /// recovery — i.e. excluding the dead node itself. No-op for off-tree
  /// nodes; severing the source clears the entire session.
  std::vector<NodeId> sever_node(NodeId failed_node);

  /// Full invariant re-derivation, the node→slot index included; throws
  /// std::logic_error on any breakage.
  void validate() const;

 private:
  [[nodiscard]] const Record& rec(Slot s) const noexcept {
    return records_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] Record& rec(Slot s) noexcept {
    return records_[static_cast<std::size_t>(s)];
  }

  /// The slot of on-tree node `n`, or kNoSlot; throws for bad ids.
  [[nodiscard]] Slot checked_find(NodeId n) const;
  /// The slot of `n` (a valid id), or kNoSlot if it is off-tree.
  [[nodiscard]] Slot find(NodeId n) const noexcept;
  /// The source's slot, or kNoSlot once severing the source ended the
  /// session.
  [[nodiscard]] Slot source_slot() const noexcept;
  [[nodiscard]] std::size_t home_cell(NodeId n) const noexcept;

  /// A fresh record for off-tree node `n` (from the free list if it has
  /// one), indexed and counted on-tree, every other field at its default.
  Slot acquire(NodeId n);
  /// Un-index `s`, uncount it and return it to the free list with no state.
  void release(Slot s);
  /// Index `n` at `s`, doubling the table first if it would pass half full.
  void index_insert(NodeId n, Slot s);
  /// Linear-probe `cell` into the first empty cell from its home.
  void index_place(Cell cell);
  void index_erase(NodeId n);

  /// Append `child` at the tail of `parent`'s intrusive child list and
  /// make `parent` its parent.
  void append_child(Slot parent, Slot child);
  /// Unlink `child` from its parent's list (sibling order preserved) and
  /// clear its parent link.
  void detach_from_parent(Slot child);

  /// The node `links` reach from `from`, after checking the path
  /// contract graft() and move_subtree() share: every link is a graph
  /// link touching the hop node before it, every node between the first
  /// and the last is off-tree, the last is on-tree, and no node repeats.
  /// Throws std::invalid_argument. O(hops²), allocation-free.
  [[nodiscard]] NodeId checked_path_end(NodeId from,
                                        std::span<const LinkId> links) const;

  void add_member_count_upward(Slot from, int delta);
  void prune_upward_from(Slot s);
  [[nodiscard]] bool is_ancestor_or_self_slot(Slot ancestor, Slot s) const;
  /// Drop the subtree rooted at `root` (already detached): every record is
  /// released; members are appended to `lost` unless they equal `skip`.
  void drop_subtree(Slot root, NodeId skip, std::vector<NodeId>& lost);
  /// The on-tree endpoint of `link` whose parent link it is, or kNoSlot.
  [[nodiscard]] Slot downstream_of(LinkId link) const;
  /// Survival flags when the subtree rooted at `cut` (if any) is lost.
  [[nodiscard]] std::vector<char> surviving_except(Slot cut) const;

  const Graph* graph_;
  NodeId source_;
  int member_count_ = 0;
  int on_tree_count_ = 0;

  std::vector<Record> records_;
  Slot free_head_ = kNoSlot;
  /// Power-of-two node→slot table holding on_tree_count_ cells, at most
  /// half full.
  std::vector<Cell> cells_;
};

}  // namespace smrp::mcast
