#include "multicast/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace smrp::mcast {

namespace {

// A new tree holds 16 records and a 32-cell index before it first grows:
// enough for the small trees the distributed engine snapshots on every
// join without a reallocation, and still O(1) next to any graph.
constexpr std::size_t kInitialRecords = 16;
constexpr std::size_t kInitialCells = 32;

}  // namespace

MulticastTree::MulticastTree(const Graph& graph, NodeId source)
    : graph_(&graph), source_(source) {
  if (!graph.valid_node(source)) throw std::out_of_range("bad source");
  records_.reserve(kInitialRecords);
  cells_.resize(kInitialCells);
  // The source forwards but is not a receiver.
  rec(acquire(source_)).role = NodeRole::kRelay;
}

MulticastTree::Slot MulticastTree::checked_find(NodeId n) const {
  if (!graph_->valid_node(n)) throw std::out_of_range("bad node id");
  return find(n);
}

std::size_t MulticastTree::home_cell(NodeId n) const noexcept {
  // Fibonacci hashing: the golden-ratio multiply spreads consecutive ids
  // across the table.
  const std::uint64_t h =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)) *
      0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> 32) & (cells_.size() - 1);
}

MulticastTree::Slot MulticastTree::find(NodeId n) const noexcept {
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t i = home_cell(n);; i = (i + 1) & mask) {
    const Cell& cell = cells_[i];
    if (cell.node == n) return cell.slot;
    if (cell.node == kNoNode) return kNoSlot;
  }
}

MulticastTree::Slot MulticastTree::source_slot() const noexcept {
  return find(source_);
}

void MulticastTree::index_insert(NodeId n, Slot s) {
  if (2 * (static_cast<std::size_t>(on_tree_count_) + 1) > cells_.size()) {
    std::vector<Cell> old(cells_.size() * 2);
    old.swap(cells_);
    for (const Cell& cell : old) {
      if (cell.node != kNoNode) index_place(cell);
    }
  }
  index_place(Cell{n, s});
}

void MulticastTree::index_place(Cell cell) {
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home_cell(cell.node);
  while (cells_[i].node != kNoNode) i = (i + 1) & mask;
  cells_[i] = cell;
}

void MulticastTree::index_erase(NodeId n) {
  const std::size_t mask = cells_.size() - 1;
  std::size_t hole = home_cell(n);
  while (cells_[hole].node != n) hole = (hole + 1) & mask;
  // Backward shift: a later cell of the same probe run moves into the
  // hole when the hole lies between its home and where it sits, so every
  // lookup still reaches its key without crossing an empty cell.
  for (std::size_t next = (hole + 1) & mask; cells_[next].node != kNoNode;
       next = (next + 1) & mask) {
    const std::size_t home = home_cell(cells_[next].node);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      cells_[hole] = cells_[next];
      hole = next;
    }
  }
  cells_[hole] = Cell{};
}

MulticastTree::Slot MulticastTree::acquire(NodeId n) {
  Slot s = free_head_;
  if (s != kNoSlot) {
    free_head_ = rec(s).next_sibling;
    rec(s).next_sibling = kNoSlot;
  } else {
    s = static_cast<Slot>(records_.size());
    records_.emplace_back();
  }
  index_insert(n, s);  // reads on_tree_count_ before it counts `n`
  rec(s).node = n;
  ++on_tree_count_;
  return s;
}

void MulticastTree::release(Slot s) {
  index_erase(rec(s).node);
  rec(s) = Record{};
  rec(s).next_sibling = free_head_;
  free_head_ = s;
  --on_tree_count_;
}

void MulticastTree::append_child(Slot parent, Slot child) {
  Record& p = rec(parent);
  Record& c = rec(child);
  c.parent = parent;
  c.next_sibling = kNoSlot;
  if (p.first_child == kNoSlot) {
    p.first_child = child;
  } else {
    rec(p.last_child).next_sibling = child;
  }
  p.last_child = child;
}

void MulticastTree::detach_from_parent(Slot child) {
  Record& c = rec(child);
  if (c.parent == kNoSlot) return;
  Record& p = rec(c.parent);
  Slot prev = kNoSlot;
  for (Slot cur = p.first_child; cur != kNoSlot;
       prev = cur, cur = rec(cur).next_sibling) {
    if (cur != child) continue;
    if (prev == kNoSlot) {
      p.first_child = c.next_sibling;
    } else {
      rec(prev).next_sibling = c.next_sibling;
    }
    if (p.last_child == child) p.last_child = prev;
    break;
  }
  c.next_sibling = kNoSlot;
  c.parent = kNoSlot;
  c.parent_link = kNoLink;
}

int MulticastTree::shr(NodeId n) const {
  const Slot s = checked_find(n);
  if (s == kNoSlot) {
    throw std::invalid_argument("SHR queried for off-tree node");
  }
  // Eq. 1: N summed over the path, the source's own excluded. SHR is
  // bounded by depth × members, which can pass 2^31 on a degenerate
  // deep-chain session at 100k-node scale — accumulate wide and refuse to
  // return a wrapped value (int keeps the on-wire/protocol width).
  std::int64_t total = 0;
  for (Slot cur = s; rec(cur).parent != kNoSlot; cur = rec(cur).parent) {
    total += rec(cur).n_members;
  }
  if (total > std::numeric_limits<int>::max()) {
    throw std::overflow_error("SHR exceeds int range");
  }
  return static_cast<int>(total);
}

std::vector<NodeId> MulticastTree::members() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(member_count_));
  for (const Record& r : records_) {
    if (r.role == NodeRole::kMember) out.push_back(r.node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> MulticastTree::on_tree_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(on_tree_count_));
  for (const Record& r : records_) {
    if (r.node != kNoNode) out.push_back(r.node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> MulticastTree::path_to_source(NodeId n) const {
  std::vector<NodeId> out;
  for (Slot s = checked_find(n); s != kNoSlot; s = rec(s).parent) {
    out.push_back(rec(s).node);
  }
  return out;
}

double MulticastTree::delay_to_source(NodeId n) const {
  const Slot s = checked_find(n);
  if (s == kNoSlot) throw std::invalid_argument("off-tree node has no delay");
  double total = 0.0;
  for (Slot cur = s; rec(cur).parent != kNoSlot; cur = rec(cur).parent) {
    total += graph_->link(rec(cur).parent_link).weight;
  }
  return total;
}

int MulticastTree::hops_to_source(NodeId n) const {
  const Slot s = checked_find(n);
  if (s == kNoSlot) throw std::invalid_argument("off-tree node has no path");
  int hops = 0;
  for (Slot cur = s; rec(cur).parent != kNoSlot; cur = rec(cur).parent) {
    ++hops;
  }
  return hops;
}

bool MulticastTree::is_ancestor_or_self_slot(Slot ancestor, Slot s) const {
  for (Slot cur = s; cur != kNoSlot; cur = rec(cur).parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

bool MulticastTree::is_ancestor_or_self(NodeId ancestor, NodeId n) const {
  const Slot s = checked_find(n);
  if (s == kNoSlot) return false;
  const Slot a = checked_find(ancestor);
  return a != kNoSlot && is_ancestor_or_self_slot(a, s);
}

int MulticastTree::shr_excluding_subtree(NodeId merge_candidate,
                                         NodeId member) const {
  const Slot merge = checked_find(merge_candidate);
  if (merge == kNoSlot) {
    throw std::invalid_argument("merge candidate must be on-tree");
  }
  const Slot moved = checked_find(member);
  const int moving = moved == kNoSlot ? 0 : rec(moved).n_members;
  // Same path-sum bound as shr(): accumulate wide, fail loudly rather
  // than wrap on degenerate deep chains.
  std::int64_t total = 0;
  // Nodes that currently serve `member`'s subtree would lose its members
  // once the subtree moves away; discount them (§3.2.3 adjustment). Once
  // the walk reaches one of them, every node above it serves it too.
  bool serves_member = false;
  for (Slot cur = merge; rec(cur).parent != kNoSlot; cur = rec(cur).parent) {
    serves_member = serves_member ||
                    (moved != kNoSlot && is_ancestor_or_self_slot(cur, moved));
    total += rec(cur).n_members - (serves_member ? moving : 0);
  }
  if (total > std::numeric_limits<int>::max()) {
    throw std::overflow_error("SHR exceeds int range");
  }
  return static_cast<int>(total);
}

std::vector<LinkId> MulticastTree::tree_links() const {
  std::vector<std::pair<NodeId, LinkId>> by_node;
  by_node.reserve(static_cast<std::size_t>(on_tree_count_));
  for (const Record& r : records_) {
    if (r.node != kNoNode && r.node != source_) {
      by_node.emplace_back(r.node, r.parent_link);
    }
  }
  std::sort(by_node.begin(), by_node.end());
  std::vector<LinkId> out;
  out.reserve(by_node.size());
  for (const auto& [node, link] : by_node) out.push_back(link);
  return out;
}

double MulticastTree::total_cost() const {
  double total = 0.0;
  for (const LinkId link : tree_links()) total += graph_->link(link).weight;
  return total;
}

MulticastTree::Slot MulticastTree::downstream_of(LinkId link) const {
  if (link < 0 || link >= graph_->link_count()) return kNoSlot;
  const net::Link& l = graph_->link(link);
  for (const NodeId end : {l.a, l.b}) {
    const Slot s = find(end);
    if (s != kNoSlot && rec(s).parent_link == link) return s;
  }
  return kNoSlot;
}

std::vector<char> MulticastTree::surviving_except(Slot cut) const {
  std::vector<char> alive(static_cast<std::size_t>(graph_->node_count()), 0);
  alive[static_cast<std::size_t>(source_)] = 1;
  // DFS downward from the source, not entering `cut`.
  std::vector<Slot> stack;
  if (const Slot root = source_slot(); root != kNoSlot) stack.push_back(root);
  while (!stack.empty()) {
    const Slot s = stack.back();
    stack.pop_back();
    for (Slot c = rec(s).first_child; c != kNoSlot; c = rec(c).next_sibling) {
      if (c == cut) continue;
      alive[static_cast<std::size_t>(rec(c).node)] = 1;
      stack.push_back(c);
    }
  }
  return alive;
}

std::vector<char> MulticastTree::surviving_after_link(LinkId failed_link) const {
  return surviving_except(downstream_of(failed_link));
}

std::vector<char> MulticastTree::surviving_after_node(NodeId failed_node) const {
  if (failed_node == source_) {
    // Source loss kills the session.
    return std::vector<char>(static_cast<std::size_t>(graph_->node_count()),
                             0);
  }
  return surviving_except(graph_->valid_node(failed_node) ? find(failed_node)
                                                          : kNoSlot);
}

void MulticastTree::add_member_count_upward(Slot from, int delta) {
  for (Slot cur = from; cur != kNoSlot; cur = rec(cur).parent) {
    rec(cur).n_members += delta;
  }
}

NodeId MulticastTree::checked_path_end(NodeId from,
                                       std::span<const LinkId> links) const {
  NodeId cur = from;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i > 0 && find(cur) != kNoSlot) {
      throw std::invalid_argument("path crosses the tree early");
    }
    const LinkId id = links[i];
    if (id < 0 || id >= graph_->link_count()) {
      throw std::invalid_argument("path link is not a graph link");
    }
    const net::Link& l = graph_->link(id);
    if (l.a != cur && l.b != cur) {
      throw std::invalid_argument("path link does not touch its hop node");
    }
    cur = l.other(cur);
  }
  if (find(cur) == kNoSlot) {
    throw std::invalid_argument("path must end at an on-tree node");
  }
  // Every link is known to touch its hop node now, so the nodes can be
  // re-derived pairwise without allocating.
  NodeId first = from;
  for (std::size_t i = 0; i < links.size(); ++i) {
    NodeId later = first;
    for (std::size_t j = i; j < links.size(); ++j) {
      later = graph_->link(links[j]).other(later);
      if (later == first) throw std::invalid_argument("path repeats a node");
    }
    first = graph_->link(links[i]).other(first);
  }
  return cur;
}

void MulticastTree::graft(NodeId member, std::span<const LinkId> links) {
  const Slot at = checked_find(member);
  if (links.empty()) {
    // Member is already an on-tree node (relay or the source); it simply
    // becomes a receiver as well.
    if (at == kNoSlot) {
      throw std::invalid_argument("graft path must end at an on-tree node");
    }
    if (member == source_) {
      throw std::invalid_argument("source cannot join as a member");
    }
    if (rec(at).role == NodeRole::kMember) return;  // idempotent
    rec(at).role = NodeRole::kMember;
    ++member_count_;
    add_member_count_upward(at, +1);
    return;
  }
  if (at != kNoSlot) {
    throw std::invalid_argument("graft path crosses the tree early");
  }
  const NodeId merge = checked_path_end(member, links);
  // Wire up from the merge node down to the member, so each hop's
  // upstream record exists before the hop links to it. Every new node has
  // exactly the new member below (or at) it.
  const Slot merge_slot = find(merge);
  Slot up = merge_slot;
  NodeId hop = merge;
  for (std::size_t i = links.size(); i-- > 0;) {
    hop = graph_->link(links[i]).other(hop);
    const Slot s = acquire(hop);
    Record& r = rec(s);
    r.role = i == 0 ? NodeRole::kMember : NodeRole::kRelay;
    r.parent_link = links[i];
    r.n_members = 1;
    append_child(up, s);
    up = s;
  }
  ++member_count_;
  add_member_count_upward(merge_slot, +1);
}

void MulticastTree::prune_upward_from(Slot s) {
  // Remove now-useless relays: nodes with no members beneath and no
  // children, walking upward until a still-useful node (or the source).
  const Slot root = source_slot();
  Slot cur = s;
  while (cur != root && cur != kNoSlot) {
    const Record& r = rec(cur);
    if (r.n_members > 0 || r.first_child != kNoSlot ||
        r.role == NodeRole::kMember) {
      break;
    }
    const Slot up = r.parent;
    detach_from_parent(cur);
    release(cur);
    cur = up;
  }
}

void MulticastTree::leave(NodeId member) {
  const Slot s = checked_find(member);
  if (s == kNoSlot || rec(s).role != NodeRole::kMember) {
    throw std::invalid_argument("leave() by a non-member");
  }
  rec(s).role = NodeRole::kRelay;
  --member_count_;
  add_member_count_upward(s, -1);
  prune_upward_from(s);
}

void MulticastTree::move_subtree(NodeId node,
                                 std::span<const LinkId> links) {
  const Slot moving = checked_find(node);
  if (moving == kNoSlot || node == source_) {
    throw std::invalid_argument("can only move an on-tree non-source node");
  }
  const NodeId merge = checked_path_end(node, links);
  if (is_ancestor_or_self(node, merge)) {
    throw std::invalid_argument("cannot merge into the moving subtree");
  }

  const int moving_members = rec(moving).n_members;

  // 1. Detach from the old upstream and retire its contribution. Pruning
  //    of the old chain is deferred until the new path is in place (§3.2.3
  //    sets up the new path before releasing the old one) — otherwise an
  //    old-chain ancestor that is also the new merge node could be pruned
  //    out from under the re-attachment.
  const Slot old_parent = rec(moving).parent;
  add_member_count_upward(moving, -moving_members);
  rec(moving).n_members = moving_members;  // restore own count
  detach_from_parent(moving);

  // 2. Re-attach along the new path, wired from the merge node down.
  const Slot merge_slot = find(merge);
  Slot up = merge_slot;
  NodeId hop = merge;
  for (std::size_t i = links.size(); i-- > 0;) {
    hop = graph_->link(links[i]).other(hop);
    Slot s = moving;
    if (i > 0) {
      s = acquire(hop);
      rec(s).role = NodeRole::kRelay;
      rec(s).n_members = moving_members;
    }
    rec(s).parent_link = links[i];
    append_child(up, s);
    up = s;
  }
  add_member_count_upward(merge_slot, +moving_members);

  // 3. Release the old path.
  if (old_parent != kNoSlot) prune_upward_from(old_parent);
}

void MulticastTree::drop_subtree(Slot root, NodeId skip,
                                 std::vector<NodeId>& lost) {
  std::vector<Slot> stack{root};
  while (!stack.empty()) {
    const Slot s = stack.back();
    stack.pop_back();
    const Record& r = rec(s);
    if (r.role == NodeRole::kMember) {
      if (r.node != skip) lost.push_back(r.node);
      --member_count_;
    }
    for (Slot c = r.first_child; c != kNoSlot; c = rec(c).next_sibling) {
      stack.push_back(c);
    }
    release(s);  // off-tree, no parent, no children
  }
}

std::vector<NodeId> MulticastTree::sever(LinkId failed_link) {
  std::vector<NodeId> lost_members;
  // The downstream endpoint is the one whose parent link failed.
  const Slot downstream = downstream_of(failed_link);
  if (downstream == kNoSlot) return lost_members;

  const Slot upstream = rec(downstream).parent;
  const int dropped_members = rec(downstream).n_members;

  // Clear the disconnected component (subtree of `downstream`).
  detach_from_parent(downstream);
  drop_subtree(downstream, kNoNode, lost_members);

  // Retire the dropped members' contribution upstream and prune any relay
  // chain left dangling.
  if (upstream != kNoSlot) {
    add_member_count_upward(upstream, -dropped_members);
    prune_upward_from(upstream);
  }
  std::sort(lost_members.begin(), lost_members.end());
  return lost_members;
}

std::vector<NodeId> MulticastTree::sever_node(NodeId failed_node) {
  std::vector<NodeId> lost_members;
  const Slot dead = checked_find(failed_node);
  if (dead == kNoSlot) return lost_members;

  const Slot upstream = rec(dead).parent;
  const int dropped_members = rec(dead).n_members;

  detach_from_parent(dead);
  drop_subtree(dead, failed_node, lost_members);

  if (failed_node == source_) return lost_members;  // session is gone
  if (upstream != kNoSlot) {
    add_member_count_upward(upstream, -dropped_members);
    prune_upward_from(upstream);
  }
  std::sort(lost_members.begin(), lost_members.end());
  return lost_members;
}

void MulticastTree::validate() const {
  const auto n_records = records_.size();
  const auto slot_ok = [&](Slot s) {
    return s >= 0 && static_cast<std::size_t>(s) < n_records;
  };

  // The index: a power-of-two table at most half full (so every probe
  // ends at an empty cell), each filled cell naming a live record of its
  // own node.
  std::size_t filled = 0;
  for (const Cell& cell : cells_) {
    if (cell.node == kNoNode) {
      if (cell.slot != kNoSlot) throw std::logic_error("empty cell has a slot");
      continue;
    }
    ++filled;
    if (!slot_ok(cell.slot) || rec(cell.slot).node != cell.node) {
      throw std::logic_error(
          "index cell does not name a live record of its node");
    }
  }
  if (cells_.empty() || (cells_.size() & (cells_.size() - 1)) != 0 ||
      2 * filled > cells_.size()) {
    throw std::logic_error("index is not a half-empty power-of-two table");
  }

  // Records: every live one indexed exactly once, at its own slot; free
  // ones carry no state and all sit on the free list.
  std::size_t live = 0;
  for (std::size_t i = 0; i < n_records; ++i) {
    const Record& r = records_[i];
    if (r.node == kNoNode) {
      if (r.role != NodeRole::kOffTree || r.parent != kNoSlot ||
          r.parent_link != kNoLink || r.n_members != 0 ||
          r.first_child != kNoSlot || r.last_child != kNoSlot) {
        throw std::logic_error("free record carries tree state");
      }
      continue;
    }
    ++live;
    if (!graph_->valid_node(r.node)) {
      throw std::logic_error("record for a node outside the graph");
    }
    if (r.role == NodeRole::kOffTree) {
      throw std::logic_error("live record has the off-tree role");
    }
    if (find(r.node) != static_cast<Slot>(i)) {
      throw std::logic_error("live record is not indexed at its slot");
    }
  }
  if (filled != live) {
    throw std::logic_error("index and records disagree on the node count");
  }
  if (live != static_cast<std::size_t>(on_tree_count_)) {
    throw std::logic_error("on_tree_count_ out of sync");
  }
  std::size_t free_seen = 0;
  for (Slot s = free_head_; s != kNoSlot; s = rec(s).next_sibling) {
    if (!slot_ok(s) || rec(s).node != kNoNode ||
        ++free_seen > n_records - live) {
      throw std::logic_error("free list reaches a live or foreign record");
    }
  }
  if (free_seen != n_records - live) {
    throw std::logic_error("free list misses a free record");
  }

  // Reachability from the source via children links, plus structural
  // soundness of the intrusive sibling encoding.
  std::vector<char> reached(n_records, 0);
  const Slot root = source_slot();
  if (root != kNoSlot) {
    if (rec(root).parent != kNoSlot || rec(root).parent_link != kNoLink ||
        rec(root).role != NodeRole::kRelay) {
      throw std::logic_error("source is not a parentless relay");
    }
    reached[static_cast<std::size_t>(root)] = 1;
    std::vector<Slot> stack{root};
    while (!stack.empty()) {
      const Slot s = stack.back();
      stack.pop_back();
      Slot last_seen = kNoSlot;
      for (Slot c = rec(s).first_child; c != kNoSlot;
           c = rec(c).next_sibling) {
        if (!slot_ok(c) || rec(c).node == kNoNode) {
          throw std::logic_error("child link to a free record");
        }
        last_seen = c;
        if (rec(c).parent != s) {
          throw std::logic_error("child/parent pointer mismatch");
        }
        const LinkId link = rec(c).parent_link;
        if (link < 0 || link >= graph_->link_count()) {
          throw std::logic_error("parent_link is not a graph link");
        }
        const net::Link& l = graph_->link(link);
        if (!(l.a == rec(c).node && l.b == rec(s).node) &&
            !(l.b == rec(c).node && l.a == rec(s).node)) {
          throw std::logic_error("parent_link does not join child and parent");
        }
        if (reached[static_cast<std::size_t>(c)]) {
          throw std::logic_error("cycle or duplicate child in tree");
        }
        reached[static_cast<std::size_t>(c)] = 1;
        stack.push_back(c);
      }
      if (rec(s).last_child != last_seen) {
        throw std::logic_error("last_child out of sync with sibling chain");
      }
    }
  }

  // Per-node recomputation of N_R from scratch: push each member up its
  // path.
  std::vector<int> derived_members(n_records, 0);
  int members_seen = 0;
  for (std::size_t i = 0; i < n_records; ++i) {
    const Record& r = records_[i];
    if (r.node == kNoNode) continue;
    if (!reached[i]) {
      throw std::logic_error("on-tree node unreachable from source");
    }
    if (r.role == NodeRole::kMember) {
      ++members_seen;
      for (Slot cur = static_cast<Slot>(i); cur != kNoSlot;
           cur = rec(cur).parent) {
        ++derived_members[static_cast<std::size_t>(cur)];
      }
    }
    if (static_cast<Slot>(i) != root && r.role == NodeRole::kRelay &&
        r.first_child == kNoSlot) {
      throw std::logic_error("useless leaf relay was not pruned");
    }
  }
  if (members_seen != member_count_) {
    throw std::logic_error("member_count_ out of sync");
  }
  for (std::size_t i = 0; i < n_records; ++i) {
    const Record& r = records_[i];
    if (r.node == kNoNode) continue;
    if (r.n_members != derived_members[i]) {
      throw std::logic_error("N_R out of sync with membership");
    }
  }
}

}  // namespace smrp::mcast
