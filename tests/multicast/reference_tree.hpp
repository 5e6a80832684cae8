// The retired per-node-struct MulticastTree, kept verbatim as the
// reference model for the tree differential suite (DESIGN.md §14). This
// is the original dense implementation — one NodeState struct per graph
// node, each with its own std::vector<NodeId> child list — so any
// divergence between it and the production sparse tree (on-tree records
// behind a node→slot index) under the same operation sequence is a
// production bug by definition.
//
// Test-only: never link this into production code.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "multicast/tree.hpp"
#include "net/graph.hpp"

namespace smrp::mcast::testing {

class ReferenceTree {
 public:
  ReferenceTree(const Graph& graph, NodeId source)
      : graph_(&graph), source_(source) {
    if (!graph.valid_node(source)) throw std::out_of_range("bad source");
    nodes_.resize(static_cast<std::size_t>(graph.node_count()));
    state(source_).role = NodeRole::kRelay;
    on_tree_count_ = 1;
  }

  [[nodiscard]] NodeId source() const noexcept { return source_; }

  [[nodiscard]] bool on_tree(NodeId n) const {
    return role(n) != NodeRole::kOffTree;
  }
  [[nodiscard]] bool is_member(NodeId n) const {
    return role(n) == NodeRole::kMember;
  }
  [[nodiscard]] NodeRole role(NodeId n) const { return state(n).role; }
  [[nodiscard]] NodeId parent(NodeId n) const { return state(n).parent; }
  [[nodiscard]] LinkId parent_link(NodeId n) const {
    return state(n).parent_link;
  }
  [[nodiscard]] const std::vector<NodeId>& children(NodeId n) const {
    return state(n).children;
  }
  [[nodiscard]] int subtree_members(NodeId n) const {
    return state(n).n_members;
  }
  [[nodiscard]] int shr(NodeId n) const {
    const NodeState& s = state(n);
    if (s.role == NodeRole::kOffTree) {
      throw std::invalid_argument("SHR queried for off-tree node");
    }
    return s.shr;
  }
  [[nodiscard]] int member_count() const noexcept { return member_count_; }
  [[nodiscard]] int on_tree_count() const noexcept { return on_tree_count_; }

  [[nodiscard]] std::vector<NodeId> members() const {
    std::vector<NodeId> out;
    for (NodeId n = 0; n < graph_->node_count(); ++n) {
      if (is_member(n)) out.push_back(n);
    }
    return out;
  }

  [[nodiscard]] std::vector<LinkId> tree_links() const {
    std::vector<LinkId> out;
    for (NodeId n = 0; n < graph_->node_count(); ++n) {
      if (on_tree(n) && n != source_) out.push_back(state(n).parent_link);
    }
    return out;
  }

  [[nodiscard]] bool is_ancestor_or_self(NodeId ancestor, NodeId n) const {
    if (!on_tree(n) || !on_tree(ancestor)) return false;
    for (NodeId cur = n; cur != kNoNode; cur = state(cur).parent) {
      if (cur == ancestor) return true;
    }
    return false;
  }

  [[nodiscard]] int shr_excluding_subtree(NodeId merge_candidate,
                                          NodeId member) const {
    if (!on_tree(merge_candidate)) {
      throw std::invalid_argument("merge candidate must be on-tree");
    }
    const int moving = subtree_members(member);
    int total = 0;
    for (NodeId cur = merge_candidate; cur != source_;
         cur = state(cur).parent) {
      int contribution = state(cur).n_members;
      if (is_ancestor_or_self(cur, member)) contribution -= moving;
      total += contribution;
    }
    return total;
  }

  [[nodiscard]] std::vector<char> surviving_after_link(
      LinkId failed_link) const {
    std::vector<char> alive(static_cast<std::size_t>(graph_->node_count()),
                            0);
    std::vector<NodeId> stack{source_};
    alive[static_cast<std::size_t>(source_)] = 1;
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const NodeId child : state(n).children) {
        if (state(child).parent_link == failed_link) continue;
        alive[static_cast<std::size_t>(child)] = 1;
        stack.push_back(child);
      }
    }
    return alive;
  }

  void graft(NodeId member, const std::vector<NodeId>& path) {
    if (path.empty() || path.front() != member) {
      throw std::invalid_argument(
          "graft path must start at the joining member");
    }
    const NodeId merge = path.back();
    if (!on_tree(merge)) {
      throw std::invalid_argument("graft path must end at an on-tree node");
    }
    if (path.size() == 1) {
      NodeState& s = state(member);
      if (member == source_) {
        throw std::invalid_argument("source cannot join as a member");
      }
      if (s.role == NodeRole::kMember) return;
      s.role = NodeRole::kMember;
      ++member_count_;
      add_member_count_upward(member, +1);
      recompute_shr();
      return;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (on_tree(path[i])) {
        throw std::invalid_argument("graft path crosses the tree early");
      }
      if (!graph_->link_between(path[i], path[i + 1])) {
        throw std::invalid_argument("graft path has non-adjacent hop");
      }
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        if (path[i] == path[j]) {
          throw std::invalid_argument("graft path repeats a node");
        }
      }
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      NodeState& s = state(path[i]);
      s.role = (path[i] == member) ? NodeRole::kMember : NodeRole::kRelay;
      s.parent = path[i + 1];
      s.parent_link = *graph_->link_between(path[i], path[i + 1]);
      s.n_members = 1;
      state(path[i + 1]).children.push_back(path[i]);
      ++on_tree_count_;
    }
    ++member_count_;
    add_member_count_upward(merge, +1);
    recompute_shr();
  }

  void leave(NodeId member) {
    NodeState& s = state(member);
    if (s.role != NodeRole::kMember) {
      throw std::invalid_argument("leave() by a non-member");
    }
    s.role = NodeRole::kRelay;
    --member_count_;
    add_member_count_upward(member, -1);
    prune_upward_from(member);
    recompute_shr();
  }

  void move_subtree(NodeId node, const std::vector<NodeId>& path) {
    if (!on_tree(node) || node == source_) {
      throw std::invalid_argument("can only move an on-tree non-source node");
    }
    if (path.empty() || path.front() != node) {
      throw std::invalid_argument("move path must start at the moving node");
    }
    const NodeId merge = path.back();
    if (!on_tree(merge)) {
      throw std::invalid_argument("move path must end at an on-tree node");
    }
    if (is_ancestor_or_self(node, merge)) {
      throw std::invalid_argument("cannot merge into the moving subtree");
    }
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      if (on_tree(path[i])) {
        throw std::invalid_argument("move path crosses the tree early");
      }
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!graph_->link_between(path[i], path[i + 1])) {
        throw std::invalid_argument("move path has non-adjacent hop");
      }
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        if (path[i] == path[j]) {
          throw std::invalid_argument("move path repeats a node");
        }
      }
    }

    const int moving_members = state(node).n_members;
    const NodeId old_parent = state(node).parent;
    add_member_count_upward(node, -moving_members);
    state(node).n_members = moving_members;
    detach_from_parent(node);

    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      NodeState& s = state(path[i]);
      if (i > 0) {
        s.role = NodeRole::kRelay;
        ++on_tree_count_;
      }
      s.parent = path[i + 1];
      s.parent_link = *graph_->link_between(path[i], path[i + 1]);
      if (i > 0) s.n_members = moving_members;
      state(path[i + 1]).children.push_back(path[i]);
    }
    add_member_count_upward(merge, +moving_members);

    if (old_parent != kNoNode) prune_upward_from(old_parent);
    recompute_shr();
  }

  std::vector<NodeId> sever(LinkId failed_link) {
    std::vector<NodeId> lost_members;
    NodeId downstream = kNoNode;
    for (NodeId n = 0; n < graph_->node_count(); ++n) {
      if (on_tree(n) && state(n).parent_link == failed_link) {
        downstream = n;
        break;
      }
    }
    if (downstream == kNoNode) return lost_members;

    const NodeId upstream = state(downstream).parent;
    const int dropped_members = state(downstream).n_members;

    std::vector<NodeId> stack{downstream};
    detach_from_parent(downstream);
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      NodeState& s = state(n);
      if (s.role == NodeRole::kMember) {
        lost_members.push_back(n);
        --member_count_;
      }
      for (const NodeId child : s.children) stack.push_back(child);
      s = NodeState{};
      --on_tree_count_;
    }

    if (upstream != kNoNode) {
      add_member_count_upward(upstream, -dropped_members);
      prune_upward_from(upstream);
    }
    recompute_shr();
    std::sort(lost_members.begin(), lost_members.end());
    return lost_members;
  }

  std::vector<NodeId> sever_node(NodeId failed_node) {
    std::vector<NodeId> lost_members;
    if (!on_tree(failed_node)) return lost_members;

    const NodeId upstream = state(failed_node).parent;
    const int dropped_members = state(failed_node).n_members;

    std::vector<NodeId> stack{failed_node};
    detach_from_parent(failed_node);
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      NodeState& s = state(n);
      if (s.role == NodeRole::kMember) {
        if (n != failed_node) lost_members.push_back(n);
        --member_count_;
      }
      for (const NodeId child : s.children) stack.push_back(child);
      s = NodeState{};
      --on_tree_count_;
    }

    if (failed_node == source_) return lost_members;
    if (upstream != kNoNode) {
      add_member_count_upward(upstream, -dropped_members);
      prune_upward_from(upstream);
    }
    recompute_shr();
    std::sort(lost_members.begin(), lost_members.end());
    return lost_members;
  }

 private:
  struct NodeState {
    NodeRole role = NodeRole::kOffTree;
    NodeId parent = kNoNode;
    LinkId parent_link = kNoLink;
    int n_members = 0;
    int shr = 0;
    std::vector<NodeId> children;
  };

  [[nodiscard]] NodeState& state(NodeId n) {
    if (!graph_->valid_node(n)) throw std::out_of_range("bad node id");
    return nodes_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] const NodeState& state(NodeId n) const {
    if (!graph_->valid_node(n)) throw std::out_of_range("bad node id");
    return nodes_[static_cast<std::size_t>(n)];
  }

  void add_member_count_upward(NodeId from, int delta) {
    for (NodeId cur = from; cur != kNoNode; cur = state(cur).parent) {
      state(cur).n_members += delta;
    }
  }

  void prune_upward_from(NodeId n) {
    NodeId cur = n;
    while (cur != source_ && cur != kNoNode) {
      NodeState& s = state(cur);
      if (s.n_members > 0 || !s.children.empty() ||
          s.role == NodeRole::kMember) {
        break;
      }
      const NodeId up = s.parent;
      detach_from_parent(cur);
      s.role = NodeRole::kOffTree;
      s.n_members = 0;
      s.shr = 0;
      --on_tree_count_;
      cur = up;
    }
  }

  void detach_from_parent(NodeId n) {
    NodeState& s = state(n);
    if (s.parent == kNoNode) return;
    auto& siblings = state(s.parent).children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), n),
                   siblings.end());
    s.parent = kNoNode;
    s.parent_link = kNoLink;
  }

  void recompute_shr() {
    state(source_).shr = 0;
    std::vector<NodeId> stack{source_};
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const NodeId child : state(n).children) {
        state(child).shr = state(n).shr + state(child).n_members;
        stack.push_back(child);
      }
    }
  }

  const Graph* graph_;
  NodeId source_;
  int member_count_ = 0;
  int on_tree_count_ = 0;
  std::vector<NodeState> nodes_;
};

}  // namespace smrp::mcast::testing
