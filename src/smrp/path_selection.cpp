#include "smrp/path_selection.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace smrp::proto {

namespace {

// Merge-flag values in the leased workspace's scratch. Both are nonzero,
// so both absorb the search: a merge node ends a graft, and a node of a
// reshaping member's own subtree is never expanded, which leaves every
// other node's label exactly as banning it would.
constexpr char kMergeNode = 1;
constexpr char kMovingSubtree = 2;

/// Nodes of the subtree rooted at `root` (none if `root` is off-tree),
/// breadth-first: O(subtree), without the sort by id that
/// MulticastTree::on_tree_nodes() does.
std::vector<NodeId> subtree_nodes(const MulticastTree& tree, NodeId root,
                                  std::size_t reserve) {
  std::vector<NodeId> out;
  if (!tree.on_tree(root)) return out;
  out.reserve(reserve);
  out.push_back(root);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const NodeId child : tree.children(out[i])) out.push_back(child);
  }
  return out;
}

/// Clears the flags it was given on scope exit, however the enumeration
/// ends: the workspace scratch must be all zero for its next user.
class FlagReset {
 public:
  FlagReset(std::vector<char>& flags, const std::vector<NodeId>& nodes)
      : flags_(flags), nodes_(nodes) {}
  FlagReset(const FlagReset&) = delete;
  FlagReset& operator=(const FlagReset&) = delete;
  ~FlagReset() {
    for (const NodeId n : nodes_) flags_[static_cast<std::size_t>(n)] = 0;
  }

 private:
  std::vector<char>& flags_;
  const std::vector<NodeId>& nodes_;
};

}  // namespace

std::vector<JoinCandidate> enumerate_candidates(
    const Graph& g, const MulticastTree& tree, NodeId joiner,
    double spf_delay, const SmrpConfig& config,
    std::optional<NodeId> reshaping_member,
    const net::ExclusionSet* unusable, net::RoutingOracle* oracle,
    const net::ShortestPathTree* source_spf) {
  // Callers without a shared oracle get a throwaway one; both graft
  // modes below then go through its workspace pool / SPF cache.
  std::unique_ptr<net::RoutingOracle> owned_oracle;
  if (oracle == nullptr) {
    owned_oracle = std::make_unique<net::RoutingOracle>(g);
    oracle = owned_oracle.get();
  }

  std::vector<JoinCandidate> out;
  const double bound = (1.0 + config.d_thresh) * spf_delay + 1e-9;
  const auto bound_check = [&](double total) { return total <= bound; };

  const bool reshaping = reshaping_member.has_value();
  if (reshaping && *reshaping_member != joiner) {
    throw std::invalid_argument("reshaping joiner must be the member itself");
  }
  if (source_spf != nullptr &&
      (source_spf->source != tree.source() ||
       source_spf->dist.size() != static_cast<std::size_t>(g.node_count()))) {
    throw std::invalid_argument("source_spf is not the tree source's SPF");
  }

  if (!reshaping && tree.on_tree(joiner)) {
    // A relay (or other on-tree node) becoming a receiver joins in place:
    // it already has an on-tree path to the source.
    JoinCandidate self;
    self.merge_node = joiner;
    self.graft = {joiner};
    self.graft_delay = 0.0;
    self.total_delay = tree.delay_to_source(joiner);
    self.shr = tree.shr(joiner);
    self.within_bound = bound_check(self.total_delay);
    out.push_back(std::move(self));
    return out;
  }

  // Flag every admissible merge node in the leased workspace's scratch.
  // During reshaping, the member's own subtree is excluded — merging below
  // itself would create a cycle, and descendants move along with the
  // member.
  const net::RoutingOracle::WorkspaceLease lease = oracle->workspace();
  std::vector<char>& flags = lease->node_flags(g.node_count());
  const std::vector<NodeId> on_tree = subtree_nodes(
      tree, tree.source(), static_cast<std::size_t>(tree.on_tree_count()));
  const FlagReset reset(flags, on_tree);
  for (const NodeId n : on_tree) flags[static_cast<std::size_t>(n)] = kMergeNode;
  std::vector<NodeId> moving;
  if (reshaping) {
    moving = subtree_nodes(tree, joiner, 1);
    for (const NodeId n : moving) {
      flags[static_cast<std::size_t>(n)] = n == joiner ? 0 : kMovingSubtree;
    }
  }

  const auto push_candidate = [&](NodeId merge,
                                  const net::ShortestPathTree& search) {
    JoinCandidate c;
    c.merge_node = merge;
    // The Dijkstra source is the joiner, so this runs joiner → … → merge.
    c.graft = search.path_from_source(merge);
    c.graft_delay = search.dist[static_cast<std::size_t>(merge)];
    c.total_delay = c.graft_delay + tree.delay_to_source(merge);
    c.shr = reshaping ? tree.shr_excluding_subtree(merge, joiner)
                      : tree.shr(merge);
    c.within_bound = bound_check(c.total_delay);
    out.push_back(std::move(c));
  };
  // Merge nodes `search` reached, in ascending id order (the order the
  // candidates have always been listed in).
  const auto reached_merges = [&](const net::ShortestPathTree& search) {
    std::vector<NodeId> merges;
    for (const NodeId n : on_tree) {
      if (flags[static_cast<std::size_t>(n)] == kMergeNode &&
          search.reachable(n)) {
        merges.push_back(n);
      }
    }
    std::sort(merges.begin(), merges.end());
    return merges;
  };

  if (config.graft_mode == GraftMode::kAvoidTree) {
    // Every admissible merge node absorbs the search, so each reached one
    // gets the shortest graft that meets the tree only there. The search
    // depends on the tree state (the absorbing flags), so it is never
    // cached — the oracle only contributes its pooled workspace.
    //
    // With the source's SPF at hand the search is bounded A*-style
    // (DESIGN.md §17): D_SPF(S, v) never exceeds the rest of a graft
    // through v plus its merge node's on-tree delay, so pruning at
    // dist + D_SPF(S, v) > bound keeps every within-bound candidate with
    // its exact graft. The relative slack covers float reassociation.
    const net::ExclusionSet no_exclusions;
    const net::ExclusionSet& excluded =
        unusable != nullptr ? *unusable : no_exclusions;
    const net::SearchBound pruning =
        source_spf != nullptr
            ? net::SearchBound{&source_spf->dist, bound + 1e-9 * bound}
            : net::SearchBound{};
    // The search also skips dead ends (DESIGN.md §17, "Dead-end
    // regions"): bridge-separated regions that hold neither the joiner
    // nor any on-tree node, so no graft can enter them.
    net::DeadEndMarks& dead_ends = lease->dead_end_marks(g);
    dead_ends.mark(joiner);
    for (const NodeId n : on_tree) dead_ends.mark(n);
    const auto collect = [&](net::SearchBound b) {
      const net::ShortestPathTree& grafts =
          lease->run_absorbing(g, joiner, flags, excluded, b, &dead_ends);
      for (const NodeId merge : reached_merges(grafts)) {
        push_candidate(merge, grafts);
      }
    };
    collect(pruning);
    // A join that no candidate fits falls back to the lowest-delay one,
    // which may lie outside the bound: re-run unbounded so select_path
    // sees every candidate. A reshape only ever takes a within-bound one.
    const bool none_within = std::none_of(
        out.begin(), out.end(),
        [](const JoinCandidate& c) { return c.within_bound; });
    if (pruning.potential != nullptr && none_within && !reshaping &&
        config.fallback_when_infeasible) {
      out.clear();
      collect(net::SearchBound{});
    }
  } else {
    // kFirstHit: plain shortest paths from the joiner; an on-tree node is
    // a valid merge only if the joiner's shortest path to it meets the
    // tree there first (otherwise the path would really merge earlier).
    // Tree-independent, so the oracle caches it by (joiner, exclusions).
    net::ExclusionSet excluded =
        unusable != nullptr ? *unusable : net::ExclusionSet(g);
    for (const NodeId n : moving) {
      if (n != joiner) excluded.ban_node(n);
    }
    const net::RoutingOracle::TreePtr cached = oracle->spf(joiner, excluded);
    const net::ShortestPathTree& spf = *cached;
    for (const NodeId merge : reached_merges(spf)) {
      bool first_hit = true;
      for (NodeId cur = spf.parent[static_cast<std::size_t>(merge)];
           cur != net::kNoNode && cur != joiner;
           cur = spf.parent[static_cast<std::size_t>(cur)]) {
        if (tree.on_tree(cur)) {
          first_hit = false;
          break;
        }
      }
      if (first_hit) push_candidate(merge, spf);
    }
  }
  return out;
}

namespace {

/// The best within-bound candidate in the Path Selection Criterion's
/// order — lower SHR, then shorter delay, then lower merge id — or null.
const JoinCandidate* best_within_bound(
    const std::vector<JoinCandidate>& candidates) {
  const JoinCandidate* best = nullptr;
  for (const JoinCandidate& c : candidates) {
    if (!c.within_bound) continue;
    if (best == nullptr || c.shr < best->shr ||
        (c.shr == best->shr &&
         (c.total_delay < best->total_delay ||
          (c.total_delay == best->total_delay &&
           c.merge_node < best->merge_node)))) {
      best = &c;
    }
  }
  return best;
}

}  // namespace

std::optional<Selection> select_path(std::vector<JoinCandidate> candidates,
                                     double spf_delay,
                                     const SmrpConfig& config) {
  if (candidates.empty()) return std::nullopt;

  const auto better_fallback = [](const JoinCandidate& a,
                                  const JoinCandidate& b) {
    if (a.total_delay != b.total_delay) return a.total_delay < b.total_delay;
    return a.merge_node < b.merge_node;
  };

  Selection sel;
  sel.candidate_count = static_cast<int>(candidates.size());
  sel.spf_delay = spf_delay;

  const JoinCandidate* best = best_within_bound(candidates);
  if (best == nullptr) {
    if (!config.fallback_when_infeasible) return std::nullopt;
    for (const JoinCandidate& c : candidates) {
      if (best == nullptr || better_fallback(c, *best)) best = &c;
    }
    sel.used_fallback = true;
  }
  sel.chosen = *best;
  return sel;
}

bool graft_rewalks_attachment(const MulticastTree& tree, NodeId member,
                              const std::vector<NodeId>& graft) {
  if (graft.empty() || graft.front() != member) return false;
  NodeId cur = member;
  for (std::size_t i = 1; i < graft.size(); ++i) {
    if (!tree.on_tree(cur) || tree.parent(cur) != graft[i]) return false;
    cur = graft[i];
  }
  return graft.size() > 1;
}

std::optional<JoinCandidate> select_reshape(
    const MulticastTree& tree, NodeId member,
    const std::vector<JoinCandidate>& candidates) {
  const NodeId up = tree.parent(member);
  if (up == net::kNoNode) return std::nullopt;
  // The comparison baseline: the member's current merge point is its
  // upstream node; adjust its SHR exactly as candidate SHRs are adjusted
  // (§3.2.3: "the value of SHR may be inaccurate and should be adjusted
  // before the path comparison is made").
  const int current_shr = tree.shr_excluding_subtree(up, member);
  const double current_delay = tree.delay_to_source(member);

  const JoinCandidate* best = best_within_bound(candidates);
  if (best == nullptr) return std::nullopt;
  const bool better =
      best->shr < current_shr ||
      (best->shr == current_shr && best->total_delay + 1e-9 < current_delay);
  // A candidate that merely re-walks the current attachment — whether the
  // single upstream edge or a multi-hop graft retracing the member's
  // existing relay chain — is a no-op; moving along it would churn
  // move_subtree without changing the tree.
  if (!better || graft_rewalks_attachment(tree, member, best->graft)) {
    return std::nullopt;
  }
  return *best;
}

std::optional<Selection> select_join_path(
    const Graph& g, const MulticastTree& tree, NodeId joiner,
    double spf_delay, const SmrpConfig& config, net::RoutingOracle* oracle,
    const net::ShortestPathTree* source_spf) {
  // With a shared oracle the source's SPF is a cache hit, so the bounded
  // search costs no extra Dijkstra run; without one it would cost a full
  // run, more than the unbounded search it saves.
  net::RoutingOracle::TreePtr fetched;
  if (source_spf == nullptr && oracle != nullptr) {
    fetched = oracle->spf(tree.source());
    source_spf = fetched.get();
  }
  return select_path(
      enumerate_candidates(g, tree, joiner, spf_delay, config, std::nullopt,
                           nullptr, oracle, source_spf),
      spf_delay, config);
}

}  // namespace smrp::proto
