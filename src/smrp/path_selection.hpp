// SMRP path selection (§3.2.2): enumerate one candidate per possible merge
// node and apply the Path Selection Criterion —
//   minimise SHR(S, merge) subject to D(S,NR) ≤ (1 + D_thresh)·D_SPF(S,NR),
// ties broken by the shorter path.
#pragma once

#include <optional>
#include <vector>

#include "multicast/tree.hpp"
#include "net/routing_oracle.hpp"
#include "net/shortest_path.hpp"
#include "smrp/config.hpp"

namespace smrp::proto {

using mcast::MulticastTree;
using net::Graph;
using net::LinkId;
using net::NodeId;

/// One admissible way for a joining/reshaping node to reach the tree.
struct JoinCandidate {
  NodeId merge_node = net::kNoNode;
  /// Graft node sequence: joining node → … → merge node (merge included).
  std::vector<NodeId> graft;
  double graft_delay = 0.0;  ///< weight of the graft only
  double total_delay = 0.0;  ///< graft + on-tree delay of the merge node
  int shr = 0;               ///< SHR(S, merge), adjusted during reshaping
  bool within_bound = false; ///< satisfies the D_thresh constraint
};

/// Outcome of running the selection criterion.
struct Selection {
  JoinCandidate chosen;
  bool used_fallback = false;    ///< no candidate met the bound
  /// Candidates enumerated, inadmissible ones included: without a delay
  /// bound, one per reachable merge node; with one (enumerate_candidates'
  /// `source_spf`), every within-bound candidate plus the out-of-bound
  /// ones the bounded search reached — or all of them when none is within
  /// bound and the join falls back.
  int candidate_count = 0;
  double spf_delay = 0.0;        ///< D_SPF(S, NR), the bound's baseline
};

/// Enumerate candidates for `joiner` per `config.graft_mode` (one per
/// admissible on-tree merge node; a graft never crosses the tree before
/// its merge node), in ascending merge-node order. If `reshaping_member`
/// is set, candidates are computed for moving that member's subtree: its
/// descendants are banned from grafts and from the merge set, and SHR
/// values are adjusted per §3.2.3. `unusable` optionally carries failed
/// links/nodes that grafts must avoid (e.g. from the unicast routing's
/// link-state database). `oracle`, when provided, serves the searches:
/// first-hit enumerations hit its SPF-tree cache, absorbing enumerations
/// lease its pooled workspaces; without one a local workspace runs
/// everything fresh.
///
/// `source_spf`, when given, must be the tree source's SPF over the whole
/// of `g` (no exclusions) under its current topology. The avoid-tree
/// search is then bounded by the delay bound (DESIGN.md §17) and costs
/// the region the bound admits instead of the graph. The result holds
/// every within-bound candidate, exactly as an unbounded run gives it,
/// plus whichever out-of-bound ones the search reached. When none is
/// within bound and a join would fall back (not reshaping,
/// `fallback_when_infeasible`), the search re-runs unbounded and the
/// result holds all candidates. So select_path, and a reshape's choice
/// among within-bound candidates, pick the same candidate either way.
/// First-hit enumeration ignores `source_spf`.
[[nodiscard]] std::vector<JoinCandidate> enumerate_candidates(
    const Graph& g, const MulticastTree& tree, NodeId joiner,
    double spf_delay, const SmrpConfig& config,
    std::optional<NodeId> reshaping_member = std::nullopt,
    const net::ExclusionSet* unusable = nullptr,
    net::RoutingOracle* oracle = nullptr,
    const net::ShortestPathTree* source_spf = nullptr);

/// Apply the Path Selection Criterion to `candidates`. Returns nullopt when
/// the candidate list is empty or (with fallback disabled) nothing meets
/// the delay bound.
[[nodiscard]] std::optional<Selection> select_path(
    std::vector<JoinCandidate> candidates, double spf_delay,
    const SmrpConfig& config);

/// True iff `graft` (member → … → merge) only re-walks `member`'s current
/// upstream tree edges, i.e. applying it as a subtree move would rebuild
/// the attachment unchanged. Reshaping uses this to recognise a no-op
/// candidate — single- or multi-hop — instead of churning move_subtree.
[[nodiscard]] bool graft_rewalks_attachment(const MulticastTree& tree,
                                            NodeId member,
                                            const std::vector<NodeId>& graft);

/// The §3.2.3 reshape decision, shared by SmrpTreeBuilder and the
/// distributed protocol: given the candidates for moving `member`'s
/// subtree (enumerate_candidates with `reshaping_member` set), return the
/// one to move along, or nullopt to stay. That is the best within-bound
/// candidate in select_path's (SHR, delay, merge id) order, taken only if
/// it beats the member's current attachment — SHR adjusted at its parent
/// the way candidate SHRs are, delay with a 1e-9 slack — and does not
/// merely re-walk it. nullopt too when `member` has no parent.
[[nodiscard]] std::optional<JoinCandidate> select_reshape(
    const MulticastTree& tree, NodeId member,
    const std::vector<JoinCandidate>& candidates);

/// Convenience: enumerate + select for a fresh join of `joiner`. The
/// enumeration is bounded by `source_spf` (see enumerate_candidates); when
/// that is null but an `oracle` is given, the source's SPF is fetched from
/// it, normally a cache hit. Without either the search is unbounded. The
/// selection is the same in every case.
[[nodiscard]] std::optional<Selection> select_join_path(
    const Graph& g, const MulticastTree& tree, NodeId joiner,
    double spf_delay, const SmrpConfig& config,
    net::RoutingOracle* oracle = nullptr,
    const net::ShortestPathTree* source_spf = nullptr);

}  // namespace smrp::proto
