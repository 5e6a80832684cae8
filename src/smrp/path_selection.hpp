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
