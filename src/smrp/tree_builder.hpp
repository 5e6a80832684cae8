// Centralised (full-topology-knowledge) SMRP engine: drives the shared
// MulticastTree through member joins/leaves using the §3.2.2 selection
// criterion and applies the §3.2.3 tree-reshaping rules.
//
// This is the engine the evaluation uses; `smrp::sim` hosts the distributed
// message-passing realisation of the same protocol and the tests check the
// two agree on the trees they build.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "multicast/tree.hpp"
#include "net/routing_oracle.hpp"
#include "net/shortest_path.hpp"
#include "smrp/config.hpp"
#include "smrp/flat_map.hpp"
#include "smrp/path_selection.hpp"

namespace smrp::proto {

/// Result of one join() call.
struct JoinOutcome {
  bool joined = false;
  bool used_fallback = false;   ///< no candidate met the D_thresh bound
  NodeId merge_node = net::kNoNode;
  double total_delay = 0.0;     ///< member's tree delay right after joining
  int reshapes_triggered = 0;   ///< Condition-I switches caused by this join
};

class SmrpTreeBuilder {
 public:
  /// `oracle`, when given, serves every SPF this builder (and downstream
  /// recovery acting on its tree) needs; it must outlive the builder and
  /// be bound to `g`. Without one the builder owns a private oracle.
  SmrpTreeBuilder(const Graph& g, NodeId source, SmrpConfig config = {},
                  net::RoutingOracle* oracle = nullptr);

  /// Join per the Path Selection Criterion, then run Condition-I reshaping.
  JoinOutcome join(NodeId member);

  /// Join along an externally selected graft (member → … → merge node),
  /// e.g. one produced by the §3.3.1 query scheme; runs the same post-join
  /// bookkeeping and Condition-I reshaping as join(). An empty graft or
  /// one whose endpoint is not on-tree is rejected (joined = false), the
  /// same way recovery rejects a restoration path that never reaches the
  /// tree.
  JoinOutcome join_along(NodeId member, const std::vector<NodeId>& graft);

  /// Leave per §3.2.2 (prune upward). SHR values only shrink on departure,
  /// so Condition I stays quiet; Condition II (reshape_pass) picks up the
  /// newly attractive positions.
  void leave(NodeId member);

  /// Condition II: every member re-runs path selection once (ascending id
  /// order, emulating independent periodic timers). Returns the number of
  /// members that switched paths.
  int reshape_pass();

  [[nodiscard]] const MulticastTree& tree() const noexcept { return tree_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] const SmrpConfig& config() const noexcept { return config_; }

  /// The routing oracle this builder's searches go through (shared or
  /// owned). Non-const: lookups mutate the cache.
  [[nodiscard]] net::RoutingOracle& oracle() const noexcept { return *oracle_; }

  /// D_SPF(S, n): the underlying unicast shortest-path delay.
  [[nodiscard]] double spf_delay(NodeId n) const;

  [[nodiscard]] int fallback_join_count() const noexcept {
    return fallback_joins_;
  }
  [[nodiscard]] int total_reshapes() const noexcept { return reshape_count_; }

  /// Reshape attempts (Condition I and II alike) on members with an
  /// upstream node: each either ran the candidate search or repeated a
  /// stored decline (DESIGN.md §17, "Region-local Condition-I
  /// decisions").
  [[nodiscard]] std::int64_t reshape_attempts() const noexcept {
    return reshape_attempts_;
  }
  /// The attempts that ran the candidate search.
  [[nodiscard]] std::int64_t reshape_searches() const noexcept {
    return reshape_searches_;
  }

 private:
  /// Marks a member whose decisions are not confined to a region.
  static constexpr std::int32_t kNoRegion = -1;

  /// One member's Condition-I state.
  struct Baseline {
    int shr = 0;  ///< SHR(S,R) at the member's last join/reshape
    /// The region the member's reshape decisions are confined to.
    std::int32_t region = kNoRegion;
    /// Stamp of `region` at the member's last decision that a later
    /// attempt may repeat without searching: its join along the selected
    /// path, or its last declined search. 0 = none.
    std::uint64_t decided = 0;
  };

  /// Re-run selection for `member` (as a subtree move); switch if strictly
  /// better, or decline at once while `state` holds a current decision.
  /// Returns true if the member moved.
  bool try_reshape(NodeId member, Baseline& state);

  /// Condition I: sweep members whose SHR grew ≥ config.reshape_shr_delta
  /// since their last (re)join; bounded by max_reshapes_per_event.
  int condition_one_sweep();

  /// Baseline and region bookkeeping for a member that just joined;
  /// `selected` says the join took select_join_path's choice from off the
  /// tree, which implies its first reshape declines.
  void record_join(NodeId member, bool selected);

  /// The bridge subtree directly below the source's 2-edge-connected
  /// component that holds `member`, or kNoRegion when there is none or
  /// `member` is its end of the bridge out of it.
  [[nodiscard]] std::int32_t confining_region(NodeId member) const;

  /// A join, leave or move changed `region`'s tree (no-op for kNoRegion).
  void touch_region(std::int32_t region);

  /// `region`'s stamp, refreshed when it predates the last invalidation.
  std::uint64_t region_stamp(std::int32_t region);

  /// spf_from_source_ as the potential that bounds the join and reshape
  /// searches, or null once the topology has moved since it was fetched:
  /// a stale SPF could overestimate a distance and prune a within-bound
  /// graft.
  [[nodiscard]] const net::ShortestPathTree* bounding_spf() const noexcept;

  const Graph* g_;
  SmrpConfig config_;
  MulticastTree tree_;
  /// Owned fallback when no shared oracle was injected. unique_ptr (not
  /// value): RoutingOracle holds a mutex and is immovable.
  std::unique_ptr<net::RoutingOracle> owned_oracle_;
  net::RoutingOracle* oracle_;
  net::RoutingOracle::TreePtr spf_from_source_;
  std::uint64_t spf_version_;  ///< topology version spf_from_source_ is for
  /// Condition-I state per member; its keys are exactly the members.
  FlatMap<NodeId, Baseline> baselines_;
  /// Per touched region, the stamp of its last change. Stamps come from
  /// one counter; a decision is current while its stamp is its region's
  /// and newer than `invalidated_at_`, the counter's value at the last
  /// move by a member with no region.
  FlatMap<std::int32_t, std::uint64_t> region_stamps_;
  std::uint64_t stamp_ = 0;
  std::uint64_t invalidated_at_ = 0;
  int fallback_joins_ = 0;
  int reshape_count_ = 0;
  std::int64_t reshape_attempts_ = 0;
  std::int64_t reshape_searches_ = 0;
};

}  // namespace smrp::proto
