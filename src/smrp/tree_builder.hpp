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

/// True iff `graft` (member → … → merge) only re-walks `member`'s current
/// upstream tree edges, i.e. applying it as a subtree move would rebuild
/// the attachment unchanged. Reshaping uses this to recognise a no-op
/// candidate — single- or multi-hop — instead of churning move_subtree.
[[nodiscard]] bool graft_rewalks_attachment(const MulticastTree& tree,
                                            NodeId member,
                                            const std::vector<NodeId>& graft);

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

  /// Run reshape passes until quiescent (or `max_passes`). Returns total
  /// number of switches.
  int reshape_to_fixpoint(int max_passes = 10);

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

 private:
  /// Re-run selection for `member` (as a subtree move); switch if strictly
  /// better. Returns true if the member moved.
  bool try_reshape(NodeId member);

  /// Condition I: sweep members whose SHR grew ≥ config.reshape_shr_delta
  /// since their last (re)join; bounded by max_reshapes_per_event.
  int condition_one_sweep();

  void record_baseline(NodeId member);

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
  /// SHR(S,R) observed at member R's last join/reshape (Condition I
  /// reference), kept for members only: no key means no baseline.
  FlatMap<NodeId, int> shr_baseline_;
  int fallback_joins_ = 0;
  int reshape_count_ = 0;
};

}  // namespace smrp::proto
