// Failure recovery policies compared in the paper (§4.3.1):
//
//  * Local detour  — the SMRP policy: the disconnected member reconnects to
//    the *nearest* on-tree node whose own path to the source survived.
//  * Global detour — the SPF/PIM policy: after unicast reconvergence the
//    member re-joins along the new shortest path toward the source,
//    stopping at the first surviving on-tree node (PIM join semantics).
//
// The recovery distance RD_R counts only the *new* links brought into the
// tree, measured in link weight (the paper's Fig. 1 computes RD_D = 2 from
// a delay-2 link); hop counts are reported alongside.
#pragma once

#include <vector>

#include "multicast/tree.hpp"
#include "net/routing_oracle.hpp"
#include "net/shortest_path.hpp"
#include "obs/telemetry.hpp"

namespace smrp::proto {

using mcast::MulticastTree;
using net::Graph;
using net::LinkId;
using net::NodeId;

/// A persistent failure: a cut link or an incapacitated node (§1 treats
/// both as the failure model).
struct Failure {
  enum class Kind { kLink, kNode };
  Kind kind = Kind::kLink;
  LinkId link = net::kNoLink;
  NodeId node = net::kNoNode;

  static Failure of_link(LinkId l) { return Failure{Kind::kLink, l, net::kNoNode}; }
  static Failure of_node(NodeId n) { return Failure{Kind::kNode, net::kNoLink, n}; }
};

struct RecoveryOutcome {
  NodeId member = net::kNoNode;
  LinkId failed_link = net::kNoLink;
  NodeId failed_node = net::kNoNode;
  /// False when the failure did not actually disconnect this member (its
  /// RD is then 0 by definition).
  bool disconnected = false;
  /// True when a reconnection path exists.
  bool recovered = false;
  NodeId reattach_node = net::kNoNode;
  /// member → … → reattach node; exactly the new links brought in.
  std::vector<NodeId> restoration_path;
  /// The links along restoration_path, in the same order, as the search
  /// that found it holds them (one fewer than its nodes).
  std::vector<LinkId> restoration_links;
  double recovery_distance = 0.0;  ///< RD_R in link weight
  int recovery_hops = 0;           ///< RD_R in hops
  double new_delay = 0.0;          ///< member's end-to-end delay afterwards
};

/// The paper's worst-case failure for member R: the incident link of the
/// source on R's on-tree path (failing it disables the largest portion of
/// R's branch). Throws if R is not on-tree.
[[nodiscard]] LinkId worst_case_failure_link(const MulticastTree& tree,
                                             NodeId member);

/// The worst-case node failure for member R: the source's on-tree child
/// on R's path (the node whose loss disables the largest portion of R's
/// branch). May be R itself when R sits next to the source.
[[nodiscard]] NodeId worst_case_failure_node(const MulticastTree& tree,
                                             NodeId member);

/// SMRP recovery: reconnect to the nearest surviving on-tree node, routing
/// around the failure. `oracle`, when given, serves the search from its
/// workspace pool; repeated sweeps stop reallocating the search buffers.
[[nodiscard]] RecoveryOutcome local_detour_recovery(
    const Graph& g, const MulticastTree& tree, NodeId member,
    const Failure& failure, net::RoutingOracle* oracle = nullptr);
[[nodiscard]] RecoveryOutcome local_detour_recovery(const Graph& g,
                                                    const MulticastTree& tree,
                                                    NodeId member,
                                                    LinkId failed_link);

/// SPF/PIM recovery: follow the post-failure shortest path toward the
/// source, grafting at the first surviving on-tree node along it. The
/// member's post-failure SPF is cacheable, so `oracle` serves it from the
/// shared cache.
[[nodiscard]] RecoveryOutcome global_detour_recovery(
    const Graph& g, const MulticastTree& tree, NodeId member,
    const Failure& failure, net::RoutingOracle* oracle = nullptr);
[[nodiscard]] RecoveryOutcome global_detour_recovery(const Graph& g,
                                                     const MulticastTree& tree,
                                                     NodeId member,
                                                     LinkId failed_link);

/// Apply a recovery outcome to `tree` (graft the restoration path onto the
/// surviving structure after detaching the failed branch); used by the
/// examples and integration tests to verify the repaired tree is valid.
void apply_recovery(MulticastTree& tree, const RecoveryOutcome& outcome);

/// Recovery style for whole-session repair.
enum class DetourPolicy { kLocal, kGlobal };

/// Report of repairing every member a failure disconnected.
struct SessionRepairReport {
  int disconnected_members = 0;
  int repaired_members = 0;
  int unrecoverable_members = 0;
  double total_recovery_distance = 0.0;
  int total_recovery_hops = 0;
  std::vector<RecoveryOutcome> outcomes;  ///< in repair order
};

/// Repair the whole session in place after `failure`: sever the dead
/// branch, then reconnect the lost members nearest-first (a member whose
/// detour is shorter completes earlier, and its restored branch can then
/// assist the others — the neighbor-assisted recovery of §1). The tree is
/// left valid and failure-free; unrecoverable members (physically cut
/// off) are dropped from the session and counted.
/// `already_failed` carries earlier persistent failures that restoration
/// paths must also avoid (multi-failure scenarios).
/// `telemetry`, when given, folds the repair into the registry: one
/// `smrp.recovery.rd_weight` / `smrp.recovery.rd_hops` sample per detour
/// actually computed (RD_R as §4.3.1 defines it — new links only; members
/// that rejoin in place contribute no sample) plus disconnection counters.
/// `oracle`, when given, serves every search in the repair: the kGlobal
/// per-member SPFs go through the shared cache and the kLocal detour
/// searches lease pooled workspaces.
SessionRepairReport repair_session(
    const Graph& g, MulticastTree& tree, const Failure& failure,
    DetourPolicy policy = DetourPolicy::kLocal,
    const net::ExclusionSet* already_failed = nullptr,
    obs::Telemetry* telemetry = nullptr,
    net::RoutingOracle* oracle = nullptr);

}  // namespace smrp::proto
