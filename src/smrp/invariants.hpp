// Always-on correctness auditing for the distributed protocol: an
// InvariantChecker inspects a DistributedSession (through its public
// observability surface only — no privileged state) and reports every
// violated invariant as a human-readable string. Two strictness levels:
//
//  * audit() — safe at ANY simulated time, including mid-churn and
//    mid-chaos: structural sanity (parent/child adjacency, a rooted
//    source, bounded dedup state, non-negative SHR). Transient parent
//    cycles are tolerated here — duplicate suppression keeps data from
//    circulating them, so they starve and self-heal — but they are a hard
//    violation in the quiescent audit.
//  * audit_quiescent(t) — the paper's steady-state contract, checked once
//    every injected fault has healed at time `t` and the protocol has had
//    service_restoration_bound() ms to settle: no parent cycles at all, no
//    orphaned on-tree nodes, parent/child agreement, SHR consistent with
//    the analytic tree (Eq. 2), and *eventual service* — every member the
//    surviving topology still connects to the source receives fresh data.
#pragma once

#include <string>
#include <vector>

#include "routing/link_state.hpp"
#include "smrp/distributed.hpp"

namespace smrp::proto {

struct InvariantReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// Newline-joined violations (empty string when ok).
  [[nodiscard]] std::string to_string() const;
};

class InvariantChecker {
 public:
  InvariantChecker(const DistributedSession& session,
                   const sim::SimNetwork& network);

  /// Invariants that hold at every instant, even mid-repair.
  [[nodiscard]] InvariantReport audit() const;

  /// Strict steady-state audit. `quiescent_since` is the sim time the last
  /// injected fault healed; call it only after the protocol has had
  /// service_restoration_bound() ms past that instant to settle.
  [[nodiscard]] InvariantReport audit_quiescent(sim::Time quiescent_since) const;

 private:
  /// Nodes reachable from the source over up links and up nodes.
  [[nodiscard]] std::vector<char> up_component() const;
  void check_structure(InvariantReport& report) const;
  void check_cycles(InvariantReport& report, bool allow_stale_cycles) const;

  const DistributedSession* session_;
  const sim::SimNetwork* network_;
};

/// Conservative upper bound (ms) on the time from "last fault healed" to
/// "every member still connected to the source receives data again",
/// for the hardened repair path (not the test-only legacy_repair
/// mutation, which may never restore it): failure detection, the full
/// expanding-ring schedule with backoff and jitter, the routed-join
/// fallback, IGP reconvergence for stranded members, and soft-state /
/// SHR re-propagation across the tree depth. Computable from the configs
/// and the topology alone — tests use it to decide when audit_quiescent
/// is fair to run.
[[nodiscard]] sim::Time service_restoration_bound(
    const SessionConfig& session, const routing::RoutingConfig& routing,
    const net::Graph& graph);

}  // namespace smrp::proto
