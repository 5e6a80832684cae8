// Scenario generation and execution for the paper's evaluation (§4.1–4.2):
// one scenario = one Waxman topology + one random member set, on which both
// the SPF baseline and SMRP build trees and every member's worst-case
// failure is exercised.
#pragma once

#include <cstdint>
#include <vector>

#include "net/rng.hpp"
#include "net/routing_oracle.hpp"
#include "net/waxman.hpp"
#include "smrp/config.hpp"
#include "smrp/recovery.hpp"

namespace smrp::eval {

using net::Graph;
using net::NodeId;

/// Which recovery policy supplies the member's RD on each tree.
enum class RecoveryPolicy { kGlobalDetour, kLocalDetour };

/// Random-graph family a scenario's topology is drawn from (the paper
/// uses Waxman; the others probe its future-work question about more
/// Internet-like graphs).
enum class TopologyModel {
  kWaxman,          ///< GT-ITM's locality model (paper §4.1)
  kErdosRenyi,      ///< G(n,p), no locality — control model
  kBarabasiAlbert,  ///< preferential attachment, heavy-tailed degrees
};

/// Which reference protocol SMRP is compared against.
enum class BaselineKind {
  kSpf,      ///< MOSPF/PIM-style shortest-path tree (the paper's baseline)
  kSteiner,  ///< cost-minimising Takahashi–Matsuyama heuristic (§4.2 claim)
};

/// Which component the worst-case failure takes out (§1 covers both).
enum class FailureModel {
  kWorstCaseLink,  ///< the source's incident link on the member's path
  kWorstCaseNode,  ///< the source's on-tree child on the member's path
};

struct ScenarioParams {
  int node_count = 100;      ///< N
  int group_size = 30;       ///< N_G
  TopologyModel topology = TopologyModel::kWaxman;
  double alpha = 0.2;        ///< Waxman α (edge density)
  double beta = 0.3;         ///< Waxman β (held fixed, §4.1)
  /// Target mean degree for the non-Waxman models (translated into their
  /// native parameters).
  double target_degree = 7.0;
  proto::SmrpConfig smrp;    ///< includes D_thresh
  bool use_query_scheme = false;  ///< §3.3.1 join instead of full topology
  /// Policy measured on the SPF tree (the paper's baseline is the global
  /// detour; the ablation flips this to local).
  RecoveryPolicy spf_policy = RecoveryPolicy::kGlobalDetour;
  /// Policy measured on the SMRP tree.
  RecoveryPolicy smrp_policy = RecoveryPolicy::kLocalDetour;
  /// Worst-case failure model applied per member.
  FailureModel failure_model = FailureModel::kWorstCaseLink;
  /// Reference protocol for the relative metrics.
  BaselineKind baseline = BaselineKind::kSpf;
};

/// One member's worst-case-failure comparison between the two protocols.
struct MemberComparison {
  NodeId member = net::kNoNode;
  bool valid = false;     ///< both trees connected it and both recoveries worked
  double rd_spf = 0.0;    ///< recovery distance on the SPF tree (weight)
  double rd_smrp = 0.0;   ///< recovery distance on the SMRP tree (weight)
  int rd_spf_hops = 0;
  int rd_smrp_hops = 0;
  double delay_spf = 0.0;   ///< D(S,R) on the SPF tree
  double delay_smrp = 0.0;  ///< D(S,R) on the SMRP tree

  /// (RD_SPF − RD_SMRP) / RD_SPF, the paper's RD_R^relative, with RD in
  /// link weight (Fig. 1 semantics).
  [[nodiscard]] double rd_relative() const {
    return rd_spf > 0.0 ? (rd_spf - rd_smrp) / rd_spf : 0.0;
  }
  /// Same with RD counted in new links grafted (restoration effort).
  [[nodiscard]] double rd_relative_hops() const {
    return rd_spf_hops > 0
               ? static_cast<double>(rd_spf_hops - rd_smrp_hops) / rd_spf_hops
               : 0.0;
  }
  /// (D_SMRP − D_SPF) / D_SPF, the paper's D_{S,R}^relative.
  [[nodiscard]] double delay_relative() const {
    return delay_spf > 0.0 ? (delay_smrp - delay_spf) / delay_spf : 0.0;
  }
};

struct ScenarioResult {
  std::uint64_t seed = 0;
  double avg_degree = 0.0;
  double cost_spf = 0.0;
  double cost_smrp = 0.0;
  int fallback_joins = 0;
  int reshape_count = 0;
  std::vector<MemberComparison> members;

  [[nodiscard]] double cost_relative() const {
    return cost_spf > 0.0 ? (cost_smrp - cost_spf) / cost_spf : 0.0;
  }
  /// Scenario-level mean of per-member RD_R^relative over valid members.
  [[nodiscard]] double mean_rd_relative() const;
  [[nodiscard]] double mean_rd_relative_hops() const;
  [[nodiscard]] double mean_delay_relative() const;
  [[nodiscard]] int valid_member_count() const;
};

/// Sample `count` distinct members (excluding `source`) uniformly.
[[nodiscard]] std::vector<NodeId> pick_members(const Graph& g, NodeId source,
                                               int count, net::Rng& rng);

/// Run one scenario on an existing topology: picks source + members from
/// `rng`, builds both trees (same join order), exercises each member's
/// worst-case failure under the configured policies. `oracle`, when
/// given, serves every SPF in the scenario (it must be bound to `g`);
/// sweeps reusing one topology across member sets share one oracle so
/// repeated sources/failures hit its cache.
[[nodiscard]] ScenarioResult run_scenario_on_graph(
    const Graph& g, const ScenarioParams& p, net::Rng& rng,
    net::RoutingOracle* oracle = nullptr);

/// Generate a topology per the params' model.
[[nodiscard]] Graph make_topology(const ScenarioParams& p, net::Rng& rng);

/// Run one scenario end-to-end: generates the topology first.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioParams& p,
                                          net::Rng& rng);

}  // namespace smrp::eval
