#include "eval/scenario.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "multicast/tree.hpp"
#include "smrp/query_scheme.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"
#include "spf/steiner_tree_builder.hpp"
#include "net/random_graphs.hpp"

namespace smrp::eval {

double ScenarioResult::mean_rd_relative() const {
  double sum = 0.0;
  int n = 0;
  for (const MemberComparison& m : members) {
    if (!m.valid) continue;
    sum += m.rd_relative();
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double ScenarioResult::mean_rd_relative_hops() const {
  double sum = 0.0;
  int n = 0;
  for (const MemberComparison& m : members) {
    if (!m.valid) continue;
    sum += m.rd_relative_hops();
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double ScenarioResult::mean_delay_relative() const {
  double sum = 0.0;
  int n = 0;
  for (const MemberComparison& m : members) {
    if (!m.valid) continue;
    sum += m.delay_relative();
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

int ScenarioResult::valid_member_count() const {
  int n = 0;
  for (const MemberComparison& m : members) {
    if (m.valid) ++n;
  }
  return n;
}

std::vector<NodeId> pick_members(const Graph& g, NodeId source, int count,
                                 net::Rng& rng) {
  if (count >= g.node_count()) {
    throw std::invalid_argument("group larger than the network");
  }
  // Partial Fisher–Yates over the candidate pool.
  std::vector<NodeId> pool;
  pool.reserve(static_cast<std::size_t>(g.node_count()) - 1);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    if (n != source) pool.push_back(n);
  }
  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        static_cast<std::size_t>(rng.below(pool.size() - static_cast<std::size_t>(i)));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    members.push_back(pool[static_cast<std::size_t>(i)]);
  }
  return members;
}

namespace {

proto::RecoveryOutcome run_policy(RecoveryPolicy policy, const Graph& g,
                                  const mcast::MulticastTree& tree,
                                  NodeId member, const proto::Failure& failure,
                                  net::RoutingOracle& oracle) {
  switch (policy) {
    case RecoveryPolicy::kGlobalDetour:
      return proto::global_detour_recovery(g, tree, member, failure, &oracle);
    case RecoveryPolicy::kLocalDetour:
      return proto::local_detour_recovery(g, tree, member, failure, &oracle);
  }
  throw std::logic_error("unknown recovery policy");
}

/// The member's worst-case failure under the configured model; nullopt
/// when the model does not apply (a node-failure of the member itself).
std::optional<proto::Failure> worst_case_failure(
    FailureModel model, const mcast::MulticastTree& tree, NodeId member) {
  if (model == FailureModel::kWorstCaseLink) {
    return proto::Failure::of_link(
        proto::worst_case_failure_link(tree, member));
  }
  const NodeId victim = proto::worst_case_failure_node(tree, member);
  if (victim == member) return std::nullopt;
  return proto::Failure::of_node(victim);
}

/// SMRP construction with optional query-scheme joins (the builder's
/// full-knowledge join is the default path).
void smrp_join(proto::SmrpTreeBuilder& builder, NodeId member,
               bool use_query, int& fallbacks) {
  if (!use_query) {
    const proto::JoinOutcome out = builder.join(member);
    if (!out.joined) {
      throw std::runtime_error("SMRP join failed on a connected graph");
    }
    return;
  }
  // Query-scheme join: restricted candidate set, grafted manually through
  // the builder's tree is not possible — replicate via select + graft by
  // running the builder in query mode.
  const auto selection = proto::select_join_path_via_query(
      builder.graph(), builder.tree(), member, builder.spf_delay(member),
      builder.config(), &builder.oracle());
  if (!selection) {
    // Fall back to the full-knowledge join so the member is never refused.
    ++fallbacks;
    const proto::JoinOutcome out = builder.join(member);
    if (!out.joined) {
      throw std::runtime_error("SMRP join failed on a connected graph");
    }
    return;
  }
  if (selection->used_fallback) ++fallbacks;
  builder.join_along(member, selection->chosen.graft);
}

/// Uniform facade over the available reference protocols.
class BaselineFacade {
 public:
  BaselineFacade(BaselineKind kind, const Graph& g, NodeId source,
                 net::RoutingOracle* oracle) {
    if (kind == BaselineKind::kSpf) {
      spf_ = std::make_unique<baseline::SpfTreeBuilder>(g, source, oracle);
    } else {
      steiner_ =
          std::make_unique<baseline::SteinerTreeBuilder>(g, source, oracle);
    }
  }
  bool join(NodeId m) { return spf_ ? spf_->join(m) : steiner_->join(m); }
  [[nodiscard]] const mcast::MulticastTree& tree() const {
    return spf_ ? spf_->tree() : steiner_->tree();
  }

 private:
  std::unique_ptr<baseline::SpfTreeBuilder> spf_;
  std::unique_ptr<baseline::SteinerTreeBuilder> steiner_;
};

}  // namespace

ScenarioResult run_scenario_on_graph(const Graph& g, const ScenarioParams& p,
                                     net::Rng& rng,
                                     net::RoutingOracle* oracle) {
  ScenarioResult result;
  result.avg_degree = g.average_degree();

  // One oracle serves the whole scenario (both protocols + the failure
  // sweep); sweeps pass a per-topology one in so member sets share it.
  std::unique_ptr<net::RoutingOracle> owned_oracle;
  if (oracle == nullptr) {
    owned_oracle = std::make_unique<net::RoutingOracle>(g);
    oracle = owned_oracle.get();
  }

  const NodeId source = static_cast<NodeId>(rng.below(
      static_cast<std::uint64_t>(g.node_count())));
  const std::vector<NodeId> members =
      pick_members(g, source, p.group_size, rng);

  BaselineFacade spf(p.baseline, g, source, oracle);
  proto::SmrpTreeBuilder smrp(g, source, p.smrp, oracle);
  int query_fallbacks = 0;
  for (const NodeId m : members) {
    if (!spf.join(m)) {
      throw std::runtime_error("baseline join failed on a connected graph");
    }
    smrp_join(smrp, m, p.use_query_scheme, query_fallbacks);
  }

  result.cost_spf = spf.tree().total_cost();
  result.cost_smrp = smrp.tree().total_cost();
  result.fallback_joins = smrp.fallback_join_count() + query_fallbacks;
  result.reshape_count = smrp.total_reshapes();

  // The worst-case sweep below (two detour searches per member) leases
  // the oracle's pooled buffers; global detours hit its SPF cache.
  for (const NodeId m : members) {
    MemberComparison cmp;
    cmp.member = m;
    cmp.delay_spf = spf.tree().delay_to_source(m);
    cmp.delay_smrp = smrp.tree().delay_to_source(m);

    // Worst case per protocol, on the member's own tree path (§4.3.1).
    const auto fail_spf = worst_case_failure(p.failure_model, spf.tree(), m);
    const auto fail_smrp =
        worst_case_failure(p.failure_model, smrp.tree(), m);
    if (!fail_spf || !fail_smrp) {
      // Node-failure model and the member itself is the worst-case node.
      result.members.push_back(cmp);
      continue;
    }

    const proto::RecoveryOutcome spf_rec =
        run_policy(p.spf_policy, g, spf.tree(), m, *fail_spf, *oracle);
    const proto::RecoveryOutcome smrp_rec =
        run_policy(p.smrp_policy, g, smrp.tree(), m, *fail_smrp, *oracle);

    cmp.valid = spf_rec.recovered && smrp_rec.recovered &&
                spf_rec.disconnected && smrp_rec.disconnected &&
                spf_rec.recovery_distance > 0.0;
    cmp.rd_spf = spf_rec.recovery_distance;
    cmp.rd_smrp = smrp_rec.recovery_distance;
    cmp.rd_spf_hops = spf_rec.recovery_hops;
    cmp.rd_smrp_hops = smrp_rec.recovery_hops;
    result.members.push_back(cmp);
  }
  return result;
}

Graph make_topology(const ScenarioParams& p, net::Rng& rng) {
  switch (p.topology) {
    case TopologyModel::kWaxman: {
      net::WaxmanParams wax;
      wax.node_count = p.node_count;
      wax.alpha = p.alpha;
      wax.beta = p.beta;
      return net::waxman_graph(wax, rng);
    }
    case TopologyModel::kErdosRenyi: {
      net::ErdosRenyiParams er;
      er.node_count = p.node_count;
      er.edge_probability =
          p.target_degree / static_cast<double>(p.node_count - 1);
      return net::erdos_renyi_graph(er, rng);
    }
    case TopologyModel::kBarabasiAlbert: {
      net::BarabasiAlbertParams ba;
      ba.node_count = p.node_count;
      ba.edges_per_node =
          std::max(1, static_cast<int>(p.target_degree / 2.0 + 0.5));
      return net::barabasi_albert_graph(ba, rng);
    }
  }
  throw std::logic_error("unknown topology model");
}

ScenarioResult run_scenario(const ScenarioParams& p, net::Rng& rng) {
  const Graph g = make_topology(p, rng);
  return run_scenario_on_graph(g, p, rng);
}

}  // namespace smrp::eval
