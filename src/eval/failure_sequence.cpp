#include "eval/failure_sequence.hpp"

#include <algorithm>
#include <set>

#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"

namespace smrp::eval {

namespace {

double mean_member_delay(const mcast::MulticastTree& tree) {
  const auto members = tree.members();
  if (members.empty()) return 0.0;
  double total = 0.0;
  for (const net::NodeId m : members) total += tree.delay_to_source(m);
  return total / static_cast<double>(members.size());
}

}  // namespace

FailureSequenceResult run_failure_sequence(const FailureSequenceParams& p,
                                           net::Rng& rng) {
  net::WaxmanParams wax;
  wax.node_count = p.scenario.node_count;
  wax.alpha = p.scenario.alpha;
  wax.beta = p.scenario.beta;
  const net::Graph g = net::waxman_graph(wax, rng);

  const auto source = static_cast<net::NodeId>(
      rng.below(static_cast<std::uint64_t>(g.node_count())));
  const std::vector<net::NodeId> members =
      pick_members(g, source, p.scenario.group_size, rng);

  // One oracle for the whole sequence: the builders' joins share its
  // cached source SPF, and every repair step leases its pooled workspaces
  // and caches its kGlobal post-failure SPFs there.
  net::RoutingOracle oracle(g);
  proto::SmrpTreeBuilder smrp_builder(g, source, p.scenario.smrp, &oracle);
  baseline::SpfTreeBuilder spf_builder(g, source, &oracle);
  for (const net::NodeId m : members) {
    smrp_builder.join(m);
    spf_builder.join(m);
  }
  mcast::MulticastTree smrp_tree = smrp_builder.tree();
  mcast::MulticastTree spf_tree = spf_builder.tree();

  FailureSequenceResult result;
  net::ExclusionSet dead(g);
  std::set<net::LinkId> dead_links;

  for (int step = 0; step < p.failures; ++step) {
    // Draw the next casualty from the links currently carrying traffic.
    std::set<net::LinkId> carrying;
    for (const net::LinkId l : smrp_tree.tree_links()) carrying.insert(l);
    for (const net::LinkId l : spf_tree.tree_links()) carrying.insert(l);
    for (const net::LinkId l : dead_links) carrying.erase(l);
    if (carrying.empty()) break;
    std::vector<net::LinkId> pool(carrying.begin(), carrying.end());
    const net::LinkId victim =
        pool[static_cast<std::size_t>(rng.below(pool.size()))];

    FailureStep record;
    record.failed_link = victim;

    const auto failure = proto::Failure::of_link(victim);
    const proto::SessionRepairReport smrp_report =
        proto::repair_session(g, smrp_tree, failure, proto::DetourPolicy::kLocal,
                              &dead, nullptr, &oracle);
    const proto::SessionRepairReport spf_report =
        proto::repair_session(g, spf_tree, failure,
                              proto::DetourPolicy::kGlobal, &dead, nullptr,
                              &oracle);

    dead.ban_link(victim);
    dead_links.insert(victim);

    record.lost_smrp = smrp_report.disconnected_members;
    record.lost_spf = spf_report.disconnected_members;
    record.rd_smrp = smrp_report.total_recovery_distance;
    record.rd_spf = spf_report.total_recovery_distance;
    record.unrecoverable_smrp = smrp_report.unrecoverable_members;
    record.unrecoverable_spf = spf_report.unrecoverable_members;
    record.mean_delay_smrp = mean_member_delay(smrp_tree);
    record.mean_delay_spf = mean_member_delay(spf_tree);
    result.total_rd_smrp += record.rd_smrp;
    result.total_rd_spf += record.rd_spf;
    result.steps.push_back(record);

    smrp_tree.validate();
    spf_tree.validate();
  }
  result.final_members_smrp = smrp_tree.member_count();
  result.final_members_spf = spf_tree.member_count();
  return result;
}

}  // namespace smrp::eval
