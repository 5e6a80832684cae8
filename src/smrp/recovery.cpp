#include "smrp/recovery.hpp"

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

namespace smrp::proto {

LinkId worst_case_failure_link(const MulticastTree& tree, NodeId member) {
  const std::vector<NodeId> path = tree.path_to_source(member);
  if (path.size() < 2) {
    throw std::invalid_argument(
        "worst-case failure needs an on-tree non-source member");
  }
  // path runs member → … → child-of-source → source; the incident link of
  // the source is the parent link of the penultimate entry.
  return tree.parent_link(path[path.size() - 2]);
}

NodeId worst_case_failure_node(const MulticastTree& tree, NodeId member) {
  const std::vector<NodeId> path = tree.path_to_source(member);
  if (path.size() < 2) {
    throw std::invalid_argument(
        "worst-case failure needs an on-tree non-source member");
  }
  return path[path.size() - 2];  // the source's child on the member's path
}

namespace {

std::vector<char> survivors_after(const MulticastTree& tree,
                                  const Failure& failure) {
  return failure.kind == Failure::Kind::kLink
             ? tree.surviving_after_link(failure.link)
             : tree.surviving_after_node(failure.node);
}

net::ExclusionSet exclusion_for(const net::Graph& g, const Failure& failure) {
  net::ExclusionSet excluded(g);
  if (failure.kind == Failure::Kind::kLink) {
    excluded.ban_link(failure.link);
  } else {
    excluded.ban_node(failure.node);
  }
  return excluded;
}

/// Callers without a shared oracle get a throwaway one: results are
/// bit-identical either way, the shared one just reuses buffers/caches.
net::RoutingOracle* ensure_oracle(const net::Graph& g,
                                  net::RoutingOracle* oracle,
                                  std::unique_ptr<net::RoutingOracle>& owned) {
  if (oracle != nullptr) return oracle;
  owned = std::make_unique<net::RoutingOracle>(g);
  return owned.get();
}

RecoveryOutcome init_outcome(const MulticastTree& tree, NodeId member,
                             const Failure& failure,
                             const std::vector<char>& survivors) {
  RecoveryOutcome out;
  out.member = member;
  out.failed_link = failure.link;
  out.failed_node = failure.node;
  if (!tree.is_member(member)) {
    throw std::invalid_argument("recovery is initiated by a member");
  }
  if (failure.kind == Failure::Kind::kNode && failure.node == member) {
    throw std::invalid_argument("the failed node cannot recover itself");
  }
  if (survivors[static_cast<std::size_t>(member)] != 0) {
    // The failure did not touch this member's path.
    out.disconnected = false;
    out.recovered = true;
    out.reattach_node = member;
    out.new_delay = tree.delay_to_source(member);
    return out;
  }
  out.disconnected = true;
  return out;
}

/// Adopt a detour search's answer: the searching member reattaches at
/// the nearest surviving node, along the detour. Requires
/// detour.found().
void adopt_detour(const MulticastTree& tree, const net::DetourSearch& detour,
                  RecoveryOutcome& out) {
  const NodeId best = detour.best_target();
  out.recovered = true;
  out.reattach_node = best;
  out.restoration_path = detour.path();  // member → … → best
  out.restoration_links = detour.links();
  out.recovery_distance = detour.distance();
  out.recovery_hops = detour.hops();
  out.new_delay = out.recovery_distance + tree.delay_to_source(best);
}

/// Walk the member-rooted post-failure SPF `spf` toward the source and
/// graft at the first node `on_tree` flags, the way a PIM-style join
/// travels the reconverged unicast route; `out` is unrecovered, with no
/// path, when the source is unreachable.
void walk_to_tree(const Graph& g, const MulticastTree& tree,
                  const net::ShortestPathTree& spf,
                  const std::vector<char>& on_tree, RecoveryOutcome& out) {
  out.recovered = false;
  out.restoration_path.clear();
  out.restoration_links.clear();
  if (!spf.reachable(tree.source())) return;
  // The search is rooted at the member, so each hop's link is the SPF
  // parent link of the hop's far end.
  const std::vector<NodeId> path = spf.path_from_source(tree.source());
  double distance = 0.0;
  int hops = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId next = path[i + 1];
    const LinkId link = spf.parent_link[static_cast<std::size_t>(next)];
    distance += g.link(link).weight;
    ++hops;
    out.restoration_path.push_back(path[i]);
    out.restoration_links.push_back(link);
    if (on_tree[static_cast<std::size_t>(next)] != 0) {
      out.restoration_path.push_back(next);
      out.recovered = true;
      out.reattach_node = next;
      out.recovery_distance = distance;
      out.recovery_hops = hops;
      out.new_delay = distance + tree.delay_to_source(next);
      return;
    }
  }
  // The walk always ends at the source, which is on the tree by
  // definition, so reaching here means the path list was empty.
  out.restoration_path.clear();
  out.restoration_links.clear();
}

}  // namespace

RecoveryOutcome local_detour_recovery(const Graph& g,
                                      const MulticastTree& tree,
                                      NodeId member, const Failure& failure,
                                      net::RoutingOracle* oracle) {
  const std::vector<char> survivors = survivors_after(tree, failure);
  RecoveryOutcome out = init_outcome(tree, member, failure, survivors);
  if (!out.disconnected) return out;

  const net::ExclusionSet excluded = exclusion_for(g, failure);
  std::unique_ptr<net::RoutingOracle> owned;
  oracle = ensure_oracle(g, oracle, owned);
  // Survivors absorb the search: a restoration path never crosses one
  // surviving node on the way to another, so the path it yields is exactly
  // the set of new links brought into the tree. Marking the member and
  // the survivors lets it skip every dead end (DESIGN.md §17).
  const net::RoutingOracle::WorkspaceLease lease = oracle->workspace();
  net::DeadEndMarks& marks = lease->dead_end_marks(g);
  marks.mark(member);
  for (const NodeId n : tree.on_tree_nodes()) {
    if (survivors[static_cast<std::size_t>(n)] != 0) marks.mark(n);
  }
  net::DetourSearch detour;
  detour.compute(g, *lease, member, survivors, excluded, marks);
  if (detour.found()) adopt_detour(tree, detour, out);
  return out;
}

RecoveryOutcome local_detour_recovery(const Graph& g,
                                      const MulticastTree& tree,
                                      NodeId member, LinkId failed_link) {
  return local_detour_recovery(g, tree, member, Failure::of_link(failed_link));
}

RecoveryOutcome global_detour_recovery(const Graph& g,
                                       const MulticastTree& tree,
                                       NodeId member, const Failure& failure,
                                       net::RoutingOracle* oracle) {
  const std::vector<char> survivors = survivors_after(tree, failure);
  RecoveryOutcome out = init_outcome(tree, member, failure, survivors);
  if (!out.disconnected) return out;

  const net::ExclusionSet excluded = exclusion_for(g, failure);
  std::unique_ptr<net::RoutingOracle> owned;
  oracle = ensure_oracle(g, oracle, owned);
  // The reconverged unicast routing gives the member a new shortest path
  // toward the source; a PIM-style join travels along it and grafts at the
  // first router that is already on the surviving tree. Cacheable — the
  // search depends on the topology and failure only, not the tree.
  walk_to_tree(g, tree, *oracle->spf(member, excluded), survivors, out);
  return out;
}

RecoveryOutcome global_detour_recovery(const Graph& g,
                                       const MulticastTree& tree,
                                       NodeId member, LinkId failed_link) {
  return global_detour_recovery(g, tree, member,
                                Failure::of_link(failed_link));
}

SessionRepairReport repair_session(const Graph& g, MulticastTree& tree,
                                   const Failure& failure,
                                   DetourPolicy policy,
                                   const net::ExclusionSet* already_failed,
                                   obs::Telemetry* telemetry,
                                   net::RoutingOracle* oracle) {
  // Per-member searches below go through the oracle; callers repairing
  // many failures in sequence pass theirs in so the workspace pool and
  // the SPF cache survive across repairs.
  std::unique_ptr<net::RoutingOracle> owned;
  oracle = ensure_oracle(g, oracle, owned);
  SessionRepairReport report;
  std::vector<NodeId> lost =
      failure.kind == Failure::Kind::kLink
          ? tree.sever(failure.link)
          : tree.sever_node(failure.node);
  report.disconnected_members = static_cast<int>(lost.size());

  net::ExclusionSet excluded =
      already_failed != nullptr ? *already_failed : net::ExclusionSet(g);
  if (failure.kind == Failure::Kind::kLink) {
    excluded.ban_link(failure.link);
  } else {
    excluded.ban_node(failure.node);
  }

  // The surviving tree as flags, kept in lockstep with every graft below.
  // After sever, every on-tree node survives by construction.
  const std::vector<NodeId> survivors = tree.on_tree_nodes();
  std::vector<char> on_tree(static_cast<std::size_t>(g.node_count()), 0);
  for (const NodeId n : survivors) on_tree[static_cast<std::size_t>(n)] = 1;

  // kLocal's detour searches skip dead ends (DESIGN.md §17, "Dead-end
  // regions"). Each runs from a lost member to the surviving tree, and a
  // later graft adds only nodes that such a search labelled, so marking
  // the survivors and the lost members covers every target add_targets
  // will be given. One leased workspace holds the marks and runs every
  // detour search of the repair; kGlobal leases none here.
  std::optional<net::RoutingOracle::WorkspaceLease> lease;
  net::DeadEndMarks* marks = nullptr;
  if (policy == DetourPolicy::kLocal) {
    marks = &lease.emplace(oracle->workspace())->dead_end_marks(g);
    for (const NodeId n : survivors) marks->mark(n);
    for (const NodeId m : lost) marks->mark(m);
  }

  // One search per lost member for the whole repair, not one per member
  // per round (the old O(lost² · Dijkstra) pattern). kLocal holds a
  // DetourSearch — the shared incremental nearest-target mechanism: when
  // a repair grafts new nodes, a cached member only improves via one of
  // those nodes (any path invalidated by the graft has a grafted node
  // strictly earlier on it, which the delta scan considers), so updating
  // against the delta is exact. kGlobal's SPF ignores the tree entirely:
  // one cached oracle tree, re-walked against the current on-tree flags
  // each round.
  struct Candidate {
    bool computed = false;
    net::DetourSearch detour;          ///< kLocal: absorbing search + best
    net::RoutingOracle::TreePtr spf;   ///< kGlobal: cached post-failure SPF
    RecoveryOutcome outcome;
  };
  std::vector<Candidate> cache(lost.size());

  const auto compute = [&](Candidate& c, NodeId member) {
    c.computed = true;
    c.outcome = RecoveryOutcome{};
    c.outcome.member = member;
    c.outcome.failed_link = failure.link;
    c.outcome.failed_node = failure.node;
    c.outcome.disconnected = true;
    if (policy == DetourPolicy::kLocal) {
      c.detour.compute(g, **lease, member, on_tree, excluded, *marks);
      if (c.detour.found()) adopt_detour(tree, c.detour, c.outcome);
    } else {
      c.spf = oracle->spf(member, excluded);
      walk_to_tree(g, tree, *c.spf, on_tree, c.outcome);
    }
  };

  const auto refresh = [&](Candidate& c, const std::vector<NodeId>& delta) {
    if (policy == DetourPolicy::kGlobal) {
      walk_to_tree(g, tree, *c.spf, on_tree, c.outcome);
      return;
    }
    c.detour.add_targets(delta);
    if (c.detour.found() &&
        (!c.outcome.recovered ||
         c.detour.best_target() != c.outcome.reattach_node)) {
      adopt_detour(tree, c.detour, c.outcome);
    }
  };

  // Nearest-first repair: shorter detours finish first and then assist.
  std::vector<char> pending(static_cast<std::size_t>(g.node_count()), 0);
  for (const NodeId m : lost) pending[static_cast<std::size_t>(m)] = 1;
  int remaining = report.disconnected_members;
  std::vector<NodeId> delta;  // nodes the last applied repair grafted
  while (remaining > 0) {
    // Pre-pass: members whose node a previous repair already pulled back
    // on-tree simply rejoin in place.
    for (const NodeId m : lost) {
      if (!pending[static_cast<std::size_t>(m)]) continue;
      if (tree.on_tree(m)) {
        tree.graft(m, {});
        pending[static_cast<std::size_t>(m)] = 0;
        --remaining;
        ++report.repaired_members;
      }
    }
    if (remaining == 0) break;

    std::size_t best_index = lost.size();
    for (std::size_t i = 0; i < lost.size(); ++i) {
      if (!pending[static_cast<std::size_t>(lost[i])]) continue;
      Candidate& c = cache[i];
      if (!c.computed) {
        compute(c, lost[i]);
      } else if (!delta.empty()) {
        refresh(c, delta);
      }
      if (!c.outcome.recovered) continue;
      if (best_index == lost.size() ||
          c.outcome.recovery_distance <
              cache[best_index].outcome.recovery_distance) {
        best_index = i;
      }
    }
    if (best_index == lost.size()) {
      // Whoever is left is physically cut off.
      report.unrecoverable_members = remaining;
      break;
    }
    RecoveryOutcome best = cache[best_index].outcome;
    delta.clear();
    for (const NodeId n : best.restoration_path) {
      if (tree.on_tree(n)) break;
      delta.push_back(n);
    }
    apply_recovery(tree, best);
    for (const NodeId n : delta) on_tree[static_cast<std::size_t>(n)] = 1;
    pending[static_cast<std::size_t>(best.member)] = 0;
    --remaining;
    ++report.repaired_members;
    report.total_recovery_distance += best.recovery_distance;
    report.total_recovery_hops += best.recovery_hops;
    report.outcomes.push_back(std::move(best));
  }
  if (telemetry != nullptr) {
    obs::MetricsRegistry& m = telemetry->metrics;
    m.counter("smrp.recovery.disconnected")
        .add(static_cast<std::uint64_t>(report.disconnected_members));
    m.counter("smrp.recovery.repaired")
        .add(static_cast<std::uint64_t>(report.repaired_members));
    m.counter("smrp.recovery.unrecoverable")
        .add(static_cast<std::uint64_t>(report.unrecoverable_members));
    obs::Histogram& rd_weight = m.histogram("smrp.recovery.rd_weight");
    obs::Histogram& rd_hops = m.histogram(
        "smrp.recovery.rd_hops",
        {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0});
    for (const RecoveryOutcome& outcome : report.outcomes) {
      rd_weight.record(outcome.recovery_distance);
      rd_hops.record(outcome.recovery_hops);
    }
  }
  return report;
}

void apply_recovery(MulticastTree& tree, const RecoveryOutcome& outcome) {
  if (!outcome.recovered) {
    throw std::invalid_argument("cannot apply an unsuccessful recovery");
  }
  if (!outcome.disconnected) return;  // nothing to change
  if (outcome.restoration_path.empty()) {
    throw std::logic_error("apply_recovery: empty restoration path");
  }
  // A previous member's repair may already have pulled part of this
  // member's restoration path back onto the tree (neighbor-assisted
  // recovery); graft only up to the first node that is on-tree by now.
  if (tree.on_tree(outcome.member)) {
    tree.graft(outcome.member, {});
    return;
  }
  const std::vector<NodeId>& path = outcome.restoration_path;
  if (outcome.restoration_links.size() + 1 != path.size()) {
    throw std::logic_error("apply_recovery: restoration links and path differ");
  }
  std::size_t merge = 0;
  while (merge < path.size() && !tree.on_tree(path[merge])) ++merge;
  if (merge == path.size()) {
    throw std::logic_error("restoration path never reaches the tree");
  }
  tree.graft(outcome.member,
             std::span<const LinkId>(outcome.restoration_links).first(merge));
}

}  // namespace smrp::proto
