#include "smrp/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

namespace smrp::proto {

namespace {

std::string describe(net::NodeId n) {
  return "node " + std::to_string(n);
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) out << "\n";
    out << violations[i];
  }
  return out.str();
}

InvariantChecker::InvariantChecker(const DistributedSession& session,
                                   const sim::SimNetwork& network)
    : session_(&session), network_(&network) {}

std::vector<char> InvariantChecker::up_component() const {
  const net::Graph& g = network_->graph();
  std::vector<char> in(static_cast<std::size_t>(g.node_count()), 0);
  const net::NodeId source = session_->source();
  if (!network_->node_up(source)) return in;
  std::queue<net::NodeId> frontier;
  frontier.push(source);
  in[static_cast<std::size_t>(source)] = 1;
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop();
    for (const net::Adjacency& adj : g.neighbors(u)) {
      if (!network_->link_up(adj.link) || !network_->node_up(adj.neighbor)) {
        continue;
      }
      if (in[static_cast<std::size_t>(adj.neighbor)] != 0) continue;
      in[static_cast<std::size_t>(adj.neighbor)] = 1;
      frontier.push(adj.neighbor);
    }
  }
  return in;
}

void InvariantChecker::check_structure(InvariantReport& report) const {
  const net::Graph& g = network_->graph();
  const net::NodeId source = session_->source();
  if (session_->parent_of(source) != net::kNoNode) {
    report.violations.push_back("source claims a parent");
  }
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    const net::NodeId parent = session_->parent_of(n);
    if (parent != net::kNoNode) {
      if (!session_->on_tree(n)) {
        report.violations.push_back(describe(n) +
                                    " has a parent but is not on-tree");
      }
      if (!g.valid_node(parent) || !g.link_between(n, parent)) {
        report.violations.push_back(describe(n) + " parent " +
                                    std::to_string(parent) +
                                    " is not a graph neighbor");
      }
    }
    for (const net::NodeId child : session_->children_of(n)) {
      if (!g.valid_node(child) || !g.link_between(n, child)) {
        report.violations.push_back(describe(n) + " child " +
                                    std::to_string(child) +
                                    " is not a graph neighbor");
      }
    }
    if (session_->seen_nonce_count(n) > DistributedSession::kSeenNonceCap) {
      report.violations.push_back(
          describe(n) + " holds " +
          std::to_string(session_->seen_nonce_count(n)) +
          " repair nonces (cap " +
          std::to_string(DistributedSession::kSeenNonceCap) + ")");
    }
    if (session_->on_tree(n) && session_->believed_shr(n) < 0) {
      report.violations.push_back(describe(n) + " believes a negative SHR (" +
                                  std::to_string(session_->believed_shr(n)) +
                                  ")");
    }
  }
}

void InvariantChecker::check_cycles(InvariantReport& report,
                                    bool allow_stale_cycles) const {
  const net::Graph& g = network_->graph();
  // Walk every parent chain; colour nodes by walk so each chain is O(V)
  // and a back-edge into the current walk is a cycle.
  const auto count = static_cast<std::size_t>(g.node_count());
  std::vector<int> visited_in(count, -1);
  std::vector<char> cleared(count, 0);
  for (net::NodeId start = 0; start < g.node_count(); ++start) {
    net::NodeId cur = start;
    while (cur != net::kNoNode && cleared[static_cast<std::size_t>(cur)] == 0) {
      if (visited_in[static_cast<std::size_t>(cur)] == start) {
        if (!allow_stale_cycles) {
          report.violations.push_back("parent cycle through " + describe(cur));
        }
        break;
      }
      visited_in[static_cast<std::size_t>(cur)] = start;
      cur = session_->parent_of(cur);
    }
    // Everything touched this walk either reached the chain's end or the
    // cycle has been reported; never walk it again.
    cur = start;
    while (cur != net::kNoNode && cleared[static_cast<std::size_t>(cur)] == 0) {
      cleared[static_cast<std::size_t>(cur)] = 1;
      cur = session_->parent_of(cur);
    }
  }
}

InvariantReport InvariantChecker::audit() const {
  InvariantReport report;
  check_structure(report);
  check_cycles(report, /*allow_stale_cycles=*/true);
  return report;
}

InvariantReport InvariantChecker::audit_quiescent(
    sim::Time quiescent_since) const {
  InvariantReport report;
  check_structure(report);
  check_cycles(report, /*allow_stale_cycles=*/false);

  const net::Graph& g = network_->graph();
  const net::NodeId source = session_->source();
  const std::vector<char> reachable = up_component();
  const auto in_component = [&](net::NodeId n) {
    return reachable[static_cast<std::size_t>(n)] != 0;
  };

  if (!network_->node_up(source)) {
    // Source permanently dead: nothing further is owed to anyone.
    return report;
  }

  const auto snapshot = session_->snapshot_tree();

  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    if (!in_component(n)) continue;  // physically cut off: allowed dark

    // Every member the surviving topology still connects to the source
    // must be on-tree with a live parent chain ending at the source.
    const bool must_serve = session_->is_member(n);
    if (must_serve && !session_->on_tree(n)) {
      report.violations.push_back(describe(n) +
                                  " is a reachable member but off-tree");
      continue;
    }
    if (!session_->on_tree(n)) continue;

    if (session_->is_stranded(n)) {
      report.violations.push_back(describe(n) +
                                  " is stranded despite a live path");
    }

    // Parent chain: every hop up, every link up, terminating at the source.
    net::NodeId cur = n;
    int guard = 0;
    bool chain_ok = true;
    while (cur != source) {
      const net::NodeId parent = session_->parent_of(cur);
      if (parent == net::kNoNode) {
        report.violations.push_back(describe(n) + " chain orphans at " +
                                    describe(cur));
        chain_ok = false;
        break;
      }
      const auto link = g.link_between(cur, parent);
      if (!link || !network_->link_up(*link) || !network_->node_up(parent)) {
        report.violations.push_back(describe(n) + " chain crosses a dead " +
                                    "hop at " + describe(cur));
        chain_ok = false;
        break;
      }
      // Agreement child -> parent: the parent must know about us.
      const std::vector<net::NodeId> kids = session_->children_of(parent);
      if (std::find(kids.begin(), kids.end(), cur) == kids.end()) {
        report.violations.push_back(describe(parent) +
                                    " does not list its child " +
                                    describe(cur));
        chain_ok = false;
        break;
      }
      cur = parent;
      if (++guard > g.node_count()) {
        chain_ok = false;  // cycle, already reported by check_cycles
        break;
      }
    }

    // Agreement parent -> child: everyone we forward to claims us upstream.
    for (const net::NodeId child : session_->children_of(n)) {
      if (!network_->node_up(child)) {
        report.violations.push_back(describe(n) + " retains dead child " +
                                    describe(child));
        continue;
      }
      if (session_->parent_of(child) != n) {
        report.violations.push_back(describe(n) + " lists child " +
                                    describe(child) +
                                    " which claims a different parent");
      }
    }

    // Eventual service: fresh data since the network went quiescent.
    if (must_serve && chain_ok) {
      const sim::Time last = session_->last_data_at(n);
      if (last < quiescent_since) {
        report.violations.push_back(
            describe(n) + " has received no data since quiescence (last at " +
            std::to_string(last) + "ms)");
      }
    }

    // SHR within bounds and consistent with Eq. 2 on the analytic tree.
    if (snapshot && snapshot->on_tree(n) && chain_ok) {
      const int believed = session_->believed_shr(n);
      const int exact = snapshot->shr(n);
      if (believed != exact) {
        report.violations.push_back(
            describe(n) + " believes SHR " + std::to_string(believed) +
            " but the tree computes " + std::to_string(exact));
      }
    }
  }
  if (!snapshot) {
    report.violations.push_back(
        "distributed state has no consistent tree snapshot at quiescence");
  }
  return report;
}

sim::Time service_restoration_bound(const SessionConfig& session,
                                    const routing::RoutingConfig& routing,
                                    const net::Graph& graph) {
  // Failure detection: the upstream timeout plus up to two maintenance
  // ticks of scheduling skew (staggered timers, restart observation).
  const sim::Time detect =
      session.upstream_timeout + 2.0 * session.refresh_interval;

  // Full expanding-ring schedule: TTL doubles per ring, pacing grows by
  // kRepairBackoff per ring plus jitter headroom.
  int rings = 1;
  for (int ttl = 1; ttl * 2 <= session.max_repair_ttl; ttl *= 2) ++rings;
  sim::Time ring_wait = 0.0;
  sim::Time pacing =
      session.repair_retry * (1.0 + SessionConfig::kRepairJitter);
  for (int r = 0; r < rings; ++r) {
    ring_wait += pacing;
    pacing *= SessionConfig::kRepairBackoff;
  }

  // IGP reconvergence after the last topology change: neighbour death
  // detection, LSA reflooding (ticks alongside HELLOs), SPF hold-down.
  const sim::Time igp_reconverge =
      routing.dead_interval + 2.0 * routing.hello_interval + routing.spf_delay;

  // Soft-state and SHR re-propagation travel one hop per refresh tick, in
  // both directions, across at most the network depth.
  const sim::Time state_converge =
      2.0 * graph.node_count() * session.refresh_interval +
      session.state_timeout;

  // Repairs can cascade: a member may graft below a subtree whose own head
  // is still repairing, or the routed-join fallback may itself race the
  // IGP. Three full detect-and-repair rounds cover every cascade seen in
  // practice with a comfortable margin; 1.5x is engineering slack on top.
  return 1.5 * (igp_reconverge + 3.0 * (detect + ring_wait) + state_converge);
}

}  // namespace smrp::proto
