#include "smrp/tree_builder.hpp"

#include <stdexcept>

#include "net/paths.hpp"

namespace smrp::proto {

bool graft_rewalks_attachment(const MulticastTree& tree, NodeId member,
                              const std::vector<NodeId>& graft) {
  if (graft.empty() || graft.front() != member) return false;
  NodeId cur = member;
  for (std::size_t i = 1; i < graft.size(); ++i) {
    if (!tree.on_tree(cur) || tree.parent(cur) != graft[i]) return false;
    cur = graft[i];
  }
  return graft.size() > 1;
}

SmrpTreeBuilder::SmrpTreeBuilder(const Graph& g, NodeId source,
                                 SmrpConfig config, net::RoutingOracle* oracle)
    : g_(&g),
      config_(config),
      tree_(g, source),
      owned_oracle_(oracle == nullptr
                        ? std::make_unique<net::RoutingOracle>(g)
                        : nullptr),
      oracle_(oracle != nullptr ? oracle : owned_oracle_.get()),
      spf_from_source_(oracle_->spf(source)),
      spf_version_(g.topology_version()) {}

double SmrpTreeBuilder::spf_delay(NodeId n) const {
  if (!g_->valid_node(n)) throw std::out_of_range("bad node");
  return spf_from_source_->dist[static_cast<std::size_t>(n)];
}

const net::ShortestPathTree* SmrpTreeBuilder::bounding_spf() const noexcept {
  return g_->topology_version() == spf_version_ ? spf_from_source_.get()
                                                : nullptr;
}

void SmrpTreeBuilder::record_baseline(NodeId member) {
  shr_baseline_[member] = tree_.shr(member);
}

JoinOutcome SmrpTreeBuilder::join(NodeId member) {
  JoinOutcome outcome;
  if (member == tree_.source()) {
    throw std::invalid_argument("the source cannot join its own session");
  }
  if (tree_.is_member(member)) {
    outcome.joined = true;  // idempotent re-join
    outcome.merge_node = member;
    outcome.total_delay = tree_.delay_to_source(member);
    return outcome;
  }
  const double spf = spf_delay(member);
  if (spf == net::kInfinity) return outcome;  // unreachable from the source

  const std::optional<Selection> selection =
      select_join_path(*g_, tree_, member, spf, config_, oracle_,
                       bounding_spf());
  if (!selection) return outcome;

  tree_.graft(member, net::path_links(*g_, selection->chosen.graft));
  record_baseline(member);

  outcome.joined = true;
  outcome.used_fallback = selection->used_fallback;
  outcome.merge_node = selection->chosen.merge_node;
  outcome.total_delay = tree_.delay_to_source(member);
  if (selection->used_fallback) ++fallback_joins_;

  if (config_.enable_reshaping) {
    outcome.reshapes_triggered = condition_one_sweep();
  }
  return outcome;
}

JoinOutcome SmrpTreeBuilder::join_along(NodeId member,
                                        const std::vector<NodeId>& graft) {
  JoinOutcome outcome;
  if (tree_.is_member(member)) {
    outcome.joined = true;
    outcome.merge_node = member;
    outcome.total_delay = tree_.delay_to_source(member);
    return outcome;
  }
  // Externally supplied grafts (query scheme, scripted scenarios) are
  // unvalidated input: an empty graft or one that never reaches the tree
  // is a failed join, not UB — mirroring the restoration-path guard in
  // apply_recovery(). A graft that starts elsewhere or has a non-adjacent
  // hop throws std::invalid_argument, as graft() does for a bad path.
  if (graft.empty() || !tree_.on_tree(graft.back())) return outcome;
  if (graft.front() != member) {
    throw std::invalid_argument("graft path must start at the joining member");
  }
  tree_.graft(member, net::path_links(*g_, graft));
  record_baseline(member);
  outcome.joined = true;
  outcome.merge_node = graft.back();
  outcome.total_delay = tree_.delay_to_source(member);
  if (config_.enable_reshaping) {
    outcome.reshapes_triggered = condition_one_sweep();
  }
  return outcome;
}

void SmrpTreeBuilder::leave(NodeId member) {
  tree_.leave(member);
  shr_baseline_.erase(member);
}

bool SmrpTreeBuilder::try_reshape(NodeId member) {
  if (!tree_.is_member(member)) return false;
  const NodeId up = tree_.parent(member);
  if (up == net::kNoNode) return false;

  const double spf = spf_delay(member);
  std::vector<JoinCandidate> candidates = enumerate_candidates(
      *g_, tree_, member, spf, config_, member, nullptr, oracle_,
      bounding_spf());

  // The comparison baseline: the member's current merge point is its
  // upstream node; adjust its SHR exactly as candidate SHRs are adjusted
  // (§3.2.3: "the value of SHR may be inaccurate and should be adjusted
  // before the path comparison is made").
  const int current_shr = tree_.shr_excluding_subtree(up, member);
  const double current_delay = tree_.delay_to_source(member);

  const JoinCandidate* best = nullptr;
  for (const JoinCandidate& c : candidates) {
    if (!c.within_bound) continue;
    if (best == nullptr || c.shr < best->shr ||
        (c.shr == best->shr && c.total_delay < best->total_delay)) {
      best = &c;
    }
  }
  if (best == nullptr) return false;
  const bool better =
      best->shr < current_shr ||
      (best->shr == current_shr && best->total_delay + 1e-9 < current_delay);
  if (!better) return false;
  // A candidate that merely re-walks the current attachment — whether the
  // single upstream edge or a multi-hop graft retracing the member's
  // existing relay chain — is a no-op; moving along it would churn
  // move_subtree without changing the tree.
  if (graft_rewalks_attachment(tree_, member, best->graft)) return false;

  tree_.move_subtree(member, net::path_links(*g_, best->graft));
  record_baseline(member);
  ++reshape_count_;
  return true;
}

int SmrpTreeBuilder::condition_one_sweep() {
  int switches = 0;
  bool progressed = true;
  while (progressed && switches < config_.max_reshapes_per_event) {
    progressed = false;
    for (const NodeId member : tree_.members()) {
      const auto baseline = shr_baseline_.find(member);
      if (baseline == shr_baseline_.end()) continue;
      if (tree_.shr(member) - baseline->second < config_.reshape_shr_delta) {
        continue;
      }
      if (try_reshape(member)) {
        ++switches;
        progressed = true;
        if (switches >= config_.max_reshapes_per_event) break;
      } else {
        // Selection declined to move: reset the reference so the same
        // growth does not retrigger a no-op scan on every later join.
        record_baseline(member);
      }
    }
  }
  return switches;
}

int SmrpTreeBuilder::reshape_pass() {
  int switches = 0;
  for (const NodeId member : tree_.members()) {
    if (try_reshape(member)) ++switches;
  }
  return switches;
}

int SmrpTreeBuilder::reshape_to_fixpoint(int max_passes) {
  int total = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    const int switches = reshape_pass();
    total += switches;
    if (switches == 0) break;
  }
  return total;
}

}  // namespace smrp::proto
