#include "smrp/tree_builder.hpp"

#include <stdexcept>

#include "net/paths.hpp"

namespace smrp::proto {

SmrpTreeBuilder::SmrpTreeBuilder(const Graph& g, NodeId source,
                                 SmrpConfig config, net::RoutingOracle* oracle)
    : g_(&g),
      config_(config),
      tree_(g, source),
      owned_oracle_(oracle == nullptr
                        ? std::make_unique<net::RoutingOracle>(g)
                        : nullptr),
      oracle_(oracle != nullptr ? oracle : owned_oracle_.get()),
      spf_from_source_(oracle_->spf(source)) {}

double SmrpTreeBuilder::spf_delay(NodeId n) const {
  if (!g_->valid_node(n)) throw std::out_of_range("bad node");
  return spf_from_source_->dist[static_cast<std::size_t>(n)];
}

std::int32_t SmrpTreeBuilder::confining_region(NodeId member) const {
  const net::BridgeTree& bridges = g_->bridge_tree();
  const auto component = [&](NodeId n) {
    return bridges.component[static_cast<std::size_t>(n)];
  };
  const std::int32_t top = component(tree_.source());
  std::int32_t region = component(member);
  if (region == top) return kNoRegion;
  for (std::int32_t up = bridges.parent[static_cast<std::size_t>(region)];
       up != top; up = bridges.parent[static_cast<std::size_t>(region)]) {
    if (up < 0) return kNoRegion;  // not below the source's component
    region = up;
  }
  // The exit node's own search leaves the region through its bridge.
  const net::Link& bridge =
      g_->link(bridges.parent_link[static_cast<std::size_t>(region)]);
  const NodeId exit = component(bridge.a) == region ? bridge.a : bridge.b;
  return member == exit ? kNoRegion : region;
}

void SmrpTreeBuilder::touch_region(std::int32_t region) {
  if (region != kNoRegion) region_stamps_[region] = ++stamp_;
}

std::uint64_t SmrpTreeBuilder::region_stamp(std::int32_t region) {
  std::uint64_t& stamp = region_stamps_[region];
  if (stamp <= invalidated_at_) stamp = ++stamp_;
  return stamp;
}

void SmrpTreeBuilder::record_join(NodeId member, bool selected) {
  Baseline state;
  state.shr = tree_.shr(member);
  state.region = confining_region(member);
  if (state.region != kNoRegion) {
    touch_region(state.region);
    if (selected) state.decided = region_stamp(state.region);
  }
  baselines_[member] = state;
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
                       spf_from_source_.get());
  if (!selection) return outcome;

  tree_.graft(member, net::path_links(*g_, selection->chosen.graft));
  record_join(member, selection->chosen.graft.size() > 1);

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
  record_join(member, false);
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
  const auto entry = baselines_.find(member);
  touch_region(entry->second.region);
  baselines_.erase(entry);
}

bool SmrpTreeBuilder::try_reshape(NodeId member, Baseline& state) {
  if (tree_.parent(member) == net::kNoNode) return false;
  ++reshape_attempts_;

  // A confined member's decision depends on its region's tree alone
  // (DESIGN.md §17, "Region-local Condition-I decisions"), so while the
  // region is as it was at its last decision and no member outside every
  // region has moved since, the decline stands.
  const bool tracked = state.region != kNoRegion;
  if (tracked && state.decided > invalidated_at_ &&
      region_stamps_.find(state.region)->second == state.decided) {
    return false;
  }
  ++reshape_searches_;

  const std::optional<JoinCandidate> best = select_reshape(
      tree_, member,
      enumerate_candidates(*g_, tree_, member, spf_delay(member), config_,
                           member, nullptr, oracle_, spf_from_source_.get()));
  if (!best) {
    if (tracked) state.decided = region_stamp(state.region);
    return false;
  }

  tree_.move_subtree(member, net::path_links(*g_, best->graft));
  state.shr = tree_.shr(member);
  state.decided = 0;
  // A confined move changes its own region only; any other move may
  // change the delay to the source of every region below it.
  if (state.region != kNoRegion) {
    touch_region(state.region);
  } else {
    invalidated_at_ = stamp_;
  }
  ++reshape_count_;
  return true;
}

int SmrpTreeBuilder::condition_one_sweep() {
  int switches = 0;
  bool progressed = true;
  while (progressed && switches < config_.max_reshapes_per_event) {
    progressed = false;
    // Ascending by member; nothing joins or leaves during the sweep, so
    // the entries stay where they are.
    for (auto& [member, state] : baselines_) {
      if (tree_.shr(member) - state.shr < config_.reshape_shr_delta) {
        continue;
      }
      if (try_reshape(member, state)) {
        ++switches;
        progressed = true;
        if (switches >= config_.max_reshapes_per_event) break;
      } else {
        // Selection declined to move: reset the reference so the same
        // growth does not retrigger a no-op scan on every later join.
        state.shr = tree_.shr(member);
      }
    }
  }
  return switches;
}

int SmrpTreeBuilder::reshape_pass() {
  int switches = 0;
  for (auto& [member, state] : baselines_) {
    if (try_reshape(member, state)) ++switches;
  }
  return switches;
}

}  // namespace smrp::proto
