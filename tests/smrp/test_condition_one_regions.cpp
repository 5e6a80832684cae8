// Region-local Condition-I decisions (DESIGN.md §17): SmrpTreeBuilder
// declines a reshape attempt without searching when the member's
// bridge-separated region is as it was at its last decision. Those
// declines must be exactly the ones a full search would make, so the
// builder is driven in lockstep with a reference that searches on every
// attempt, through seeded joins, leaves, Condition-II passes and
// externally chosen grafts, and the two must agree after every operation.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "net/paths.hpp"
#include "net/routing_oracle.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"
#include "smrp/path_selection.hpp"
#include "smrp/tree_builder.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

/// The Condition-I engine with no stored decisions: joins go through
/// select_join_path, and every attempt runs the full candidate search and
/// the comparison SmrpTreeBuilder::try_reshape makes.
class AlwaysSearchReference {
 public:
  AlwaysSearchReference(const Graph& g, NodeId source, SmrpConfig config)
      : g_(g),
        config_(config),
        tree_(g, source),
        oracle_(g),
        source_spf_(oracle_.spf(source)) {}

  /// Mirrors SmrpTreeBuilder::join; returns whether the member joined and
  /// the Condition-I switches the join caused.
  std::pair<bool, int> join(NodeId member) {
    if (tree_.is_member(member)) return {true, 0};
    const double spf = source_spf_->dist[static_cast<std::size_t>(member)];
    if (spf == net::kInfinity) return {false, 0};
    const std::optional<Selection> selection = select_join_path(
        g_, tree_, member, spf, config_, &oracle_, source_spf_.get());
    if (!selection) return {false, 0};
    tree_.graft(member, net::path_links(g_, selection->chosen.graft));
    return {true, after_join(member)};
  }

  /// Mirrors SmrpTreeBuilder::join_along.
  std::pair<bool, int> join_along(NodeId member,
                                  const std::vector<NodeId>& graft) {
    if (tree_.is_member(member)) return {true, 0};
    if (graft.empty() || !tree_.on_tree(graft.back())) return {false, 0};
    tree_.graft(member, net::path_links(g_, graft));
    return {true, after_join(member)};
  }

  void leave(NodeId member) {
    tree_.leave(member);
    baseline_.erase(member);
  }

  int reshape_pass() {
    int switches = 0;
    for (const NodeId member : tree_.members()) {
      if (try_reshape(member)) ++switches;
    }
    return switches;
  }

  [[nodiscard]] const MulticastTree& tree() const { return tree_; }
  [[nodiscard]] int reshapes() const { return reshapes_; }
  [[nodiscard]] std::int64_t attempts() const { return attempts_; }

 private:
  int after_join(NodeId member) {
    baseline_[member] = tree_.shr(member);
    return config_.enable_reshaping ? condition_one_sweep() : 0;
  }

  int condition_one_sweep() {
    int switches = 0;
    bool progressed = true;
    while (progressed && switches < config_.max_reshapes_per_event) {
      progressed = false;
      for (const NodeId member : tree_.members()) {
        int& baseline = baseline_.at(member);
        if (tree_.shr(member) - baseline < config_.reshape_shr_delta) continue;
        if (try_reshape(member)) {
          ++switches;
          progressed = true;
          if (switches >= config_.max_reshapes_per_event) break;
        } else {
          baseline = tree_.shr(member);
        }
      }
    }
    return switches;
  }

  bool try_reshape(NodeId member) {
    const NodeId up = tree_.parent(member);
    if (up == net::kNoNode) return false;
    ++attempts_;
    const double spf = source_spf_->dist[static_cast<std::size_t>(member)];
    const std::vector<JoinCandidate> candidates =
        enumerate_candidates(g_, tree_, member, spf, config_, member, nullptr,
                             &oracle_, source_spf_.get());
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
    if (!better || graft_rewalks_attachment(tree_, member, best->graft)) {
      return false;
    }
    tree_.move_subtree(member, net::path_links(g_, best->graft));
    baseline_[member] = tree_.shr(member);
    ++reshapes_;
    return true;
  }

  const Graph& g_;
  SmrpConfig config_;
  MulticastTree tree_;
  net::RoutingOracle oracle_;
  net::RoutingOracle::TreePtr source_spf_;
  std::map<NodeId, int> baseline_;
  int reshapes_ = 0;
  std::int64_t attempts_ = 0;
};

/// Members, on-tree nodes with their roles and parent links, and the
/// tree's links: O(tree), where testing::expect_same_tree walks every
/// graph node, too slow after every operation on a 9,960-node graph.
void expect_same_tree(const MulticastTree& a, const MulticastTree& b) {
  ASSERT_EQ(a.members(), b.members());
  const std::vector<NodeId> nodes = a.on_tree_nodes();
  ASSERT_EQ(nodes, b.on_tree_nodes());
  for (const NodeId n : nodes) {
    ASSERT_EQ(a.role(n), b.role(n)) << "node " << n;
    ASSERT_EQ(a.parent_link(n), b.parent_link(n)) << "node " << n;
  }
  ASSERT_EQ(a.tree_links(), b.tree_links());
}

struct Tally {
  std::int64_t attempts = 0;
  std::int64_t searches = 0;
  int reshapes = 0;
};

/// Drive both engines through `ops` seeded operations on `g`: mostly
/// joins and leaves, a Condition-II pass every so often, and now and then
/// a join along an arbitrary (not the selected) candidate graft.
void run_lockstep(const Graph& g, NodeId source, const SmrpConfig& config,
                  std::uint64_t seed, int ops, Tally& tally) {
  SmrpTreeBuilder builder(g, source, config);
  AlwaysSearchReference reference(g, source, config);
  net::Rng rng(seed);
  const auto pick = [&](int n) {
    return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  };
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ", op " << op);
    const std::vector<NodeId> members = builder.tree().members();
    const std::uint64_t kind = rng.below(40);
    if (kind < 24 || members.empty()) {
      const NodeId n = pick(g.node_count());
      if (n == source) continue;
      const JoinOutcome out = builder.join(n);
      const auto [joined, switches] = reference.join(n);
      ASSERT_EQ(out.joined, joined);
      ASSERT_EQ(out.reshapes_triggered, switches);
    } else if (kind < 37) {
      const NodeId n = members[rng.below(members.size())];
      builder.leave(n);
      reference.leave(n);
    } else if (kind < 39) {
      ASSERT_EQ(builder.reshape_pass(), reference.reshape_pass());
    } else {
      const NodeId n = pick(g.node_count());
      if (builder.tree().on_tree(n)) continue;
      const double spf = builder.spf_delay(n);
      if (spf == net::kInfinity) continue;
      const std::vector<JoinCandidate> candidates =
          enumerate_candidates(g, builder.tree(), n, spf, config);
      if (candidates.empty()) continue;
      const std::vector<NodeId>& graft =
          candidates[rng.below(candidates.size())].graft;
      const JoinOutcome out = builder.join_along(n, graft);
      const auto [joined, switches] = reference.join_along(n, graft);
      ASSERT_EQ(out.joined, joined);
      ASSERT_EQ(out.reshapes_triggered, switches);
    }
    expect_same_tree(builder.tree(), reference.tree());
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(builder.total_reshapes(), reference.reshapes());
    ASSERT_EQ(builder.reshape_attempts(), reference.attempts());
  }
  builder.tree().validate();
  tally.attempts += builder.reshape_attempts();
  tally.searches += builder.reshape_searches();
  tally.reshapes += builder.total_reshapes();
}

/// Configurations the decisions must hold under: the default, a tight
/// bound (more fallback joins), a loose one, and first-hit grafts.
std::vector<SmrpConfig> configs() {
  SmrpConfig tight;
  tight.d_thresh = 0.05;
  SmrpConfig loose;
  loose.d_thresh = 1.0;
  SmrpConfig first_hit;
  first_hit.graft_mode = GraftMode::kFirstHit;
  return {SmrpConfig{}, tight, loose, first_hit};
}

/// A transit-stub graph and one of its transit routers as the source, so
/// every stub lies below the source's component.
struct StubWorld {
  net::TransitStubTopology topo;
  NodeId source;
};

StubWorld stub_world(int transit, int stubs_per, int stub, net::Rng& rng) {
  net::TransitStubParams p;
  p.transit_nodes = transit;
  p.stubs_per_transit = stubs_per;
  p.stub_size = stub;
  StubWorld w{net::generate_transit_stub(p, rng), net::kNoNode};
  const std::vector<NodeId>& core = w.topo.nodes_of_domain[net::kTransitDomain];
  w.source = core[rng.below(core.size())];
  return w;
}

// On transit-stub graphs nearly every member is confined to its stub, so
// most attempts repeat a stored decline; every one of them must be a
// decline the full search makes too.
TEST(RegionLocalConditionOne, MatchesAlwaysSearchingOnTransitStub) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    net::Rng rng(seed * 104729 + 7);
    const StubWorld large = stub_world(40, 8, 31, rng);
    const StubWorld small = stub_world(10, 4, 4, rng);
    for (const SmrpConfig& config : configs()) {
      for (const StubWorld* world : {&large, &small}) {
        // A first-hit search is a full SPF of the graph: small graph only.
        if (config.graft_mode == GraftMode::kFirstHit && world == &large) {
          continue;
        }
        Tally tally;
        run_lockstep(world->topo.graph, world->source, config, seed, 400,
                     tally);
        if (HasFatalFailure()) return;
        EXPECT_GT(tally.attempts, 0);
        EXPECT_LT(tally.searches, tally.attempts)
            << "no attempt repeated a stored decline";
      }
    }
  }
}

// Few, large stubs crowd many members into each region, so members move
// inside a region that others have stored decisions in; a large core
// holds members whose moves change every region below them. A stored
// decline that outlived either change would show here.
TEST(RegionLocalConditionOne, MatchesAlwaysSearchingWhereRegionsAreCrowded) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    net::Rng rng(seed * 31 + 5);
    for (const auto [transit, stubs_per, stub] :
         {std::array{8, 2, 6}, std::array{12, 1, 8}, std::array{6, 2, 20},
          std::array{20, 1, 5}}) {
      const StubWorld world = stub_world(transit, stubs_per, stub, rng);
      for (const SmrpConfig& config : configs()) {
        run_lockstep(world.topo.graph, world.source, config, seed, 800,
                     tally);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_LT(tally.searches, tally.attempts);
  EXPECT_GT(tally.reshapes, 0);
}

// Bridge-rich graphs put regions inside regions and exit nodes
// everywhere; Waxman graphs have almost no bridges, so nearly every
// attempt searches. Both must agree with the reference throughout.
TEST(RegionLocalConditionOne, MatchesAlwaysSearchingOnBridgeRichAndWaxman) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const SmrpConfig& config : configs()) {
      net::Rng rng(seed * 7919 + 13);
      for (const Graph& g : testing::bridge_rich_graphs(rng)) {
        const NodeId source = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(g.node_count())));
        run_lockstep(g, source, config, seed + 200, 250, tally);
        if (HasFatalFailure()) return;
      }
      net::WaxmanParams wax;
      wax.node_count = 80;
      const Graph waxman = net::waxman_graph(wax, rng);
      run_lockstep(waxman, static_cast<NodeId>(rng.below(80)), config,
                   seed + 300, 250, tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.reshapes, 0) << "no attempt ever moved a member";
}

}  // namespace
}  // namespace smrp::proto
