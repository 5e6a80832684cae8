// RoutingOracle: caching semantics, counter invariants, and the
// load-bearing property that every cached tree is bit-identical to a fresh
// Dijkstra run.
#include "net/routing_oracle.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/random_graphs.hpp"
#include "net/rng.hpp"
#include "net/shortest_path.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"
#include "testing_topologies.hpp"

namespace smrp::net {
namespace {

using testing::Fig1Topology;

void expect_identical(const ShortestPathTree& a, const ShortestPathTree& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.parent_link, b.parent_link);
  EXPECT_EQ(a.hops, b.hops);
}

/// expect_identical, with dist compared bit for bit (== would pass
/// -0.0 for 0.0).
void expect_bit_identical(const ShortestPathTree& got,
                          const ShortestPathTree& want) {
  ASSERT_EQ(got.dist.size(), want.dist.size());
  for (std::size_t i = 0; i < got.dist.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.dist[i]),
              std::bit_cast<std::uint64_t>(want.dist[i]))
        << "node " << i << ": " << got.dist[i] << " vs " << want.dist[i];
  }
  expect_identical(got, want);
}

/// Whether `n` lies in a root component of `g`'s bridge tree: the
/// sources whose misses are composed.
bool in_root_component(const Graph& g, NodeId n) {
  const BridgeTree& bt = g.bridge_tree();
  return bt.parent[static_cast<std::size_t>(
             bt.component[static_cast<std::size_t>(n)])] == -1;
}

/// Whether `g` has a region: a component directly below a root.
bool has_region(const Graph& g) {
  const BridgeTree& bt = g.bridge_tree();
  for (const std::int32_t up : bt.parent) {
    if (up != -1 && bt.parent[static_cast<std::size_t>(up)] == -1) {
      return true;
    }
  }
  return false;
}

void expect_counter_invariants(const RoutingOracle::Stats& s) {
  EXPECT_EQ(s.lookups, s.cache_hits + s.cache_misses);
  EXPECT_EQ(s.cache_misses, s.full_runs);  // every miss, composed or not
  EXPECT_EQ(s.incremental_repairs, 0u);
}

TEST(RoutingOracle, PlainSpfMatchesFreeDijkstra) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  for (NodeId s = 0; s < fig.graph.node_count(); ++s) {
    expect_identical(*oracle.spf(s), dijkstra(fig.graph, s));
  }
  expect_counter_invariants(oracle.stats());
}

TEST(RoutingOracle, RepeatLookupIsACacheHit) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  const RoutingOracle::TreePtr first = oracle.spf(Fig1Topology::S);
  const RoutingOracle::TreePtr second = oracle.spf(Fig1Topology::S);
  EXPECT_EQ(first.get(), second.get());  // same immutable snapshot
  const auto s = oracle.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.full_runs, 1u);
  expect_counter_invariants(s);
}

TEST(RoutingOracle, ExclusionLookupsKeyOnTheBanSet) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  ExclusionSet banned(fig.graph);
  banned.ban_link(fig.AD);
  const RoutingOracle::TreePtr constrained =
      oracle.spf(Fig1Topology::S, banned);
  expect_identical(*constrained, dijkstra(fig.graph, Fig1Topology::S, banned));

  // An equal ban set built in a different order hits the same entry.
  ExclusionSet same(fig.graph);
  same.ban_link(fig.CD);
  same.ban_link(fig.AD);
  same.allow_link(fig.CD);
  const auto before = oracle.stats();
  const RoutingOracle::TreePtr again = oracle.spf(Fig1Topology::S, same);
  EXPECT_EQ(constrained.get(), again.get());
  EXPECT_EQ(oracle.stats().cache_hits, before.cache_hits + 1);
}

TEST(RoutingOracle, EvictionKeepsResultsCorrect) {
  net::Rng rng(11);
  WaxmanParams wax;
  wax.node_count = 40;
  const Graph g = waxman_graph(wax, rng);
  RoutingOracle oracle(g);
  // Cycle through more distinct (source, one-link ban) keys than the
  // cache holds, twice. The cap is exact, and under LRU a cyclic sweep
  // larger than the cache never hits: every key was evicted before its
  // turn came round again.
  constexpr int kKeys = 300;
  static_assert(kKeys > static_cast<int>(RoutingOracle::kMaxEntries));
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      const NodeId source = k % g.node_count();
      ExclusionSet banned(g);
      banned.ban_link(static_cast<LinkId>(k / g.node_count()));
      expect_identical(*oracle.spf(source, banned),
                       dijkstra(g, source, banned));
    }
    EXPECT_EQ(oracle.snapshot_count(), RoutingOracle::kMaxEntries);
  }
  const auto s = oracle.stats();
  EXPECT_EQ(s.cache_misses, 2u * kKeys);
  expect_counter_invariants(s);
}

TEST(RoutingOracle, BadSourcesThrowWithoutTouchingCounters) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  EXPECT_THROW((void)oracle.spf(99), std::out_of_range);
  ExclusionSet banned(fig.graph);
  banned.ban_node(Fig1Topology::S);
  EXPECT_THROW((void)oracle.spf(Fig1Topology::S, banned),
               std::invalid_argument);
  EXPECT_EQ(oracle.stats().lookups, 0u);
}

TEST(RoutingOracle, TelemetryMirrorsTheCounters) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  obs::Telemetry telemetry;
  oracle.attach_telemetry(&telemetry);
  (void)oracle.spf(Fig1Topology::S);
  (void)oracle.spf(Fig1Topology::S);
  ExclusionSet failed(fig.graph);
  failed.ban_link(fig.AD);
  (void)oracle.spf(Fig1Topology::S, failed);

  auto& m = telemetry.metrics;
  EXPECT_EQ(m.counter("smrp.routing.lookups").value(), 3u);
  EXPECT_EQ(m.counter("smrp.routing.cache_hit").value(), 1u);
  EXPECT_EQ(m.counter("smrp.routing.cache_miss").value(), 2u);
  EXPECT_EQ(m.counter("smrp.routing.cache_fallback").value(), 2u);
  EXPECT_EQ(m.counter("smrp.routing.cache_hit").value() +
                m.counter("smrp.routing.cache_miss").value(),
            m.counter("smrp.routing.lookups").value());
}

TEST(RoutingOracle, WorkspaceLeasesMatchFreeFunctions) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  std::vector<char> absorbing(
      static_cast<std::size_t>(fig.graph.node_count()), 0);
  absorbing[Fig1Topology::C] = 1;
  {
    RoutingOracle::WorkspaceLease lease = oracle.workspace();
    const ShortestPathTree& got =
        lease->run_absorbing(fig.graph, Fig1Topology::D, absorbing);
    expect_identical(got,
                     dijkstra_absorbing(fig.graph, Fig1Topology::D, absorbing));
  }
  // Returned to the pool; a second lease works fine.
  RoutingOracle::WorkspaceLease again = oracle.workspace();
  expect_identical(again->run(fig.graph, Fig1Topology::B),
                   dijkstra(fig.graph, Fig1Topology::B));
}

TEST(DetourSearch, MatchesFreshScanAndDeltaUpdates) {
  net::Rng rng(23);
  WaxmanParams wax;
  wax.node_count = 50;
  const Graph g = waxman_graph(wax, rng);
  DijkstraWorkspace workspace;

  std::vector<char> targets(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId t : {NodeId{3}, NodeId{17}, NodeId{29}}) targets[t] = 1;
  const NodeId origin = 40;
  const std::vector<NodeId> delta = {NodeId{8}, NodeId{44}};
  DeadEndMarks marks;
  marks.reset(g);
  for (NodeId n : {origin, NodeId{3}, NodeId{17}, NodeId{29}, delta[0],
                   delta[1]}) {
    marks.mark(n);
  }

  DetourSearch search;
  search.compute(g, workspace, origin, targets, ExclusionSet{}, marks);

  auto fresh_best = [&]() {
    const ShortestPathTree fresh = dijkstra_absorbing(g, origin, targets);
    NodeId best = kNoNode;
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (!targets[static_cast<std::size_t>(t)] || !fresh.reachable(t)) {
        continue;
      }
      if (best == kNoNode ||
          fresh.dist[static_cast<std::size_t>(t)] <
              fresh.dist[static_cast<std::size_t>(best)]) {
        best = t;
      }
    }
    return best;
  };
  ASSERT_TRUE(search.found());
  EXPECT_EQ(search.best_target(), fresh_best());

  // Grow the target set and check the O(|delta|) refresh against the
  // fresh answer over the same (grown) set.
  for (NodeId t : delta) targets[static_cast<std::size_t>(t)] = 1;
  search.add_targets(delta);
  ASSERT_TRUE(search.found());
  EXPECT_EQ(search.best_target(), fresh_best());
}

/// Grow a detour search's target set `rounds` times on `g` and check the
/// answer, its detour and every delta update against the free
/// dijkstra_absorbing over the grown set. The marks cover the origin, the
/// targets and every future delta, as repair_session's do.
void expect_detour_matches_full_search(const Graph& g,
                                       DijkstraWorkspace& workspace, Rng& rng,
                                       bool ban_node) {
  const auto n = static_cast<std::uint64_t>(g.node_count());
  std::vector<char> targets(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < 3; ++k) targets[rng.below(n)] = 1;
  NodeId origin = kNoNode;
  while (origin == kNoNode || targets[static_cast<std::size_t>(origin)]) {
    origin = static_cast<NodeId>(rng.below(n));
  }
  ExclusionSet excluded(g);
  excluded.ban_link(static_cast<LinkId>(
      rng.below(static_cast<std::uint64_t>(g.link_count()))));
  if (ban_node) {
    const auto dead = static_cast<NodeId>(rng.below(n));
    if (dead != origin) excluded.ban_node(dead);
  }
  constexpr int kRounds = 4;
  std::vector<std::vector<NodeId>> deltas(kRounds);
  std::vector<char> future = targets;
  for (std::vector<NodeId>& delta : deltas) {
    for (int k = 0; k < 2; ++k) {
      const auto t = static_cast<NodeId>(rng.below(n));
      if (t == origin || future[static_cast<std::size_t>(t)]) continue;
      future[static_cast<std::size_t>(t)] = 1;
      delta.push_back(t);
    }
  }
  DeadEndMarks marks;
  marks.reset(g);
  marks.mark(origin);
  for (NodeId t = 0; t < g.node_count(); ++t) {
    if (future[static_cast<std::size_t>(t)]) marks.mark(t);
  }

  DetourSearch search;
  search.compute(g, workspace, origin, targets, excluded, marks);
  // The target set only grows, and the snapshot is kept, as in
  // repair_session: the fresh reference uses the grown set.
  for (const std::vector<NodeId>& delta : deltas) {
    const ShortestPathTree fresh =
        dijkstra_absorbing(g, origin, targets, excluded);
    NodeId best = kNoNode;
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (!targets[static_cast<std::size_t>(t)] || !fresh.reachable(t)) {
        continue;
      }
      if (best == kNoNode || fresh.dist[static_cast<std::size_t>(t)] <
                                 fresh.dist[static_cast<std::size_t>(best)]) {
        best = t;
      }
    }
    ASSERT_EQ(search.best_target(), best);
    if (best != kNoNode) {
      EXPECT_EQ(search.distance(), fresh.dist[static_cast<std::size_t>(best)]);
      EXPECT_EQ(search.hops(), fresh.hops[static_cast<std::size_t>(best)]);
      EXPECT_EQ(search.path(), fresh.path_from_source(best));
      EXPECT_EQ(search.links(), fresh.link_path_from_source(best));
    }
    for (const NodeId t : delta) targets[static_cast<std::size_t>(t)] = 1;
    search.add_targets(delta);
  }
}

// compute() stops at the first target it settles, skips dead ends and
// keeps only the labels it made; the answer, its detour, and every delta
// update must still match a full absorbing search over the grown target
// set, on a dense transit-stub graph and on bridge-rich ones.
TEST(DetourSearch, EarlyExitMatchesFullSearchAcrossGrowth) {
  Rng rng(31);
  TransitStubParams params;
  params.transit_nodes = 6;
  params.stubs_per_transit = 3;
  params.stub_size = 8;
  const TransitStubTopology topo = generate_transit_stub(params, rng);
  DijkstraWorkspace workspace;
  for (int trial = 0; trial < 20; ++trial) {
    expect_detour_matches_full_search(topo.graph, workspace, rng,
                                      trial % 2 == 1);
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng graphs(seed * 6151);
    for (const Graph& g : testing::bridge_rich_graphs(graphs)) {
      DijkstraWorkspace bridged;
      for (int trial = 0; trial < 10; ++trial) {
        expect_detour_matches_full_search(g, bridged, rng, trial % 2 == 1);
      }
    }
  }
}

// A caller that under-marks must fail loudly: a target outside the marked
// region was never looked at, so the search cannot rank it.
TEST(DetourSearch, AddTargetsRejectsUncoveredNodes) {
  // Path 0 – 1 – 2 – 3 – 4: every link is a bridge.
  const Graph g(5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  DijkstraWorkspace workspace;
  std::vector<char> targets(5, 0);
  targets[0] = 1;
  // Marks for the origin 1, the target 0 and the later target 2 cover
  // nodes 0..2; 4 hangs below an unmarked bridge.
  DeadEndMarks marks;
  marks.reset(g);
  for (const NodeId n : {1, 0, 2}) marks.mark(n);
  DetourSearch search;
  search.compute(g, workspace, 1, targets, ExclusionSet{}, marks);
  ASSERT_EQ(search.best_target(), 0);
  targets[4] = 1;
  EXPECT_THROW(search.add_targets({4}), std::logic_error);
  EXPECT_THROW(search.add_targets({5}), std::logic_error);
  targets[2] = 1;
  EXPECT_NO_THROW(search.add_targets({2}));
  EXPECT_EQ(search.best_target(), 0);
  DetourSearch unmarked;
  EXPECT_THROW(unmarked.add_targets({2}), std::logic_error);
}

TEST(RoutingOracle, ConcurrentLookupsKeepInvariants) {
  net::Rng rng(5);
  WaxmanParams wax;
  wax.node_count = 80;
  const Graph g = waxman_graph(wax, rng);
  RoutingOracle oracle(g);

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &oracle, t] {
      for (int i = 0; i < kIters; ++i) {
        const NodeId source = static_cast<NodeId>((t * 13 + i) % g.node_count());
        if (i % 3 == 0) {
          ExclusionSet banned(g);
          banned.ban_link(static_cast<LinkId>(i % g.link_count()));
          (void)oracle.spf(source, banned);
        } else {
          (void)oracle.spf(source);
        }
        if (i % 7 == 0) {
          RoutingOracle::WorkspaceLease lease = oracle.workspace();
          (void)lease->run(g, source);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const auto s = oracle.stats();
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads) * kIters);
  expect_counter_invariants(s);
  // Spot-check correctness after the hammering.
  expect_identical(*oracle.spf(0), dijkstra(g, 0));
}

TEST(RoutingOracle, SameKeyStampedeComputesOnce) {
  // DESIGN.md §16's memoized-miss protocol: N threads racing on one cold
  // key must produce exactly ONE Dijkstra run. The oracle's lock serializes
  // the probe/install, so the first thread is the only miss; every other
  // thread either waits on the in-flight cell or reads the ready entry —
  // a hit either way. The counters below are exact, not statistical.
  net::Rng rng(17);
  WaxmanParams wax;
  wax.node_count = 120;  // big enough that the run outlasts the arrivals
  const Graph g = waxman_graph(wax, rng);
  RoutingOracle oracle(g);

  constexpr int kThreads = 16;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<RoutingOracle::TreePtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      results[static_cast<std::size_t>(t)] = oracle.spf(0);
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  const auto s = oracle.stats();
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.full_runs, 1u);
  EXPECT_EQ(s.cache_hits, static_cast<std::uint64_t>(kThreads) - 1);
  // Everyone shares the single computed snapshot.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(t)].get());
  }
  expect_identical(*results[0], dijkstra(g, 0));
}

TEST(RoutingOracle, ColdStampedeBuildsRegionsOnce) {
  // Eight threads make the first lookups on a cold oracle: every one of
  // them is a composable miss, the first of which builds the region
  // trees while the others wait in std::call_once. A second build, or a
  // reader that does not wait for the first, races on the trees (the CI
  // TSan lane runs this test by name); every snapshot must still equal
  // dijkstra().
  Rng rng(41);
  TransitStubParams params;
  params.transit_nodes = 10;
  params.stubs_per_transit = 4;
  params.stub_size = 12;
  const TransitStubTopology topo = generate_transit_stub(params, rng);
  const Graph& g = topo.graph;
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (in_root_component(g, s)) sources.push_back(s);
  }
  ASSERT_GE(sources.size(), 2u);
  ASSERT_TRUE(has_region(g));
  std::vector<ShortestPathTree> fresh;
  for (const NodeId s : sources) fresh.push_back(dijkstra(g, s));

  RoutingOracle oracle(g);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<RoutingOracle::TreePtr>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      // Each thread starts at a different source, so the first lookups
      // are distinct keys that all need the regions.
      for (std::size_t k = 0; k < sources.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t)) % sources.size();
        got[static_cast<std::size_t>(t)].push_back(oracle.spf(sources[i]));
      }
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  const auto s = oracle.stats();
  EXPECT_EQ(s.cache_misses, sources.size());
  EXPECT_EQ(s.composed, sources.size());
  expect_counter_invariants(s);
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(t)) % sources.size();
      expect_bit_identical(*got[static_cast<std::size_t>(t)][k], fresh[i]);
    }
  }
}

TEST(RoutingOracle, ConcurrentMissesNeverExceedDistinctKeys) {
  // The dedup guarantee at hammer scale: K threads sweeping the same key
  // set (sources and one-link exclusions) produce at most one computation
  // per distinct key, concurrency notwithstanding. The 20 keys fit the
  // cache, so eviction cannot manufacture extra misses.
  net::Rng rng(29);
  WaxmanParams wax;
  wax.node_count = 60;
  const Graph g = waxman_graph(wax, rng);
  RoutingOracle oracle(g);

  constexpr int kThreads = 8;
  constexpr int kSources = 10;
  constexpr int kBans = 10;
  constexpr int kRounds = 30;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &oracle] {
      for (int round = 0; round < kRounds; ++round) {
        for (NodeId source = 0; source < kSources; ++source) {
          (void)oracle.spf(source);
          ExclusionSet banned(g);
          banned.ban_link(static_cast<LinkId>(source % kBans));
          (void)oracle.spf(source, banned);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const auto s = oracle.stats();
  constexpr std::uint64_t kDistinctKeys = 2 * kSources;
  EXPECT_EQ(s.lookups,
            static_cast<std::uint64_t>(kThreads) * kRounds * kDistinctKeys);
  EXPECT_EQ(s.lookups, s.cache_hits + s.cache_misses);  // exact, not approx
  EXPECT_LE(s.cache_misses, kDistinctKeys);
  EXPECT_LE(s.full_runs, kDistinctKeys);
  expect_counter_invariants(s);
}

TEST(RoutingOracle, SnapshotGaugesTrackResidentTrees) {
  Fig1Topology fig;
  RoutingOracle oracle(fig.graph);
  obs::Telemetry telemetry;
  oracle.attach_telemetry(&telemetry);
  EXPECT_EQ(oracle.snapshot_count(), 0u);
  EXPECT_EQ(oracle.snapshot_bytes(), 0u);

  (void)oracle.spf(Fig1Topology::S);
  (void)oracle.spf(Fig1Topology::A);
  (void)oracle.spf(Fig1Topology::S);  // hit: no new snapshot
  EXPECT_EQ(oracle.snapshot_count(), 2u);
  EXPECT_GT(oracle.snapshot_bytes(), 0u);
  // One run's footprint is count-proportional: per-node arrays only.
  EXPECT_EQ(oracle.snapshot_bytes() % oracle.snapshot_count(), 0u);
  auto& m = telemetry.metrics;
  EXPECT_EQ(m.gauge("smrp.routing.snapshot_count").value(),
            static_cast<double>(oracle.snapshot_count()));
  EXPECT_EQ(m.gauge("smrp.routing.snapshot_bytes").value(),
            static_cast<double>(oracle.snapshot_bytes()));
}

// ---------------------------------------------------------------------------
// Randomized oracle-vs-fresh equivalence property: a long random mix of
// plain lookups, exclusion lookups and persistent-failure chains must stay
// bit-identical to free Dijkstra.
// ---------------------------------------------------------------------------

void run_equivalence_property(const Graph& g, std::uint64_t seed, int steps) {
  net::Rng rng(seed);
  RoutingOracle oracle(g);
  ExclusionSet chain(g);  // grows like a persistent-failure sequence

  for (int step = 0; step < steps; ++step) {
    const NodeId source =
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(
            g.node_count())));
    switch (rng.below(5)) {
      case 0: {  // plain lookup
        expect_identical(*oracle.spf(source), dijkstra(g, source));
        break;
      }
      case 1: {  // fresh random exclusion (join/reshape style)
        ExclusionSet banned(g);
        for (int b = 0; b < 3; ++b) {
          banned.ban_link(static_cast<LinkId>(rng.below(
              static_cast<std::uint64_t>(g.link_count()))));
        }
        if (!banned.node_banned(source)) {
          expect_identical(*oracle.spf(source, banned),
                           dijkstra(g, source, banned));
        }
        break;
      }
      case 2: {  // extend the persistent-failure chain by one link
        chain.ban_link(static_cast<LinkId>(rng.below(
            static_cast<std::uint64_t>(g.link_count()))));
        if (!chain.node_banned(source)) {
          expect_identical(*oracle.spf(source, chain),
                           dijkstra(g, source, chain));
        }
        break;
      }
      case 3: {  // node failure on top of a cached base
        ExclusionSet banned(g);
        const NodeId victim =
            static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(
                g.node_count())));
        banned.ban_node(victim);
        if (victim != source) {
          (void)oracle.spf(source);  // make sure the base exists
          expect_identical(*oracle.spf(source, banned),
                           dijkstra(g, source, banned));
        }
        break;
      }
      case 4: {  // repeat lookup — exercises the hit path
        expect_identical(*oracle.spf(source), dijkstra(g, source));
        expect_identical(*oracle.spf(source), dijkstra(g, source));
        break;
      }
    }
  }
  expect_counter_invariants(oracle.stats());
  EXPECT_GT(oracle.stats().cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Composed misses (DESIGN.md §16): a root-component source's snapshot is a
// core-only run plus the shared region trees, and must equal a fresh
// Dijkstra run in every byte.
// ---------------------------------------------------------------------------

/// Every root-component source of `g` through a fresh oracle, checked
/// against dijkstra(); then exclusion lookups and non-root sources, which
/// must not be composed. Returns the oracle's counters.
RoutingOracle::Stats expect_composition_exact(const Graph& g) {
  RoutingOracle oracle(g);
  std::uint64_t root_sources = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (!in_root_component(g, s)) continue;
    ++root_sources;
    expect_bit_identical(*oracle.spf(s), dijkstra(g, s));
  }
  const RoutingOracle::Stats composed = oracle.stats();
  if (has_region(g)) {
    EXPECT_EQ(composed.composed, root_sources);
  } else {
    EXPECT_EQ(composed.composed, 0u);
  }

  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (in_root_component(g, s)) {
      ExclusionSet banned(g);
      banned.ban_link(static_cast<LinkId>(s % g.link_count()));
      expect_bit_identical(*oracle.spf(s, banned), dijkstra(g, s, banned));
    } else {
      expect_bit_identical(*oracle.spf(s), dijkstra(g, s));
    }
  }
  const RoutingOracle::Stats after = oracle.stats();
  EXPECT_EQ(after.composed, composed.composed);
  expect_counter_invariants(after);
  return after;
}

TEST(RoutingOracleProperty, ComposedSnapshotsMatchFreshDijkstra) {
  std::uint64_t composed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const double stub_alpha : {0.9, 0.05}) {
      for (const LinkWeightMode mode :
           {LinkWeightMode::kEuclidean, LinkWeightMode::kUnit}) {
        Rng rng(seed * 7919);
        TransitStubParams params;
        params.transit_nodes = 6;
        params.stubs_per_transit = 3;
        params.stub_size = 2 + static_cast<int>(seed) * 3;
        params.stub_alpha = stub_alpha;
        params.weight_mode = mode;
        const TransitStubTopology topo = generate_transit_stub(params, rng);
        SCOPED_TRACE(::testing::Message()
                     << "transit-stub seed " << seed << " stub alpha "
                     << stub_alpha << " unit " << (mode == LinkWeightMode::kUnit));
        ASSERT_TRUE(has_region(topo.graph));
        composed += expect_composition_exact(topo.graph).composed;
      }
    }
    Rng graphs(seed * 6151);
    for (const Graph& g : testing::bridge_rich_graphs(graphs)) {
      SCOPED_TRACE(::testing::Message() << "bridge-rich seed " << seed
                                        << " nodes " << g.node_count());
      ASSERT_TRUE(has_region(g));
      composed += expect_composition_exact(g).composed;
    }
    Rng wax_rng(seed * 104729);
    WaxmanParams wax;
    wax.node_count = 60;
    SCOPED_TRACE(::testing::Message() << "waxman seed " << seed);
    (void)expect_composition_exact(waxman_graph(wax, wax_rng));
  }
  EXPECT_GT(composed, 0u);
}

// A region whose region-local winner loses once the entry distance is
// added: x = 5 is reached from the entry 3 directly (0.3) or through 4
// (0.1 + 0.2). From the entry, 0.3 < fl(0.1 + 0.2) picks the direct link;
// from source 0, 10 away, fl(fl(10 + 0.1) + 0.2) = 10.299999999999999 <
// fl(10 + 0.3) = 10.3 picks the path through 4. Copying the region's tree
// would give x the wrong parent; the guard sends the region to a seeded
// run instead.
TEST(ComposedSnapshot, NearTieRegionTakesTheSeededRun) {
  constexpr NodeId kEntry = 3, kVia = 4, kX = 5;
  const Graph g(6, {{0, 1, 1.0},
                    {1, 2, 1.0},
                    {2, 0, 1.0},
                    {0, kEntry, 10.0},
                    {kEntry, kVia, 0.1},
                    {kVia, kX, 0.2},
                    {kEntry, kX, 0.3}});
  ASSERT_TRUE(has_region(g));
  ASSERT_TRUE(in_root_component(g, 0));
  // The premise: the two winners differ.
  ASSERT_EQ(dijkstra(g, kEntry).parent[kX], kEntry);
  ASSERT_EQ(dijkstra(g, 0).parent[kX], kVia);

  RoutingOracle oracle(g);
  for (const NodeId s : {0, 1, 2}) {
    expect_bit_identical(*oracle.spf(s), dijkstra(g, s));
  }
  EXPECT_EQ(oracle.spf(0)->parent[kX], kVia);
  EXPECT_EQ(oracle.stats().composed, 3u);
}

TEST(RoutingOracleProperty, EquivalentToFreshDijkstraOnWaxman) {
  net::Rng rng(101);
  WaxmanParams wax;
  wax.node_count = 70;
  const Graph g = waxman_graph(wax, rng);
  run_equivalence_property(g, 2026, 160);
}

TEST(RoutingOracleProperty, EquivalentToFreshDijkstraOnTransitStub) {
  net::Rng rng(303);
  TransitStubParams params;
  params.transit_nodes = 6;
  params.stubs_per_transit = 2;
  params.stub_size = 5;
  const TransitStubTopology topo = generate_transit_stub(params, rng);
  run_equivalence_property(topo.graph, 404, 160);
}

}  // namespace
}  // namespace smrp::net
