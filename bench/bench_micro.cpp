// Google-benchmark microbenchmarks of the hot paths: SPF, candidate
// enumeration + selection, tree mutation with SHR maintenance, recovery
// searches, and the event core.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "eval/scenario.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim_core_workloads.hpp"
#include "smrp/path_selection.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"

namespace {

using namespace smrp;

net::Graph make_graph(int nodes, std::uint64_t seed = 42) {
  net::Rng rng(seed);
  net::WaxmanParams params;
  params.node_count = nodes;
  return net::waxman_graph(params, rng);
}

void BM_Dijkstra(benchmark::State& state) {
  const net::Graph g = make_graph(static_cast<int>(state.range(0)));
  net::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(g, src));
    src = (src + 1) % g.node_count();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Dijkstra)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// The same SPF sweep through a reused DijkstraWorkspace: identical result
// trees (asserted by tests/net/test_shortest_path.cpp), but the dist/
// parent/hops/settled buffers and the heap storage are allocated once and
// recycled. The gap between this and BM_Dijkstra is the allocation tax
// the workspace removes from the per-member search loops.
void BM_DijkstraWorkspace(benchmark::State& state) {
  const net::Graph g = make_graph(static_cast<int>(state.range(0)));
  net::DijkstraWorkspace workspace;
  net::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&workspace.run(g, src));
    src = (src + 1) % g.node_count();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DijkstraWorkspace)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_SmrpJoin(benchmark::State& state) {
  const net::Graph g = make_graph(static_cast<int>(state.range(0)));
  net::Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    proto::SmrpTreeBuilder builder(g, 0);
    std::vector<net::NodeId> members;
    while (members.size() < 20) {
      const auto m =
          static_cast<net::NodeId>(1 + rng.below(g.node_count() - 1));
      if (std::find(members.begin(), members.end(), m) == members.end()) {
        members.push_back(m);
      }
    }
    state.ResumeTiming();
    for (const net::NodeId m : members) builder.join(m);
    benchmark::DoNotOptimize(builder.tree().total_cost());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_SmrpJoin)->Arg(100)->Arg(200);

void BM_SpfJoin(benchmark::State& state) {
  const net::Graph g = make_graph(static_cast<int>(state.range(0)));
  net::Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    baseline::SpfTreeBuilder builder(g, 0);
    std::vector<net::NodeId> members;
    while (members.size() < 20) {
      const auto m =
          static_cast<net::NodeId>(1 + rng.below(g.node_count() - 1));
      if (std::find(members.begin(), members.end(), m) == members.end()) {
        members.push_back(m);
      }
    }
    state.ResumeTiming();
    for (const net::NodeId m : members) builder.join(m);
    benchmark::DoNotOptimize(builder.tree().total_cost());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_SpfJoin)->Arg(100)->Arg(200);

void BM_CandidateEnumeration(benchmark::State& state) {
  const net::Graph g = make_graph(100);
  proto::SmrpTreeBuilder builder(g, 0);
  for (net::NodeId m = 2; m < 60; m += 2) builder.join(m);
  const proto::SmrpConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::enumerate_candidates(
        g, builder.tree(), 61, builder.spf_delay(61), config));
  }
}
BENCHMARK(BM_CandidateEnumeration);

void BM_LocalDetour(benchmark::State& state) {
  const net::Graph g = make_graph(100);
  proto::SmrpTreeBuilder builder(g, 0);
  for (net::NodeId m = 2; m < 60; m += 2) builder.join(m);
  const net::NodeId victim = 58;
  const net::LinkId failed =
      proto::worst_case_failure_link(builder.tree(), victim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::local_detour_recovery(g, builder.tree(), victim, failed));
  }
}
BENCHMARK(BM_LocalDetour);

// Recovery search through the shared oracle (pooled workspaces) — what
// scenario.cpp's worst-case sweep and repair_session actually run.
void BM_LocalDetourOracle(benchmark::State& state) {
  const net::Graph g = make_graph(100);
  proto::SmrpTreeBuilder builder(g, 0);
  for (net::NodeId m = 2; m < 60; m += 2) builder.join(m);
  const net::NodeId victim = 58;
  const net::LinkId failed =
      proto::worst_case_failure_link(builder.tree(), victim);
  net::RoutingOracle oracle(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::local_detour_recovery(
        g, builder.tree(), victim, proto::Failure::of_link(failed),
        &oracle));
  }
}
BENCHMARK(BM_LocalDetourOracle);

// A persistent-failure chain: each step bans one more on-tree link and
// needs the source SPF under the grown exclusion set. The first victim's
// parent links come from the unconstrained SPF tree so every ban cuts
// live traffic and forces real rerouting.
std::vector<net::ExclusionSet> failure_chain(const net::Graph& g,
                                             net::NodeId source, int steps) {
  const net::ShortestPathTree base = net::dijkstra(g, source);
  std::vector<net::ExclusionSet> chain;
  net::ExclusionSet dead(g);
  for (net::NodeId n = 0; n < g.node_count() &&
                          static_cast<int>(chain.size()) < steps;
       ++n) {
    const net::LinkId l = base.parent_link[static_cast<std::size_t>(n)];
    if (l == net::kNoLink || dead.link_banned(l)) continue;
    dead.ban_link(l);
    chain.push_back(dead);
  }
  return chain;
}

// A figure sweep's workload: member sets on one topology share the oracle, so
// every join after the first set is served from cache.
void BM_OracleJoinSweep(benchmark::State& state) {
  const net::Graph g = make_graph(static_cast<int>(state.range(0)));
  net::Rng rng(7);
  std::vector<net::NodeId> members;
  while (members.size() < 20) {
    const auto m = static_cast<net::NodeId>(1 + rng.below(g.node_count() - 1));
    if (std::find(members.begin(), members.end(), m) == members.end()) {
      members.push_back(m);
    }
  }
  net::RoutingOracle oracle(g);
  for (auto _ : state) {
    proto::SmrpTreeBuilder builder(g, 0, {}, &oracle);
    for (const net::NodeId m : members) builder.join(m);
    benchmark::DoNotOptimize(builder.tree().total_cost());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_OracleJoinSweep)->Arg(100)->Arg(200);

// ---------------------------------------------------------------------------
// Shared-oracle hammers (DESIGN.md §16): K threads against ONE
// RoutingOracle on a transit-stub topology — the run_seeded worker shape.
// BM_SharedOracleHammer is the hit path (prewarmed transit-core snapshots;
// measures lookup throughput through the oracle's one lock as K grows).
// BM_SharedOracleMissSweep is the dedup'd-miss case: every thread walks the
// same failure chain, so concurrent misses on one key are memoized and the
// whole run computes each key once (the `computed` counter vs `keys`).
// BM_PrivateOracle* are the pre-§16 comparison — one oracle per thread, so
// each thread recomputes every key and `computed` scales with K.

net::TransitStubTopology hammer_topology() {
  net::Rng rng(42);
  net::TransitStubParams p;
  p.transit_nodes = 12;
  p.stubs_per_transit = 4;
  p.stub_size = 8;  // 396 nodes: big enough to dwarf lock costs
  return net::generate_transit_stub(p, rng);
}

// google-benchmark only synchronizes threads at the state-loop boundary;
// code before the loop races with thread 0's setup, so the hammers
// publish their shared fixtures through this flag.
std::atomic<bool> hammer_ready{false};

void hammer_wait_ready(const benchmark::State& state) {
  if (state.thread_index() != 0) {
    while (!hammer_ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void BM_SharedOracleHammer(benchmark::State& state) {
  static net::TransitStubTopology* topo = nullptr;
  static net::RoutingOracle* oracle = nullptr;
  if (state.thread_index() == 0) {
    topo = new net::TransitStubTopology(hammer_topology());
    oracle = new net::RoutingOracle(topo->graph);
    for (const net::NodeId s : topo->nodes_of_domain[net::kTransitDomain]) {
      oracle->spf(s);  // prewarm: the loop measures pure hits
    }
    hammer_ready.store(true, std::memory_order_release);
  }
  hammer_wait_ready(state);
  const std::vector<net::NodeId>& sources =
      topo->nodes_of_domain[net::kTransitDomain];
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->spf(sources[i % sources.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const auto s = oracle->stats();
    state.counters["hit_pct"] =
        100.0 * static_cast<double>(s.cache_hits) /
        static_cast<double>(s.lookups);
    hammer_ready.store(false);
    delete oracle;
    delete topo;
    oracle = nullptr;
    topo = nullptr;
  }
}
BENCHMARK(BM_SharedOracleHammer)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_SharedOracleMissSweep(benchmark::State& state) {
  static net::TransitStubTopology* topo = nullptr;
  static net::RoutingOracle* oracle = nullptr;
  static std::vector<net::ExclusionSet>* chain = nullptr;
  if (state.thread_index() == 0) {
    topo = new net::TransitStubTopology(hammer_topology());
    oracle = new net::RoutingOracle(topo->graph);
    chain = new std::vector<net::ExclusionSet>(
        failure_chain(topo->graph, 0, 200));
  }
  std::size_t i = 0;  // every thread walks the SAME key sequence
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->spf(0, (*chain)[i % chain->size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const auto s = oracle->stats();
    // `computed` stays ~= keys at any K: concurrent misses dedup.
    state.counters["computed"] = static_cast<double>(s.cache_misses);
    state.counters["keys"] = static_cast<double>(chain->size());
    delete chain;
    delete oracle;
    delete topo;
    chain = nullptr;
    oracle = nullptr;
    topo = nullptr;
  }
}
BENCHMARK(BM_SharedOracleMissSweep)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_PrivateOracleHammer(benchmark::State& state) {
  static net::TransitStubTopology* topo = nullptr;
  if (state.thread_index() == 0) {
    topo = new net::TransitStubTopology(hammer_topology());
    hammer_ready.store(true, std::memory_order_release);
  }
  hammer_wait_ready(state);
  // Pre-§16 shape: each thread owns an oracle, so every thread pays its
  // own prewarm (untimed here) and holds its own snapshot copies.
  net::RoutingOracle oracle(topo->graph);
  const std::vector<net::NodeId>& sources =
      topo->nodes_of_domain[net::kTransitDomain];
  for (const net::NodeId s : sources) oracle.spf(s);
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.spf(sources[i % sources.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    hammer_ready.store(false);
    delete topo;
    topo = nullptr;
  }
}
BENCHMARK(BM_PrivateOracleHammer)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_PrivateOracleMissSweep(benchmark::State& state) {
  static net::TransitStubTopology* topo = nullptr;
  static std::vector<net::ExclusionSet>* chain = nullptr;
  static std::atomic<std::uint64_t> computed{0};
  static std::atomic<int> reported{0};
  if (state.thread_index() == 0) {
    topo = new net::TransitStubTopology(hammer_topology());
    chain = new std::vector<net::ExclusionSet>(
        failure_chain(topo->graph, 0, 200));
    computed.store(0);
    reported.store(0);
    hammer_ready.store(true, std::memory_order_release);
  }
  hammer_wait_ready(state);
  net::RoutingOracle oracle(topo->graph);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.spf(0, (*chain)[i % chain->size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  computed.fetch_add(oracle.stats().cache_misses);
  reported.fetch_add(1);
  if (state.thread_index() == 0) {
    // Post-loop code is not barrier-synchronized across benchmark
    // threads; wait until every thread has folded its private count in.
    while (reported.load() < state.threads()) std::this_thread::yield();
    // K private caches recompute the chain K times over: the number the
    // shared sweep's dedup removes.
    state.counters["computed"] = static_cast<double>(computed.load());
    state.counters["keys"] = static_cast<double>(chain->size());
    hammer_ready.store(false);
    delete chain;
    delete topo;
    chain = nullptr;
    topo = nullptr;
  }
}
BENCHMARK(BM_PrivateOracleMissSweep)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_GlobalDetour(benchmark::State& state) {
  const net::Graph g = make_graph(100);
  baseline::SpfTreeBuilder builder(g, 0);
  for (net::NodeId m = 2; m < 60; m += 2) builder.join(m);
  const net::NodeId victim = 58;
  const net::LinkId failed =
      proto::worst_case_failure_link(builder.tree(), victim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::global_detour_recovery(g, builder.tree(), victim, failed));
  }
}
BENCHMARK(BM_GlobalDetour);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule((i * 37) % 1000, [] {});
    }
    benchmark::DoNotOptimize(s.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

// Event-core workloads shared with bench_sim_core (sim_core_workloads.hpp),
// run against both the timing-wheel Simulator and the retained pre-wheel
// ReferenceSimulator so the speedup is visible side by side. The arg is
// the event count per iteration; 1<<20 is the acceptance-scale churn.

template <typename Sim>
void event_churn_bench(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::event_churn<Sim>(events));
  }
  state.SetItemsProcessed(state.iterations() * events);
}

void BM_EventChurn(benchmark::State& state) {
  event_churn_bench<sim::Simulator>(state);
}
BENCHMARK(BM_EventChurn)->Arg(1 << 16)->Arg(1 << 20);

void BM_EventChurnReference(benchmark::State& state) {
  event_churn_bench<sim::ReferenceSimulator>(state);
}
BENCHMARK(BM_EventChurnReference)->Arg(1 << 16)->Arg(1 << 20);

template <typename Sim>
void cancel_storm_bench(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::timer_cancel_storm<Sim>(rounds));
  }
  // 512 sessions re-armed per round.
  state.SetItemsProcessed(state.iterations() * rounds * 512);
}

void BM_TimerCancelStorm(benchmark::State& state) {
  cancel_storm_bench<sim::Simulator>(state);
}
BENCHMARK(BM_TimerCancelStorm)->Arg(256)->Arg(2048);

void BM_TimerCancelStormReference(benchmark::State& state) {
  cancel_storm_bench<sim::ReferenceSimulator>(state);
}
BENCHMARK(BM_TimerCancelStormReference)->Arg(256)->Arg(2048);

void BM_MessageFlood(benchmark::State& state) {
  const net::Graph g = bench::flood_graph();
  const int rounds = static_cast<int>(state.range(0));
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    delivered = bench::message_flood(g, rounds);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_MessageFlood)->Arg(64)->Arg(512);

void BM_FullScenario(benchmark::State& state) {
  eval::ScenarioParams params;
  params.node_count = 100;
  params.group_size = 30;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    net::Rng rng(seed++);
    benchmark::DoNotOptimize(eval::run_scenario(params, rng));
  }
}
BENCHMARK(BM_FullScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
