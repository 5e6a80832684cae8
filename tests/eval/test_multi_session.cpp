// Multi-session scale driver: determinism, workload-model sanity, and the
// load-bearing claim that sessions sharing a source pool actually share
// the oracle's SPF snapshots (cache hits across sessions).
#include <gtest/gtest.h>

#include <cstdint>

#include "eval/multi_session.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"

namespace smrp::eval {
namespace {

net::Graph small_waxman(std::uint64_t seed) {
  net::Rng rng(seed);
  net::WaxmanParams wax;
  wax.node_count = 80;
  return net::waxman_graph(wax, rng);
}

MultiSessionParams small_params(SessionEngine engine) {
  MultiSessionParams p;
  p.sessions = 12;
  p.source_pool = 4;
  p.min_session_size = 2;
  p.max_session_size = 16;
  p.churn_events_per_session = 3.0;
  p.engine = engine;
  return p;
}

TEST(MultiSessionDriver, BuildsLiveSessionsUnderBothEngines) {
  const net::Graph g = small_waxman(42);
  for (const SessionEngine engine :
       {SessionEngine::kSmrp, SessionEngine::kSpf}) {
    MultiSessionDriver driver(g, small_params(engine));
    const MultiSessionReport r = driver.run_seeded(7);
    EXPECT_EQ(r.sessions, 12);
    EXPECT_EQ(driver.session_count(), 12);
    EXPECT_GT(r.aggregate_members, 0);
    EXPECT_GE(r.join_ops, r.aggregate_members);  // churn leaves shrink
    std::int64_t members = 0;
    for (int i = 0; i < driver.session_count(); ++i) {
      ASSERT_NO_THROW(driver.session_tree(i).validate()) << "session " << i;
      members += driver.session_tree(i).member_count();
    }
    EXPECT_EQ(members, r.aggregate_members);
  }
}

TEST(MultiSessionDriver, SameSeedSameReport) {
  const net::Graph g = small_waxman(43);
  for (const SessionEngine engine :
       {SessionEngine::kSmrp, SessionEngine::kSpf}) {
    MultiSessionReport a, b;
    {
      MultiSessionDriver driver(g, small_params(engine));
      a = driver.run_seeded(99);
    }
    {
      MultiSessionDriver driver(g, small_params(engine));
      b = driver.run_seeded(99);
    }
    EXPECT_EQ(a.aggregate_members, b.aggregate_members);
    EXPECT_EQ(a.join_ops, b.join_ops);
    EXPECT_EQ(a.leave_ops, b.leave_ops);
    EXPECT_EQ(a.churn_events, b.churn_events);
    EXPECT_EQ(a.tree_links, b.tree_links);
    EXPECT_DOUBLE_EQ(a.total_tree_cost, b.total_tree_cost);
    EXPECT_EQ(a.oracle.lookups, b.oracle.lookups);
    EXPECT_EQ(a.oracle.cache_hits, b.oracle.cache_hits);
  }
}

TEST(MultiSessionDriver, SharedSourcePoolSharesOracleSnapshots) {
  // 12 SPF-engine sessions over 4 sources: the source SPF tree is
  // computed at most once per source, every later session is a hit.
  const net::Graph g = small_waxman(44);
  MultiSessionDriver driver(g, small_params(SessionEngine::kSpf));
  const MultiSessionReport r = driver.run_seeded(5);
  EXPECT_LE(r.oracle.full_runs, 4u);
  EXPECT_GT(r.oracle.cache_hits, 0u);
  EXPECT_EQ(r.oracle.lookups, r.oracle.cache_hits + r.oracle.cache_misses);
}

TEST(MultiSessionDriver, HonoursExplicitSourcePool) {
  net::Rng topo_rng(11);
  net::TransitStubParams params;  // small default transit-stub
  const net::TransitStubTopology topo =
      net::generate_transit_stub(params, topo_rng);
  MultiSessionParams p = small_params(SessionEngine::kSpf);
  p.sessions = 6;
  MultiSessionDriver driver(topo.graph, p);
  // Entry 0 is the (gateway-less) transit core; stub gateways start at 1.
  const std::vector<net::NodeId> pool = {topo.gateway_of_domain[1],
                                         topo.gateway_of_domain[2]};
  const MultiSessionReport r = driver.run_seeded(3, pool);
  for (int i = 0; i < driver.session_count(); ++i) {
    const net::NodeId s = driver.session_tree(i).source();
    EXPECT_TRUE(s == pool[0] || s == pool[1]) << "session " << i;
  }
  EXPECT_GT(r.aggregate_members, 0);
}

TEST(MultiSessionDriver, RunTwiceThrows) {
  const net::Graph g = small_waxman(45);
  MultiSessionDriver driver(g, small_params(SessionEngine::kSpf));
  driver.run_seeded(1);
  EXPECT_THROW(driver.run_seeded(1), std::logic_error);
}

TEST(MultiSessionSampling, ZipfStaysInRangeAndSkewsSmall) {
  net::Rng rng(123);
  int small = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    const int v = sample_zipf(rng, 2, 64, 1.0);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 64);
    if (v <= 8) ++small;
  }
  // With s = 1 over [2,64] the first seven values carry well over half
  // the mass; use a loose bound so the test is not a distribution fit.
  EXPECT_GT(small, kDraws / 2);
}

TEST(MultiSessionDriver, RunSeededIsWorkerInvariant) {
  // The DESIGN.md §14/§16 contract bench_scale's det_* gate rides on:
  // every deterministic aggregate is byte-identical for any worker count,
  // because session i's whole random stream is trial_seed(seed, i) and
  // the ONE shared oracle answers every lookup with a pure
  // function of its key. Total lookups are deterministic too; only the
  // hit/miss split may move with worker scheduling (a key one worker
  // computes first is a hit for everyone else).
  const net::Graph g = small_waxman(44);
  for (const SessionEngine engine :
       {SessionEngine::kSmrp, SessionEngine::kSpf}) {
    MultiSessionReport base;
    {
      MultiSessionDriver driver(g, small_params(engine));
      base = driver.run_seeded(0xD5ULL);
    }
    EXPECT_GT(base.aggregate_members, 0);
    for (const int workers : {2, 3, 8}) {
      MultiSessionParams p = small_params(engine);
      p.workers = workers;
      MultiSessionDriver driver(g, p);
      const MultiSessionReport r = driver.run_seeded(0xD5ULL);
      EXPECT_EQ(r.aggregate_members, base.aggregate_members) << workers;
      EXPECT_EQ(r.join_ops, base.join_ops) << workers;
      EXPECT_EQ(r.leave_ops, base.leave_ops) << workers;
      EXPECT_EQ(r.churn_events, base.churn_events) << workers;
      EXPECT_EQ(r.tree_links, base.tree_links) << workers;
      EXPECT_EQ(r.reshapes, base.reshapes) << workers;
      EXPECT_EQ(r.fallback_joins, base.fallback_joins) << workers;
      EXPECT_EQ(r.reshape_attempts, base.reshape_attempts) << workers;
      EXPECT_EQ(r.reshape_searches, base.reshape_searches) << workers;
      EXPECT_EQ(r.total_tree_cost, base.total_tree_cost) << workers;
      EXPECT_EQ(r.oracle.lookups, base.oracle.lookups) << workers;
      // Shared-cache counter invariants hold exactly under contention,
      // and the dedup guarantee keeps misses within the single-worker
      // count (sharing can only convert misses into hits, never the
      // other way around).
      EXPECT_EQ(r.oracle.lookups, r.oracle.cache_hits + r.oracle.cache_misses)
          << workers;
      EXPECT_EQ(r.oracle.cache_misses, r.oracle.full_runs) << workers;
      EXPECT_LE(r.oracle.cache_misses, base.oracle.cache_misses) << workers;
      for (int i = 0; i < driver.session_count(); ++i) {
        ASSERT_NO_THROW(driver.session_tree(i).validate()) << "session " << i;
      }
    }
  }
}

TEST(MultiSessionDriver, RunSeededRunsOncePerDriver) {
  // A refused second run leaves the first run's sessions resident and
  // intact, with several workers as with one.
  const net::Graph g = small_waxman(45);
  MultiSessionParams p = small_params(SessionEngine::kSmrp);
  p.workers = 3;
  MultiSessionDriver driver(g, p);
  const MultiSessionReport first = driver.run_seeded(1);
  EXPECT_THROW(driver.run_seeded(2), std::logic_error);
  ASSERT_EQ(driver.session_count(), p.sessions);
  std::int64_t members = 0;
  for (int i = 0; i < driver.session_count(); ++i) {
    ASSERT_NO_THROW(driver.session_tree(i).validate()) << "session " << i;
    members += driver.session_tree(i).member_count();
  }
  EXPECT_EQ(members, first.aggregate_members);
}

TEST(MultiSessionSampling, PoissonMatchesMeanRoughly) {
  net::Rng rng(321);
  constexpr int kDraws = 8000;
  std::int64_t total = 0;
  for (int i = 0; i < kDraws; ++i) total += sample_poisson(rng, 4.0);
  const double mean = static_cast<double>(total) / kDraws;
  EXPECT_NEAR(mean, 4.0, 0.2);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0);
}

}  // namespace
}  // namespace smrp::eval
