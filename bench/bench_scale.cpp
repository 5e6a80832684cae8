// Multi-session scale sweep: how far one topology + one shared
// RoutingOracle stretch as nodes × sessions × members grow.
//
// Each tier generates a transit-stub topology, then drives N concurrent
// sessions through eval::MultiSessionDriver::run_seeded — Zipf session
// sizes, Poisson join/leave churn, sources drawn from the transit core so
// sessions share the oracle's SPF snapshots, and session i's entire
// random stream derived from trial_seed(tier seed, i) so the deterministic
// aggregates are byte-identical for any --workers value. The small/medium
// tiers run the full SMRP path-selection engine; the large tiers (100k
// nodes, and the million-member scale1m point) use the SPF baseline
// engine, whose O(path + depth) joins (a parent-pointer walk and one
// graft) make session count — not per-join search — the measured
// variable. smrp100k runs the SMRP engine on the 100k-node shape, so
// its joins/s measures SMRP's own joins and reshapes at that size; it
// runs last, so adding it moved no earlier tier. EXPERIMENTS.md records
// the tier rationale.
//
// Flags: the shared bench::Runner set, plus two this binary owns —
//   --smoke             reduced CI-sized tiers (BENCH_scale-smoke.json);
//   --workers N         session worker threads per tier (default 1, ≥ 1):
//                       N threads take sessions as they free up and
//                       share the tier's one oracle (DESIGN.md §14, §16).
//
// Per tier the bench emits three kinds of series:
//   <tier>/det_*        bit-deterministic at a fixed seed for ANY worker
//                       count (members, links, joins, Condition-I reshape
//                       attempts and reshapes; the last two are 0 on the
//                       SPF engine) — CI regression-gates these exactly
//                       via bench_diff --series '*/det_*', including a
//                       workers=1 vs workers=4 diff;
//   <tier>/reshape_searches_per_join
//                       the reshape attempts that ran a candidate search
//                       rather than repeating a stored decline
//                       (DESIGN.md §17), per join: deterministic too, but
//                       a cost figure, reported rather than gated;
//   <tier>/oracle_hit_pct, <tier>/oracle_full_runs
//                       the lookup total is deterministic for any worker
//                       count (the workers share ONE oracle,
//                       DESIGN.md §16), but the hit/full-run split can
//                       move with thread scheduling, so these are
//                       reported rather than exactly gated. full_runs is
//                       the dedup headline: concurrent misses on one key
//                       compute once, so it is bounded by the distinct
//                       (source, exclusion) keys — not by K × keys as
//                       the old per-worker-private caches were;
//   <tier>/joins_per_sec, <tier>/wall_s, <tier>/peak_rss_mb,
//   <tier>/worker_gain  machine-dependent throughput / footprint.
//                       worker_gain (only with --workers > 1) is the
//                       one-worker wall over the N-worker wall for the
//                       same tier — the session-level parallel payoff.
//                       peak_rss is the process VmHWM after the tier's
//                       sessions are built and still resident, so it is
//                       monotone across tiers (tiers run smallest-first,
//                       smrp100k last, so it reads the run's peak);
//                       where getrusage cannot report it the series is
//                       omitted with a warning instead of recording 0.
//
// `--smoke` swaps in reduced tiers for CI; the committed
// BENCH_scale-smoke.json is regenerated and diffed there, while
// BENCH_scale.json archives a full-profile run.
#include <chrono>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <sys/resource.h>
#include <vector>

#include "bench_common.hpp"
#include "eval/multi_session.hpp"
#include "eval/table.hpp"
#include "net/transit_stub.hpp"

namespace {

using namespace smrp;

/// Process peak RSS in MiB (ru_maxrss is KiB on Linux), or nullopt when
/// the platform reports nothing usable (some kernels/sandboxes leave
/// ru_maxrss at 0, and a recorded 0 would read as "tier fit in zero
/// memory" in the committed baselines). Monotone when available: reads
/// the high-water mark, not the current footprint.
std::optional<double> peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0 || usage.ru_maxrss <= 0) {
    return std::nullopt;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Tier {
  const char* name;
  net::TransitStubParams topo;
  eval::MultiSessionParams sessions;
  int source_pool_cap;  ///< transit-core nodes used as session sources
};

net::TransitStubParams transit_stub(int transit, int stubs_per, int stub) {
  net::TransitStubParams p;
  p.transit_nodes = transit;
  p.stubs_per_transit = stubs_per;
  p.stub_size = stub;
  return p;
}

eval::MultiSessionParams session_load(int sessions, int min_size,
                                      int max_size, double churn,
                                      eval::SessionEngine engine,
                                      double zipf_exponent = 1.0) {
  eval::MultiSessionParams p;
  p.sessions = sessions;
  p.min_session_size = min_size;
  p.max_session_size = max_size;
  p.churn_events_per_session = churn;
  p.engine = engine;
  p.zipf_exponent = zipf_exponent;
  return p;
}

/// Full profile: the committed BENCH_scale.json. scale100k is the PR 8
/// acceptance point (100,000 nodes × 1,000 sessions); scale1m is the
/// million-member aggregate tier — same 100k-node topology, 2,200
/// sessions with a flatter Zipf over [16, 3000] so Σ members lands past
/// 1e6 (mean size ≈ 500).
std::vector<Tier> full_tiers() {
  return {
      {"scale1k", transit_stub(20, 5, 10),
       session_load(50, 2, 64, 4.0, eval::SessionEngine::kSmrp), 16},
      {"scale10k", transit_stub(40, 8, 31),
       session_load(150, 2, 96, 4.0, eval::SessionEngine::kSmrp), 32},
      {"scale100k", transit_stub(100, 9, 111),
       session_load(1000, 4, 2000, 2.0, eval::SessionEngine::kSpf), 64},
      {"scale1m", transit_stub(100, 9, 111),
       session_load(2200, 16, 3000, 1.0, eval::SessionEngine::kSpf, 0.8), 64},
      {"smrp100k", transit_stub(100, 9, 111),
       session_load(300, 4, 2000, 2.0, eval::SessionEngine::kSmrp), 64},
  };
}

/// CI profile: same shape, runner-sized (~100 and ~500 nodes).
std::vector<Tier> smoke_tiers() {
  return {
      {"scale1k", transit_stub(8, 3, 4),
       session_load(12, 2, 16, 3.0, eval::SessionEngine::kSmrp), 4},
      {"scale10k", transit_stub(12, 4, 10),
       session_load(30, 2, 32, 3.0, eval::SessionEngine::kSmrp), 8},
      {"scale100k", transit_stub(16, 5, 12),
       session_load(60, 2, 64, 2.0, eval::SessionEngine::kSpf), 8},
      {"scale1m", transit_stub(16, 5, 12),
       session_load(90, 4, 96, 1.0, eval::SessionEngine::kSpf, 0.8), 8},
      {"smrp100k", transit_stub(16, 5, 12),
       session_load(60, 2, 64, 2.0, eval::SessionEngine::kSmrp), 8},
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smrp;

  // This binary owns --smoke and --workers; strip them before the Runner
  // sees argv so the shared flag surface stays intact.
  bool smoke = false;
  int workers = 1;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  try {
    for (int i = 0; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--workers") {
        workers = bench::int_flag<int>(argc, argv, i);
        if (workers < 1) {
          throw std::invalid_argument("--workers needs a positive integer");
        }
      } else {
        args.push_back(argv[i]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }

  bench::Runner runner(static_cast<int>(args.size()), args.data(),
                       smoke ? "scale-smoke" : "scale",
                       "Multi-session capacity: nodes x sessions x members "
                       "over one shared routing oracle",
                       /*default_trials=*/1);
  const std::vector<Tier> tiers = smoke ? smoke_tiers() : full_tiers();
  runner.config().set("workers", workers);
  for (const Tier& tier : tiers) {
    const int nodes = tier.topo.transit_nodes +
                      tier.topo.transit_nodes * tier.topo.stubs_per_transit *
                          tier.topo.stub_size;
    runner.config().set(std::string(tier.name) + "_nodes", nodes);
    runner.config().set(std::string(tier.name) + "_sessions",
                        tier.sessions.sessions);
    runner.config().set(std::string(tier.name) + "_max_session_size",
                        tier.sessions.max_session_size);
  }

  bool warned_rss = false;
  const eval::EngineResult& res = runner.run([&](eval::TrialContext& ctx) {
    net::Rng rng(ctx.seed);
    int tier_index = 0;
    for (const Tier& tier : tiers) {
      const std::string prefix = tier.name;
      // One session-stream seed per tier, independent of the topology
      // stream so adding tiers never perturbs earlier ones.
      const std::uint64_t tier_seed =
          eval::trial_seed(ctx.seed, 1000 + tier_index++);
      const net::TransitStubTopology topo =
          net::generate_transit_stub(tier.topo, rng);

      // Sources: the first `source_pool_cap` transit-core routers. Every
      // session shares this pool, which is what makes the oracle's
      // per-source snapshots communal.
      std::vector<net::NodeId> pool(
          topo.nodes_of_domain[net::kTransitDomain].begin(),
          topo.nodes_of_domain[net::kTransitDomain].begin() +
              std::min<std::ptrdiff_t>(
                  tier.source_pool_cap,
                  static_cast<std::ptrdiff_t>(
                      topo.nodes_of_domain[net::kTransitDomain].size())));

      // The one-worker reference for worker_gain: same tier, same seed.
      // Only run with several workers — it doubles tier cost.
      double seq_secs = 0.0;
      if (workers > 1) {
        eval::MultiSessionParams seq_params = tier.sessions;
        seq_params.workers = 1;
        eval::MultiSessionDriver seq_driver(topo.graph, seq_params);
        const auto s0 = std::chrono::steady_clock::now();
        const eval::MultiSessionReport seq_report =
            seq_driver.run_seeded(tier_seed, pool);
        const auto s1 = std::chrono::steady_clock::now();
        seq_secs = std::chrono::duration<double>(s1 - s0).count();
        static_cast<void>(seq_report);
      }

      eval::MultiSessionParams params = tier.sessions;
      params.workers = workers;
      eval::MultiSessionDriver driver(topo.graph, params);
      const auto t0 = std::chrono::steady_clock::now();
      const eval::MultiSessionReport report =
          driver.run_seeded(tier_seed, pool);
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();

      const double hit_pct =
          report.oracle.lookups > 0
              ? 100.0 * static_cast<double>(report.oracle.cache_hits) /
                    static_cast<double>(report.oracle.lookups)
              : 0.0;
      auto& rec = ctx.recorder;
      rec.add(prefix + "/det_members",
              static_cast<double>(report.aggregate_members));
      rec.add(prefix + "/det_tree_links",
              static_cast<double>(report.tree_links));
      rec.add(prefix + "/det_joins", static_cast<double>(report.join_ops));
      rec.add(prefix + "/det_reshape_attempts",
              static_cast<double>(report.reshape_attempts));
      rec.add(prefix + "/det_reshapes", static_cast<double>(report.reshapes));
      rec.add(prefix + "/reshape_searches_per_join",
              report.join_ops > 0
                  ? static_cast<double>(report.reshape_searches) /
                        static_cast<double>(report.join_ops)
                  : 0.0);
      rec.add(prefix + "/oracle_hit_pct", hit_pct);
      rec.add(prefix + "/oracle_full_runs",
              static_cast<double>(report.oracle.full_runs));
      rec.add(prefix + "/joins_per_sec",
              secs > 0.0 ? static_cast<double>(report.join_ops) / secs : 0.0);
      rec.add(prefix + "/wall_s", secs);
      if (workers > 1 && secs > 0.0) {
        rec.add(prefix + "/worker_gain", seq_secs / secs);
      }
      if (const std::optional<double> rss = peak_rss_mb()) {
        rec.add(prefix + "/peak_rss_mb", *rss);
      } else if (!warned_rss) {
        warned_rss = true;
        std::cerr << "[bench_scale] warning: getrusage reports no peak RSS "
                     "on this platform; omitting peak_rss_mb series\n";
      }
      // Sessions (and their trees) free here — the peak reading above
      // already captured the fully resident tier.
    }
  });

  // Human-readable tier table from the recorded series.
  eval::Table table({"tier", "members", "tree links", "joins",
                     "reshape attempts", "searches/join", "oracle hit %",
                     "full runs", "joins/s", "wall s", "gain",
                     "peak RSS MiB"});
  for (const Tier& tier : tiers) {
    const std::string p = tier.name;
    const eval::Summary rss = res.summary(p + "/peak_rss_mb");
    const eval::Summary gain = res.summary(p + "/worker_gain");
    table.add_row({p, eval::Table::fixed(res.summary(p + "/det_members").mean, 0),
                   eval::Table::fixed(res.summary(p + "/det_tree_links").mean, 0),
                   eval::Table::fixed(res.summary(p + "/det_joins").mean, 0),
                   eval::Table::fixed(
                       res.summary(p + "/det_reshape_attempts").mean, 0),
                   eval::Table::fixed(
                       res.summary(p + "/reshape_searches_per_join").mean, 3),
                   eval::Table::fixed(
                       res.summary(p + "/oracle_hit_pct").mean, 1),
                   eval::Table::fixed(
                       res.summary(p + "/oracle_full_runs").mean, 0),
                   eval::Table::fixed(res.summary(p + "/joins_per_sec").mean, 0),
                   eval::Table::fixed(res.summary(p + "/wall_s").mean, 2),
                   gain.count > 0 ? eval::Table::fixed(gain.mean, 2) : "-",
                   rss.count > 0 ? eval::Table::fixed(rss.mean, 1) : "n/a"});
  }
  std::cout << "\n" << table.render() << "\n";
  return 0;
}
