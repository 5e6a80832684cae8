// Multi-session scale driver (DESIGN.md §14): N concurrent multicast
// sessions over one topology, all routed through ONE shared RoutingOracle
// so that sessions drawing their sources from a common pool reuse each
// other's cached SPF snapshots instead of re-running Dijkstra per session.
//
// Workload model:
//   * session sizes  — Zipf over [min_session_size, max_session_size]
//                      (a few elephant sessions, a long tail of mice —
//                      the standard multicast group-size observation),
//   * churn          — per-session Poisson event count, each event a
//                      member join or leave with equal probability,
//   * sources        — drawn round-robin from a small pool (defaults to
//                      ids spread across the graph; bench_scale passes
//                      the transit-core gateways) so the oracle's
//                      per-source snapshots are shared across sessions.
//
// Engine choice per run: the full SMRP path-selection builder (one
// shortest-path search per join — faithful but superlinear in members ×
// graph size), or the SPF baseline builder (RFC 2362-style hop-toward-
// source joins off the shared source snapshot, O(path + depth) per join:
// a parent-pointer walk and one graft) for the tiers where SMRP's
// per-join search is not the thing being measured.
// Session i draws every random decision from its own stream,
// trial_seed(seed, i), so a (seed, params) pair reproduces the run
// bit-for-bit at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/graph.hpp"
#include "net/rng.hpp"
#include "net/routing_oracle.hpp"
#include "smrp/config.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"

namespace smrp::eval {

/// Which per-session join engine the driver runs.
enum class SessionEngine {
  kSmrp,  ///< SmrpTreeBuilder: §3.2.2 path selection + reshaping
  kSpf,   ///< SpfTreeBuilder: join along the shared source SPF snapshot
};

struct MultiSessionParams {
  int sessions = 32;
  /// Distinct sources the sessions cycle through (ignored when an
  /// explicit pool is passed to run_seeded()). Clamped to the node count.
  int source_pool = 16;
  /// Zipf(s) session sizes over [min_session_size, max_session_size]:
  /// P(size = min+k) ∝ (k+1)^-s.
  int min_session_size = 2;
  int max_session_size = 64;
  double zipf_exponent = 1.0;
  /// Mean of the per-session Poisson churn-event count; each event is a
  /// join of a fresh node or a leave of a current member (p = 1/2 each).
  double churn_events_per_session = 4.0;
  SessionEngine engine = SessionEngine::kSmrp;
  proto::SmrpConfig smrp{};
  /// Worker threads for run_seeded() (DESIGN.md §14, §16): each worker
  /// takes the next unbuilt session as it frees up, all routing through
  /// the driver's ONE RoutingOracle. Session outcomes derive
  /// only from per-session RNG streams and the (deterministic) oracle
  /// answers, so every aggregate — including total oracle lookups — is
  /// byte-identical for any value; only the cache hit/miss split moves
  /// (a snapshot one worker computes is a hit for every other). Clamped
  /// to [1, sessions].
  int workers = 1;
};

/// Everything the scale bench reports, all derived deterministically from
/// (topology, params, rng seed).
struct MultiSessionReport {
  int sessions = 0;
  /// Σ member_count over sessions after build + churn.
  std::int64_t aggregate_members = 0;
  std::int64_t join_ops = 0;   ///< successful joins (build + churn)
  std::int64_t leave_ops = 0;
  std::int64_t churn_events = 0;
  std::int64_t reshapes = 0;        ///< SMRP engine only
  std::int64_t fallback_joins = 0;  ///< SMRP engine only
  /// Σ SmrpTreeBuilder::reshape_attempts() / reshape_searches() over
  /// sessions (SMRP engine only).
  std::int64_t reshape_attempts = 0;
  std::int64_t reshape_searches = 0;
  std::int64_t tree_links = 0;      ///< Σ links carrying some session
  double total_tree_cost = 0.0;     ///< Σ Cost_T over sessions
  /// Shared-oracle counters for the whole run; the cache-hit fraction is
  /// the "sessions share snapshots" claim, asserted by the tests.
  net::RoutingOracle::Stats oracle{};
};

/// Sample a Zipf-distributed value in [lo, hi]: P(lo+k) ∝ (k+1)^-s.
/// Exposed for tests; inverse-CDF over an O(hi-lo) table built per call
/// sequence is the driver's job, this is the one-shot reference form.
[[nodiscard]] int sample_zipf(net::Rng& rng, int lo, int hi, double exponent);

/// Sample Poisson(mean) via Knuth's product method (mean is small here).
[[nodiscard]] int sample_poisson(net::Rng& rng, double mean);

class MultiSessionDriver {
 public:
  /// The driver owns the oracle all sessions share; `g` must outlive it.
  MultiSessionDriver(const net::Graph& g, MultiSessionParams params);

  /// Build all sessions, run churn, and tear nothing down: the sessions
  /// stay live on the driver (peak-memory measurements want the full
  /// concurrent-session footprint resident). `source_pool`, when
  /// non-empty, supplies the session sources (cycled round-robin);
  /// otherwise `params.source_pool` ids evenly spread over the graph.
  ///
  /// Session i draws every random decision from its own stream
  /// (trial_seed(seed, i)), params.workers threads take sessions from
  /// one counter as they free up, and ALL workers route through the
  /// driver's shared oracle — identical (source, exclusion)
  /// snapshots are computed once run-wide, not once per worker. All
  /// deterministic aggregates (members, joins, links, costs, oracle
  /// lookups) are byte-identical for any worker count — only the
  /// hit/miss split varies with scheduling. One driver runs exactly once.
  MultiSessionReport run_seeded(std::uint64_t seed,
                                const std::vector<net::NodeId>& source_pool = {});

  [[nodiscard]] net::RoutingOracle& oracle() noexcept { return oracle_; }
  [[nodiscard]] const MultiSessionParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] int session_count() const noexcept {
    return static_cast<int>(sessions_.size());
  }
  /// The session's tree, for validation in tests.
  [[nodiscard]] const mcast::MulticastTree& session_tree(int i) const;

 private:
  /// One live session under either engine.
  struct Session {
    std::unique_ptr<proto::SmrpTreeBuilder> smrp;
    std::unique_ptr<baseline::SpfTreeBuilder> spf;
    std::vector<net::NodeId> members;  ///< join order, for leave sampling
  };

  [[nodiscard]] bool try_join(Session& s, net::NodeId member,
                              MultiSessionReport& report);
  void leave(Session& s, std::size_t member_index,
             MultiSessionReport& report);
  /// Resolve the effective source pool (caller list or evenly spread ids).
  [[nodiscard]] std::vector<net::NodeId> resolve_pool(
      const std::vector<net::NodeId>& source_pool) const;
  /// Instantiate one session (engine + Zipf-sized build) and churn it,
  /// recording into `report` only — the workers' unit of work.
  void build_and_churn(Session& s, net::NodeId source, net::Rng& rng,
                       MultiSessionReport& report);
  /// Fold the per-worker partial reports, the resident session state, and
  /// the shared oracle's counters into report_ (deterministic order:
  /// worker index, then session index).
  MultiSessionReport finalize(std::vector<MultiSessionReport> partials);

  const net::Graph* g_;
  MultiSessionParams params_;
  net::RoutingOracle oracle_;  ///< shared by every run_seeded() worker
  std::vector<Session> sessions_;
  std::vector<double> zipf_cdf_;  ///< cumulative, built once per driver
  MultiSessionReport report_;
};

}  // namespace smrp::eval
