// Distributed, message-passing realisation of the multicast session on the
// discrete-event simulator: soft-state join/prune, SHR maintenance via
// periodic parent/child exchanges (§3.2.1), data forwarding, failure
// detection, and the two recovery styles under comparison —
//   * SMRP mode: expanding-ring local repair to the nearest on-tree node
//     that still receives data (the local detour),
//   * PIM mode: periodic routed joins toward the source that can only heal
//     after the unicast link-state routing reconverges (the global
//     detour), reproducing the ICNP'00 observation the paper builds on.
//
// The centralised engine (`SmrpTreeBuilder`) is the reference; tests check
// that, in a quiescent network, the distributed protocol converges to a
// tree whose member service (delay, structure) matches a valid tree and
// that its SHR values agree with Eq. 2.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "multicast/tree.hpp"
#include "net/rng.hpp"
#include "net/routing_oracle.hpp"
#include "net/shortest_path.hpp"
#include "obs/telemetry.hpp"
#include "routing/convergence.hpp"
#include "routing/link_state.hpp"
#include "sim/network.hpp"
#include "smrp/config.hpp"
#include "smrp/flat_map.hpp"

namespace smrp::proto {

using sim::Time;

struct SessionConfig {
  static constexpr int kJoinTtl = 64;  ///< hop budget for routed (PIM) joins
  static constexpr double kRepairBackoff = 2.0;  ///< pacing factor per ring
  static constexpr double kRepairJitter = 0.25;  ///< ± pacing jitter per ring
  /// Seed of the repair-jitter RNG.
  static constexpr std::uint64_t kJitterSeed = 0xc4a05c4a05ULL;
  /// Hardened data-plane failure detection: payloads arrive every
  /// data_interval, so this much silence on a previously served node
  /// triggers repair immediately — well before the control-plane
  /// upstream_timeout and (unlike the PIM detour) before unicast routing
  /// reconverges. Clamped to at least 3 * data_interval so slow pumps do
  /// not false-trigger; transient loss must kill that many consecutive
  /// payloads to cause a spurious (and harmless) repair.
  static constexpr Time kDataTimeout = 150.0;
  /// Condition II cadence: a member re-runs path selection every this
  /// many maintenance ticks (§3.2.3's periodic timer). Condition I fires
  /// on SHR growth per SmrpConfig::reshape_shr_delta. Both honour
  /// smrp.enable_reshaping.
  static constexpr int kReshapeEveryTicks = 10;

  SmrpConfig smrp;                  ///< path-selection knobs (SMRP mode)
  Time refresh_interval = 100.0;    ///< soft-state + SHR exchange cadence (ms)
  Time state_timeout = 350.0;       ///< child state expires after this silence
  Time upstream_timeout = 350.0;    ///< upstream declared dead after this
  Time data_interval = 25.0;        ///< source payload cadence
  Time repair_retry = 80.0;         ///< base expanding-ring pacing (SMRP)
  int max_repair_ttl = 16;          ///< ring search cap
  /// In-protocol convergence detection (DESIGN.md §13): every on-tree
  /// node piggybacks a termination-detection wave on the refresh traffic
  /// it already sends, and the source detects — from protocol messages
  /// alone — when restoration has completed. Pure observation unless
  /// adaptive_triggers is set; disabling it only stops the wave fields
  /// from being computed.
  routing::ConvergenceConfig convergence;
  /// Opt-in adaptive triggers driven by the detection machinery instead
  /// of fixed timers: a repairing node whose local control plane has
  /// quiesced and re-learned a route to the source aborts the ring
  /// escalation for an immediate routed fallback, and the periodic
  /// (Condition II) reshape waits for the source's converged verdict.
  /// Off by default — the baseline keeps the timer behaviour for A/B.
  bool adaptive_triggers = false;
  enum class Mode { kSmrp, kPimSpf } mode = Mode::kSmrp;
  /// Test-only protocol mutations: each one breaks the protocol in one
  /// known way that a test must catch — the core ruleset (obs/expect) or
  /// the chaos soak's service check. Never enable outside tests.
  struct Mutations {
    /// Drop the on-tree/from-parent acceptance guard: any node that hears
    /// a payload floods it to all its neighbors (dedup by seq only).
    bool forward_off_tree = false;
    /// Ignore max_repair_ttl: the expanding-ring search keeps widening
    /// forever instead of failing over to the routed join.
    bool ignore_ring_budget = false;
    /// Revert to the pre-hardening repair path (fixed ring pacing, silent
    /// give-up at the ring budget; DESIGN.md §7): the chaos soak's
    /// must-fail reference.
    bool legacy_repair = false;
  } mutations;
};

/// One multicast session: hosts the per-node protocol agents.
class DistributedSession {
 public:
  DistributedSession(sim::Simulator& simulator, sim::SimNetwork& network,
                     routing::LinkStateRouting& routing, net::NodeId source,
                     SessionConfig config = {});

  /// Bring the source online and start the data pump + maintenance timers.
  void start();

  /// Issue a join for `member` now (protocol messages flow from here on).
  void join(net::NodeId member);

  /// Issue a leave for `member` now.
  void leave(net::NodeId member);

  /// Demux entry point; returns true if the message belonged to this
  /// session (routing messages return false).
  bool handle(net::NodeId at, net::NodeId from, const sim::Message& message);

  // -- Observability ---------------------------------------------------------

  [[nodiscard]] net::NodeId source() const noexcept { return source_; }
  [[nodiscard]] const SessionConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool is_member(net::NodeId n) const;
  [[nodiscard]] bool on_tree(net::NodeId n) const;
  [[nodiscard]] net::NodeId parent_of(net::NodeId n) const;
  /// Children `n` currently believes it forwards to, ascending by id.
  [[nodiscard]] std::vector<net::NodeId> children_of(net::NodeId n) const;
  /// Whether `n` has an expanding-ring repair in flight.
  [[nodiscard]] bool is_repairing(net::NodeId n) const;
  /// Whether `n` gave up repairing because the source looks partitioned
  /// away (it rejoins automatically once routing re-learns a path).
  [[nodiscard]] bool is_stranded(net::NodeId n) const;
  /// Repair-nonce dedup entries held at `n` (bounded by kSeenNonceCap).
  [[nodiscard]] std::size_t seen_nonce_count(net::NodeId n) const;
  /// Time of the last payload seen at `n` (< 0 if none yet).
  [[nodiscard]] Time last_data_at(net::NodeId n) const;
  /// SHR(S, n) as the distributed state currently believes.
  [[nodiscard]] int believed_shr(net::NodeId n) const;

  /// Cap on per-node repair-nonce dedup state. Without a cap, every repair
  /// query ever seen stays resident — unbounded memory on long chaos runs.
  static constexpr std::size_t kSeenNonceCap = 256;

  /// Build an analytic MulticastTree from the distributed state (members'
  /// parent chains). Returns nullopt while the state is inconsistent
  /// (mid-churn cycles or orphaned members).
  [[nodiscard]] std::optional<mcast::MulticastTree> snapshot_tree() const;

  [[nodiscard]] int repairs_started() const noexcept { return repairs_started_; }
  [[nodiscard]] int repairs_completed() const noexcept {
    return repairs_completed_;
  }
  [[nodiscard]] int reshapes_performed() const noexcept {
    return reshapes_performed_;
  }

  /// Source-side in-protocol convergence verdict (DESIGN.md §13): whether
  /// the source currently believes the tree has converged, judged purely
  /// from the piggybacked detection wave.
  [[nodiscard]] bool convergence_detected() const noexcept {
    return conv_detector_.converged();
  }
  /// Detection epochs declared by the source so far.
  [[nodiscard]] std::uint64_t convergence_detections() const noexcept {
    return conv_detector_.detections();
  }

  /// Attach (or detach with nullptr) the telemetry bundle; not owned.
  /// Opens causal episode spans for every service interruption —
  ///   outage (per-node loss of payload service)
  ///     └─ repair (one expanding-ring episode; count == repairs_started())
  ///         └─ ring (one TTL-limited query flood)
  ///     └─ graft | fallback (the leg that restored service)
  /// plus join/leave/reshape spans and the `smrp.proto.*` metrics.
  /// Telemetry is pure observation: it never touches protocol state, the
  /// event queue, or any RNG, so runs are bit-identical attached or not.
  void attach_telemetry(obs::Telemetry* telemetry);

  struct ChildInfo {
    Time last_refresh = 0.0;
    int subtree_members = 0;
    /// Convergence wave (DESIGN.md §13): the child's reported subtree
    /// quiet-since and when that report arrived (< 0 before the first —
    /// an unreported child cannot vouch for its subtree).
    double conv_quiet_since = routing::kNotQuiet;
    Time conv_report_at = -1.0;
  };

  struct AgentState {
    bool is_member = false;
    bool on_tree = false;
    net::NodeId parent = net::kNoNode;
    /// Child table, ascending by node id (iteration order is part of the
    /// determinism contract). Flat storage: one vector per agent instead
    /// of one red-black node per child — see flat_map.hpp.
    FlatMap<net::NodeId, ChildInfo> children;
    int shr_upstream = 0;       ///< SHR(S, parent) learned from ShrUpdate
    Time last_upstream = -1.0;  ///< last ShrUpdate from the parent
    Time last_data = -1.0;      ///< last payload forwarded/consumed here
    std::uint64_t last_seq = 0;
    // SMRP repair machinery.
    bool repairing = false;
    std::uint64_t repair_nonce = 0;
    int repair_ttl = 1;
    int repair_ring = 0;  ///< rings fired this repair; drives the backoff
    /// Gave up on repair because the source is unreachable even by the
    /// IGP; cleared when data returns or a route reappears.
    bool stranded = false;
    /// Set while the node is down so the first maintenance tick after a
    /// restart can tell "just rebooted" from "always up".
    bool observed_down = false;
    /// Until this time, a freshly installed graft/fallback join is given
    /// the benefit of the doubt: dead-upstream detection is suppressed so
    /// the new branch can settle — WITHOUT faking data freshness, which
    /// would let service-dead nodes answer repair queries and weld grafts
    /// into zombie cycles.
    Time repair_grace = -1.0;
    /// A data-silence watchdog event is pending for this node.
    bool watchdog_armed = false;
    /// Recent repair nonces, dedup set + FIFO eviction order (bounded by
    /// kSeenNonceCap; duplicates arrive close together in time).
    std::set<std::uint64_t> seen_nonces;
    std::deque<std::uint64_t> nonce_order;
    // Reshaping state (§3.2.3).
    int shr_baseline = -1;  ///< SHR at last (re)join; Condition I reference
    int ticks_since_reshape_check = 0;
    // Convergence detection (DESIGN.md §13).
    routing::QuietTracker conv_local;  ///< local quiescence latch
    /// Source verdict propagated down via ShrUpdate (set directly by the
    /// detector at the source itself); gates adaptive reshaping.
    bool conv_converged = false;
  };

  /// Test-only backdoor: direct mutable access to a node's raw protocol
  /// state so the invariant checker's negative suite can craft each
  /// violation it claims to detect (tests/smrp/test_invariants.cpp).
  /// Never called by the protocol.
  [[nodiscard]] AgentState& agent_state_for_tests(net::NodeId n) {
    return agent(n);
  }

 private:
  /// The hardened repair path (DESIGN.md §7): backoff with jitter between
  /// repair rings, fallback from the exhausted ring search to a routed
  /// join, crash-restart re-join, and partition-aware stranding with
  /// automatic rejoin once the IGP heals. Off only under the test-only
  /// legacy_repair mutation.
  [[nodiscard]] bool hardened() const noexcept {
    return !config_.mutations.legacy_repair;
  }

  /// Telemetry-side shadow state, deliberately OUTSIDE AgentState: a
  /// crash-restart wipes the agent's soft state, but the observer must
  /// keep its open spans (the outage spans the crash caused) and the
  /// pre-crash payload clock so interruption totals match what an
  /// external gap measurement over the payload stream would report.
  struct NodeObs {
    obs::SpanId outage = obs::kNoSpan;
    obs::SpanId repair = obs::kNoSpan;
    obs::SpanId ring = obs::kNoSpan;
    obs::SpanId graft = obs::kNoSpan;
    obs::SpanId fallback = obs::kNoSpan;
    obs::SpanId join = obs::kNoSpan;
    obs::SpanId reshape = obs::kNoSpan;
    /// Rejoin leg of an outage: a crash-restart / stranded / PIM routed
    /// re-join issued while the node's service is down.
    obs::SpanId rejoin = obs::kNoSpan;
    double last_payload = -1.0;  ///< survives crashes, unlike last_data
    int rings_episode = 0;
    /// Observational tree-membership epoch: bumped whenever the node's
    /// parent is seen to differ from the last forward; stamped on forward
    /// events so a trace consumer can correlate forwards with tree
    /// generations.
    std::uint64_t epoch = 0;
    net::NodeId last_parent = net::kNoNode;
  };

  [[nodiscard]] AgentState& agent(net::NodeId n);
  [[nodiscard]] const AgentState& agent(net::NodeId n) const;

  // -- Telemetry hooks (all no-ops when telemetry_ == nullptr) ---------------

  /// Open the per-node outage span if none is open; stamps
  /// `service_lost_at` with the last payload time so total interruption
  /// can be reconstructed payload-to-payload.
  void tl_open_outage(net::NodeId n);
  /// Payload accepted at `n`: service is (re)stored, so close every open
  /// episode span bottom-up and advance the payload clock.
  void tl_on_data(net::NodeId n);
  /// Crash-restart at `n`: in-flight repair machinery died with the node.
  void tl_on_restart(net::NodeId n, bool was_member);
  /// `n` pruned itself off the tree: open episodes are moot, not failed.
  void tl_on_prune(net::NodeId n);
  /// A routed (re)join issued while `n`'s service is down: open the
  /// rejoin leg under the outage span (idempotent while one is open).
  void tl_open_rejoin(net::NodeId n);
  /// Record a `forward` event: `n` sent payload `seq` to `to`. `on_tree`
  /// and `from_parent` are ground truth at send time; the checker's
  /// forward-* rules require both.
  void tl_event_forward(net::NodeId n, std::uint64_t seq, bool on_tree,
                        bool from_parent);
  /// Record a `deliver` event: member `n` accepted payload `seq`.
  void tl_event_deliver(net::NodeId n, std::uint64_t seq);

  /// Members in the subtree rooted here, per current child reports.
  [[nodiscard]] int local_member_count(const AgentState& s) const;

  /// "Connected to the source" in the data-plane sense.
  [[nodiscard]] bool upstream_alive(net::NodeId n) const;

  void pump_data();
  void maintenance(net::NodeId n);
  /// Run the mode-appropriate join machinery for `member` (assumes the
  /// member flag is already set); shared by join(), crash-restart re-join,
  /// and the post-partition rejoin.
  void initiate_join(net::NodeId member);
  /// Crash semantics: wipe the agent's protocol soft state (a rebooted
  /// router has lost its RAM), keep application-level membership, and
  /// rejoin if the node was a member.
  void restart_agent(net::NodeId n);
  void send_join_along(net::NodeId member, const std::vector<net::NodeId>& path);
  void send_routed_join(net::NodeId from_member);
  /// Mode-appropriate reaction to a dead upstream: expanding-ring repair
  /// or stranded-rejoin (SMRP), periodic routed re-join (PIM). Shared by
  /// the maintenance tick and the data-silence watchdog.
  void react_to_dead_upstream(net::NodeId n);
  /// Hardened fast failure detection: fires kDataTimeout after the last
  /// payload; silence on a served node starts repair without waiting for
  /// the control-plane upstream_timeout.
  void data_watchdog(net::NodeId n);
  [[nodiscard]] Time watchdog_window() const noexcept;
  void start_repair(net::NodeId n);
  void fire_repair_ring(net::NodeId n);
  /// Shared tail of the ring search: close the repair episode and either
  /// fall back to a routed join or go stranded. `adaptive` marks the
  /// convergence-triggered early abort (spans close superseded, not
  /// failed — the search was cut short, it did not exhaust its budget).
  void repair_give_up(net::NodeId n, bool adaptive);

  // -- Convergence detection (DESIGN.md §13) ---------------------------------

  /// Local quiescence predicate at `n`: control plane settled (no pending
  /// SPF, no recent LSA churn), repair machinery idle, graft grace over,
  /// and — on served paths — the data-plane watchdog fed.
  [[nodiscard]] bool conv_locally_quiet(net::NodeId n, Time now) const;
  /// Control-plane half of the predicate, which is also what the adaptive
  /// fallback needs: unicast routing around `n` has settled.
  [[nodiscard]] bool conv_routing_quiet(net::NodeId n, Time now) const;
  /// Fold `n`'s own quiet latch (updated here) with its children's
  /// piggybacked reports; silent or never-reporting children poison it.
  [[nodiscard]] double conv_subtree_quiet_since(net::NodeId n, Time now);
  /// Source-side detector step plus telemetry: on detection, confirm
  /// every restored outage episode awaiting its honest end.
  void conv_step(double aggregate_quiet_since, Time now);
  /// Re-run path selection for member `n` against the current distributed
  /// state; switch upstream (make-before-break) when strictly better.
  bool attempt_reshape(net::NodeId n);
  /// Currently failed links/nodes as an exclusion set (IGP knowledge).
  [[nodiscard]] net::ExclusionSet down_components() const;
  void prune_self_if_useless(net::NodeId n);

  void on_join(net::NodeId at, net::NodeId from, const sim::JoinReqMsg& msg);
  void on_leave(net::NodeId at, net::NodeId from);
  void on_refresh(net::NodeId at, net::NodeId from,
                  const sim::StateRefreshMsg& msg);
  void on_shr_update(net::NodeId at, net::NodeId from,
                     const sim::ShrUpdateMsg& msg);
  void on_data(net::NodeId at, net::NodeId from, const sim::DataMsg& msg);
  void on_repair_query(net::NodeId at, net::NodeId from,
                       sim::RepairQueryMsg msg);
  void on_repair_resp(net::NodeId at, net::NodeId from,
                      const sim::RepairRespMsg& msg);

  sim::Simulator* simulator_;
  sim::SimNetwork* network_;
  routing::LinkStateRouting* routing_;
  net::NodeId source_;
  SessionConfig config_;
  /// Shared SPF service for routed-join fallbacks and reshape decisions.
  /// Down components are expressed as ExclusionSets, so the same cached
  /// tree serves every agent seeing the same failure state. unique_ptr:
  /// the oracle holds a mutex and is immovable.
  const std::unique_ptr<net::RoutingOracle> oracle_;
  net::Rng jitter_rng_;
  /// Source-side detector over the root aggregate of the piggybacked
  /// wave. Runs whether or not telemetry is attached (adaptive triggers
  /// act on it), but is pure computation on protocol state — no events,
  /// no randomness — so bit-identity across attach states holds.
  routing::ConvergenceDetector conv_detector_;
  /// Restored outage episodes awaiting the source's next detection (the
  /// episode's honest, in-protocol end). Telemetry-only bookkeeping:
  /// populated solely while a telemetry bundle is attached.
  struct PendingOutage {
    net::NodeId node = net::kNoNode;
    obs::SpanId outage = obs::kNoSpan;
    double lost_at = 0.0;     ///< service_lost_at of the outage span
    double restored_at = 0.0; ///< when the payload gap closed (oracle end)
    double total_ms = 0.0;    ///< oracle interruption total
  };
  std::vector<PendingOutage> conv_pending_;
  std::vector<AgentState> agents_;
  std::uint64_t data_seq_ = 0;
  std::uint64_t nonce_counter_ = 0;
  int repairs_started_ = 0;
  int repairs_completed_ = 0;
  int reshapes_performed_ = 0;
  bool started_ = false;
  // Telemetry handles, cached at attach time (no hot-path map lookups).
  obs::Telemetry* telemetry_ = nullptr;
  std::vector<NodeObs> node_obs_;
  obs::Counter* c_watchdog_ = nullptr;
  obs::Counter* c_rings_ = nullptr;
  obs::Counter* c_fallbacks_ = nullptr;
  obs::Counter* c_stranded_ = nullptr;
  obs::Counter* c_routed_joins_ = nullptr;
  obs::Counter* c_repairs_started_ = nullptr;
  obs::Counter* c_repairs_completed_ = nullptr;
  obs::Counter* c_reshapes_ = nullptr;
  obs::Histogram* h_outage_ms_ = nullptr;
  obs::Histogram* h_rings_ = nullptr;
  obs::Histogram* h_join_ms_ = nullptr;
  obs::Counter* c_conv_detections_ = nullptr;
  obs::Counter* c_conv_adaptive_fallbacks_ = nullptr;
  obs::Gauge* g_conv_converged_ = nullptr;
  obs::Gauge* g_conv_quiet_ms_ = nullptr;
  obs::Histogram* h_conv_skew_ = nullptr;
  obs::EventShape e_forward_;  ///< forward{seq, on_tree, from_parent, epoch}
  obs::EventShape e_deliver_;  ///< deliver{seq}
  obs::EventShape e_restart_;  ///< restart{member}
};

}  // namespace smrp::proto
