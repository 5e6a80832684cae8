// RoutingOracle: the shared shortest-path service every SPF consumer in
// this codebase goes through (DESIGN.md §10, §16).
//
// The paper's core claim is that restoration speed is bounded by how fast
// a surviving path can be found after a persistent failure. Before the
// oracle, thirteen translation units called the free Dijkstra functions
// and recomputed full single-source SPF from scratch on every join,
// reshape, query, and repair — even with the topology unchanged between
// calls. The oracle centralises those searches behind one cache:
//
//  * Plain SPF trees are cached per (source, exclusion signature) as
//    shared immutable snapshots, at most kMaxEntries of them (LRU). The
//    graph never changes (net/graph.hpp), so a snapshot stays exact for
//    the oracle's lifetime. A miss for a source in a root component of
//    the bridge tree, with no exclusions, is composed: a core-only run
//    plus the shared shortest-path trees of the regions that hang off the
//    core by one bridge each (DESIGN.md §16, "Composed misses"). Every
//    other miss is one full Dijkstra run. Both give the same bytes.
//  * Tree-state-dependent searches (absorbing candidate enumeration,
//    detour searches) are not cacheable; the oracle serves them from a
//    pool of reusable DijkstraWorkspaces instead.
//
// Concurrency (DESIGN.md §16): ONE oracle is meant to be shared by every
// worker thread that routes over the same topology. One mutex guards the
// snapshot map and the counters; it is held to probe and to publish, never
// across a Dijkstra run. Concurrent misses on the same key compute ONCE:
// the first thread installs an in-flight cell and computes outside the
// lock; later arrivals wait on that cell and share the winner's snapshot
// (counted as hits — the computation they were spared). Because a
// snapshot is a pure deterministic function of its key, sharing the cache
// across threads cannot change any result byte — only wall time, memory,
// and the hit/full-run split move with the thread count. Misses on
// different keys run in parallel, each in its own leased workspace.
// Returned trees are shared_ptr<const> snapshots that stay valid across
// eviction, and after the oracle itself is gone.
//
// Cache management is wall-clock free (LRU over a monotone lookup tick),
// so runs remain bit-for-bit reproducible at any thread count.
// attach_telemetry must be called before the oracle is shared across
// threads (the usual attach-then-run discipline); the mirrored counter
// bumps happen under the oracle's lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/graph.hpp"
#include "net/shortest_path.hpp"
#include "obs/telemetry.hpp"

namespace smrp::net {

class RoutingOracle {
 public:
  /// Ready snapshots kept before the least recently used one is evicted.
  /// In-flight computations are not counted and never evicted.
  static constexpr std::size_t kMaxEntries = 256;

  using TreePtr = std::shared_ptr<const ShortestPathTree>;

  /// Counters; lookups, cache_hits, cache_misses and full_runs are
  /// mirrored to telemetry (smrp.routing.*). Invariants:
  /// lookups == cache_hits + cache_misses and cache_misses == full_runs:
  /// a composed miss computes the same whole snapshot a full run does,
  /// and counts as one. A lookup that waits on another thread's in-flight
  /// computation of the same key counts as a hit (it was served a shared
  /// snapshot, not a Dijkstra run), so full_runs never exceeds the number
  /// of distinct keys computed — the dedup guarantee the scale bench
  /// reports.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// Always 0: no miss is repaired from another cached tree. Kept so
    /// the reports that print it keep their fields.
    std::uint64_t incremental_repairs = 0;
    std::uint64_t full_runs = 0;  ///< misses, each one whole snapshot
    /// Misses of full_runs served by composition instead of one full run.
    std::uint64_t composed = 0;

    /// Fold another oracle's (or run's) counters into this one — the one
    /// summation every stats consumer shares (multi-oracle benches, the
    /// eval drivers, telemetry folds).
    Stats& operator+=(const Stats& other) noexcept {
      lookups += other.lookups;
      cache_hits += other.cache_hits;
      cache_misses += other.cache_misses;
      incremental_repairs += other.incremental_repairs;
      full_runs += other.full_runs;
      composed += other.composed;
      return *this;
    }
  };

  /// RAII lease of a pooled DijkstraWorkspace for the uncacheable
  /// (tree-state-dependent) searches; returns the workspace to the pool
  /// on destruction so its buffers are reused by the next lease.
  class WorkspaceLease {
   public:
    WorkspaceLease(WorkspaceLease&& other) noexcept
        : oracle_(other.oracle_), workspace_(std::move(other.workspace_)) {
      other.oracle_ = nullptr;
    }
    WorkspaceLease& operator=(WorkspaceLease&& other) noexcept {
      if (this != &other) {
        release();
        oracle_ = other.oracle_;
        workspace_ = std::move(other.workspace_);
        other.oracle_ = nullptr;
      }
      return *this;
    }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;
    ~WorkspaceLease() { release(); }

    [[nodiscard]] DijkstraWorkspace& operator*() const noexcept {
      return *workspace_;
    }
    [[nodiscard]] DijkstraWorkspace* operator->() const noexcept {
      return workspace_.get();
    }
    [[nodiscard]] DijkstraWorkspace* get() const noexcept {
      return workspace_.get();
    }

   private:
    friend class RoutingOracle;
    WorkspaceLease(RoutingOracle* oracle,
                   std::unique_ptr<DijkstraWorkspace> workspace) noexcept
        : oracle_(oracle), workspace_(std::move(workspace)) {}
    void release() noexcept;

    RoutingOracle* oracle_ = nullptr;
    std::unique_ptr<DijkstraWorkspace> workspace_;
  };

  explicit RoutingOracle(const Graph& g);

  /// Shortest-path tree from `source` over the whole graph / avoiding the
  /// banned components. Served from cache when (source, exclusion
  /// signature) was seen before and not evicted since, otherwise
  /// computed, by composition or by one full Dijkstra run, bit-identical
  /// to dijkstra() either way; concurrent misses on the same key are
  /// memoized (one computation, every caller shares the snapshot).
  /// Throws like dijkstra() on a bad or banned source. Safe to call from
  /// any number of threads.
  TreePtr spf(NodeId source);
  TreePtr spf(NodeId source, const ExclusionSet& excluded);

  /// Borrow a workspace from the pool (for absorbing/detour searches).
  [[nodiscard]] WorkspaceLease workspace();

  /// Attach (or detach with nullptr) telemetry; the cache counters are
  /// published as smrp.routing.{lookups,cache_hit,cache_miss,
  /// cache_fallback} (cache_fallback counts the full runs) and the
  /// resident snapshot footprint as the smrp.routing.{snapshot_count,
  /// snapshot_bytes} gauges. Pure observation — results
  /// are bit-identical attached or detached. Call before sharing the
  /// oracle across threads.
  void attach_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] Stats stats() const;

  /// Ready snapshots currently cached, and their approximate resident
  /// bytes (the per-node storage of every cached tree).
  [[nodiscard]] std::uint64_t snapshot_count() const;
  [[nodiscard]] std::uint64_t snapshot_bytes() const;

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

 private:
  /// Rendezvous for concurrent misses on one key: the winner computes
  /// the snapshot outside the oracle's lock and publishes it here; losers
  /// wait on the cell instead of duplicating the Dijkstra run. The cell
  /// is self-contained (own mutex), so a colliding key that replaces the
  /// entry mid-computation strands no waiter — they still receive the
  /// winner's tree.
  struct Cell {
    std::mutex mu;
    std::condition_variable cv;
    TreePtr tree;        ///< set exactly once, under mu
    bool failed = false; ///< winner threw; waiters retry the lookup
  };

  struct Entry {
    NodeId source = kNoNode;
    /// Banned ids (ascending) — exact verification against hash
    /// collisions of the cache key.
    std::vector<NodeId> banned_nodes;
    std::vector<LinkId> banned_links;
    TreePtr tree;  ///< null while the cell's computation is in flight
    std::shared_ptr<Cell> cell;
    std::uint64_t last_used = 0;  ///< monotone LRU tick (no wall clock)
  };

  static std::uint64_t cache_key(NodeId source, std::uint64_t signature) noexcept;
  /// Entry's ban set equals the request's exactly.
  static bool entry_matches(const Entry& entry, const ExclusionSet& excluded);

  /// A region: a bridge subtree directly below a root component of the
  /// bridge tree. Its entry is the bridge's endpoint inside it, its
  /// gateway the other endpoint. Its tree is one Dijkstra run from the
  /// entry over the region alone, shared by every root-component source.
  struct Region {
    /// steps_[begin, end): the region's nodes in the settle order of its
    /// tree, the entry first.
    std::size_t begin = 0;
    std::size_t end = 0;
    std::int32_t max_hops = 0;  ///< h_R: largest hop count from the entry
    double max_dist = 0.0;      ///< M_R: largest distance from the entry
    /// The smallest of every node's gap between its winning and its best
    /// losing relaxation and of every link weight in the region: the
    /// margin guard_holds() compares.
    double slack = kInfinity;

    /// The guard: whether a source whose run reaches the entry at
    /// (`entry_dist`, `entry_hops`) may copy this tree. Only when no
    /// rounding of the shifted sums can move a winner (DESIGN.md §16).
    [[nodiscard]] bool guard_holds(double entry_dist,
                                   std::int32_t entry_hops) const noexcept;
  };

  /// One node of a region tree. The entry's step holds the gateway and
  /// the bridge, so a snapshot's label for every step's node is
  /// dist[parent] + weight, in settle order, at hops + the entry's hops.
  struct Step {
    NodeId node = kNoNode;
    NodeId parent = kNoNode;
    LinkId parent_link = kNoLink;
    std::int32_t hops = 0;  ///< from the entry
    double weight = 0.0;    ///< of parent_link
  };

  /// Full Dijkstra into a fresh snapshot, in a leased workspace (no
  /// oracle lock held).
  TreePtr full_run(NodeId source, const ExclusionSet& excluded);

  /// True when a miss for `source` with no exclusions is served by
  /// composed_run(): `source` lies in a root component of the bridge
  /// tree and the graph has regions. Builds the region trees on its
  /// first call that needs them; concurrent callers wait for that build.
  bool composable(NodeId source);
  /// The region trees and their guard data, in one Dijkstra run per
  /// region (run once per oracle, by std::call_once).
  void build_regions();
  /// The snapshot of a composable source: a core-only run, then each
  /// reachable region copied from its tree, or, when its guard fails,
  /// run from its entry by a seeded run (no oracle lock held).
  TreePtr composed_run(NodeId source);

  /// Must hold mu_. Install the winner's snapshot in its entry, unless a
  /// colliding key replaced the entry meanwhile, and evict
  /// down to kMaxEntries.
  void publish_locked(std::uint64_t key, const std::shared_ptr<Cell>& cell,
                      const TreePtr& tree);
  /// Must hold mu_. Account snapshots entering (+) or leaving (−) the map
  /// and mirror the gauges.
  void snapshots_changed_locked(std::int64_t count_delta,
                                std::int64_t bytes_delta);
  /// Must hold mu_. Increment a statistic and its telemetry mirror.
  static void count(std::uint64_t& stat, obs::Counter* counter);

  void return_workspace(std::unique_ptr<DijkstraWorkspace> workspace) noexcept;

  const Graph* g_;

  mutable std::mutex mu_;  ///< guards everything below up to pool_mu_
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t lru_tick_ = 0;
  Stats stats_;
  std::uint64_t snapshot_count_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
  // Telemetry handles, cached at attach time (registry lookups off the
  // hot path); obs instruments are not thread-safe, so they are bumped
  // under mu_ like the statistics they mirror.
  obs::Counter* c_lookups_ = nullptr;
  obs::Counter* c_hit_ = nullptr;
  obs::Counter* c_miss_ = nullptr;
  obs::Counter* c_fallback_ = nullptr;
  obs::Gauge* g_snapshot_count_ = nullptr;
  obs::Gauge* g_snapshot_bytes_ = nullptr;

  std::mutex pool_mu_;
  std::vector<std::unique_ptr<DijkstraWorkspace>> workspace_pool_;

  // Region trees: written once inside regions_once_, read-only after.
  std::once_flag regions_once_;
  std::vector<Region> regions_;
  std::vector<Step> steps_;
};

/// Incrementally refreshed nearest-target detour search, the shared
/// mechanism behind repair_session's nearest-first repair loop.
///
/// compute() runs one absorbing search from `origin` (targets absorb, so
/// the path it yields crosses no target before its endpoint — exactly the
/// new links a restoration graft brings in) and stops when it settles its
/// first target: the heap pops in (dist, id) order, so that is the nearest
/// reachable target, ties to the lowest id. The search skips the dead ends
/// `marks` leave uncovered and keeps only the labels it made, so it costs
/// the region it explored rather than the graph. As the target set grows
/// monotonically — each applied repair pulls grafted nodes back on-tree —
/// add_targets() updates the answer against the delta in
/// O(|delta| log region): the snapshot stays exact because any origin→x
/// path invalidated by the growth crosses an added node strictly earlier
/// on the path, which the delta scan also considers, and every node that
/// could beat the current best was settled before the stop (DESIGN.md
/// §17).
class DetourSearch {
 public:
  /// Fresh absorbing search over `g`, run in `workspace`; `targets` flags
  /// the absorbing set (sized to the node count). `marks` must cover
  /// `origin` and every node that is or may later be added as a target,
  /// and must outlive the search's add_targets() calls; they may be the
  /// workspace's own dead_end_marks(), so one workspace serves a repair.
  void compute(const Graph& g, DijkstraWorkspace& workspace, NodeId origin,
               const std::vector<char>& targets, const ExclusionSet& excluded,
               const DeadEndMarks& marks);

  /// The target set grew by `added` (already flagged by the caller).
  /// Throws std::logic_error for a node the marks do not cover: the
  /// search never looked there, so it cannot rank it.
  void add_targets(const std::vector<NodeId>& added);

  [[nodiscard]] bool found() const noexcept { return best_ != kNoNode; }
  [[nodiscard]] NodeId best_target() const noexcept { return best_; }
  /// Length and hop count of the detour to best_target(), its node
  /// sequence origin → … → best_target(), and the links along it in the
  /// same order. Require found().
  [[nodiscard]] double distance() const;
  [[nodiscard]] int hops() const;
  [[nodiscard]] std::vector<NodeId> path() const;
  [[nodiscard]] std::vector<LinkId> links() const;

 private:
  struct Label {
    NodeId node = kNoNode;
    NodeId parent = kNoNode;
    LinkId parent_link = kNoLink;  ///< link to `parent`
    std::int32_t hops = -1;
    double dist = kInfinity;
  };

  /// The label of `n`, or null when the search never reached it.
  [[nodiscard]] const Label* find(NodeId n) const noexcept;
  [[nodiscard]] const Label& best_label() const;
  void consider(NodeId target) noexcept;

  std::vector<Label> labels_;  ///< every node the search labelled, by id
  NodeId best_ = kNoNode;
  const DeadEndMarks* marks_ = nullptr;  ///< what compute() pruned by
};

}  // namespace smrp::net
