// RoutingOracle: the shared, topology-versioned shortest-path service
// every SPF consumer in this codebase goes through (DESIGN.md §10, §16).
//
// The paper's core claim is that restoration speed is bounded by how fast
// a surviving path can be found after a persistent failure. Before the
// oracle, thirteen translation units called the free Dijkstra functions
// and recomputed full single-source SPF from scratch on every join,
// reshape, query, and repair — even with the topology unchanged between
// calls. The oracle centralises those searches behind one cache:
//
//  * Plain SPF trees are cached per (source, exclusion signature) as
//    shared immutable snapshots, invalidated wholesale whenever
//    Graph::topology_version() moves.
//  * On the dominant recovery workload — one extra banned link or node
//    on top of an already-cached exclusion — the cached base tree is
//    repaired incrementally (Ramalingam–Reps-style: only the parent
//    subtree hanging off the failed component is recomputed), falling
//    back to a fresh run when the affected region exceeds a size
//    threshold. Repaired trees are bit-identical to fresh runs (the
//    deterministic tie-break makes the (dist, hops, parent) fixpoint
//    independent of relaxation order; a property test asserts equality).
//  * Tree-state-dependent searches (absorbing candidate enumeration,
//    detour searches) are not cacheable; the oracle serves them from a
//    pool of reusable DijkstraWorkspaces instead.
//
// Concurrency (DESIGN.md §16): ONE oracle is meant to be shared by every
// worker thread that routes over the same topology. The snapshot map is
// lock-striped — Config::stripes independent mutexes, striped by the
// splitmix64 cache key of (source, exclusion signature) — so hits are a
// read-mostly probe of one stripe. Concurrent misses on the same key
// compute ONCE: the first thread installs an in-flight cell and computes
// outside any stripe lock; later arrivals wait on that cell and share the
// winner's snapshot (counted as hits — the computation they were spared).
// Because a snapshot is a pure deterministic function of its key, sharing
// the cache across threads cannot change any result byte — only wall
// time, memory, and the hit/full-run split move with the thread count.
// All computation scratch (full runs, incremental repairs) is pooled, so
// concurrent misses on different keys proceed in parallel. Returned trees
// are shared_ptr<const> snapshots that stay valid across invalidation;
// retired snapshot buffers are recycled through a pool that outlives the
// oracle, so churning caches do not churn the allocator.
//
// Cache management is wall-clock free (LRU over a monotone per-stripe
// tick), so runs remain bit-for-bit reproducible at any thread count.
// attach_telemetry must be called before the oracle is shared across
// threads (the usual attach-then-run discipline); the mirrored counter
// bumps themselves are serialized internally and TSan-clean.
#pragma once

#include <atomic>
#include <condition_variable>
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
  struct Config {
    /// Cached SPF trees kept before LRU eviction. Approximate under
    /// striping: the budget splits evenly across the stripes, each of
    /// which evicts independently (with a small per-stripe floor so an
    /// uneven key hash cannot thrash one stripe while others sit empty).
    std::size_t max_entries = 256;
    /// Incremental repair runs only while the invalidated subtree stays
    /// under this fraction of the node count; larger regions full-rerun
    /// (the delta bookkeeping would cost more than it saves).
    double incremental_max_fraction = 0.5;
    /// Lock stripes over the snapshot map (rounded up to a power of
    /// two, clamped to [1, 256]). 64 keeps same-stripe collisions rare
    /// at any realistic worker count while staying cheap to construct.
    std::size_t stripes = 64;
  };

  using TreePtr = std::shared_ptr<const ShortestPathTree>;

  /// Counters mirrored to telemetry (smrp.routing.*). Invariants:
  /// lookups == cache_hits + cache_misses and
  /// cache_misses == incremental_repairs + full_runs. A lookup that
  /// waits on another thread's in-flight computation of the same key
  /// counts as a hit (it was served a shared snapshot, not a Dijkstra
  /// run), so full_runs never exceeds the number of distinct keys
  /// computed — the dedup guarantee the scale bench reports.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t incremental_repairs = 0;  ///< misses served by delta repair
    std::uint64_t full_runs = 0;            ///< misses served by full Dijkstra
    std::uint64_t invalidations = 0;        ///< cache flushes on version bumps

    /// Fold another oracle's (or run's) counters into this one — the one
    /// summation every stats consumer shares (multi-oracle benches, the
    /// eval drivers, telemetry folds).
    Stats& operator+=(const Stats& other) noexcept {
      lookups += other.lookups;
      cache_hits += other.cache_hits;
      cache_misses += other.cache_misses;
      incremental_repairs += other.incremental_repairs;
      full_runs += other.full_runs;
      invalidations += other.invalidations;
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
  RoutingOracle(const Graph& g, Config config);

  /// Shortest-path tree from `source` over the whole graph / avoiding the
  /// banned components. Served from cache when (source, exclusion
  /// signature) was seen under the current topology version; repaired
  /// incrementally when the exclusion is a cached one plus one extra ban;
  /// concurrent misses on the same key are memoized (one computation,
  /// every caller shares the snapshot). Throws like dijkstra() on a bad
  /// or banned source. Safe to call from any number of threads.
  TreePtr spf(NodeId source);
  TreePtr spf(NodeId source, const ExclusionSet& excluded);

  /// Borrow a workspace from the pool (for absorbing/detour searches).
  [[nodiscard]] WorkspaceLease workspace();

  /// Attach (or detach with nullptr) telemetry; the cache counters are
  /// published as smrp.routing.{lookups,cache_hit,cache_miss,
  /// cache_incremental,cache_fallback,invalidations} and the resident
  /// snapshot footprint as the smrp.routing.{snapshot_count,
  /// snapshot_bytes} gauges. Pure observation — results are bit-identical
  /// attached or detached. Call before sharing the oracle across threads.
  void attach_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] Stats stats() const;

  /// Ready snapshots currently cached, and their approximate resident
  /// bytes (per-node storage of every cached tree; shared base trees
  /// cached under several keys count once per entry).
  [[nodiscard]] std::uint64_t snapshot_count() const noexcept {
    return snapshot_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t snapshot_bytes() const noexcept {
    return snapshot_bytes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Drop every cached tree (the version check does this automatically;
  /// exposed for tests). Lazy: each stripe discards its entries on its
  /// next probe, so invalidation never stalls concurrent readers.
  void invalidate();

 private:
  /// Rendezvous for concurrent misses on one key: the winner computes
  /// the snapshot outside all stripe locks and publishes it here; losers
  /// wait on the cell instead of duplicating the Dijkstra run. The cell
  /// is self-contained (own mutex), so a stripe flush mid-computation
  /// strands no waiter — they still receive the winner's tree.
  struct Cell {
    std::mutex mu;
    std::condition_variable cv;
    TreePtr tree;        ///< set exactly once, under mu
    bool failed = false; ///< winner threw; waiters retry the lookup
  };

  struct Entry {
    NodeId source = kNoNode;
    std::uint64_t signature = 0;
    /// Banned ids (ascending) — exact verification against hash collisions
    /// and the base set for one-extra-ban incremental repair.
    std::vector<NodeId> banned_nodes;
    std::vector<LinkId> banned_links;
    TreePtr tree;  ///< null while the cell's computation is in flight
    std::shared_ptr<Cell> cell;
    std::uint64_t last_used = 0;  ///< monotone LRU tick (no wall clock)
  };

  /// One lock stripe of the snapshot map. seen_version / seen_flush lag
  /// the oracle-wide values until the stripe is next probed; a stale
  /// stripe drops its entries before serving anything.
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> entries;
    std::uint64_t seen_version = 0;
    std::uint64_t seen_flush = 0;
    std::uint64_t lru_tick = 0;
  };

  /// Scratch for one cache-miss computation (full run or incremental
  /// repair), leased from a pool so misses on different keys compute
  /// concurrently without allocating.
  struct ComputeScratch {
    DijkstraWorkspace ws;
    std::vector<NodeId> walk;  ///< parent-chain walk buffer
    std::vector<NodeId> affected;
    std::vector<char> affected_flag;
    std::vector<char> settled;
    std::vector<std::pair<double, NodeId>> heap;
  };

  /// Retired-snapshot buffer pool. Shared (not owned) by every snapshot's
  /// deleter, so snapshots handed to callers stay destructible after the
  /// oracle itself is gone; the pool caps its free list so a burst of
  /// evictions cannot pin memory.
  struct TreeRecycler {
    std::mutex mu;
    std::vector<std::unique_ptr<ShortestPathTree>> free_list;
  };

  static std::uint64_t cache_key(NodeId source, std::uint64_t signature) noexcept;

  [[nodiscard]] Stripe& stripe_of(std::uint64_t key) noexcept {
    return stripes_[static_cast<std::size_t>(key) & stripe_mask_];
  }
  /// Must hold stripe.mu. Drop the stripe's entries when the topology
  /// version or flush generation moved since it was last probed.
  void refresh_stripe_locked(Stripe& stripe, std::uint64_t version,
                             std::uint64_t flush);
  /// Detect a topology-version move oracle-wide (bumps `invalidations`
  /// exactly once per transition) and return (version, flush) to probe
  /// stripes with.
  std::pair<std::uint64_t, std::uint64_t> current_epoch();
  /// Entry's ban set equals the request's exactly.
  static bool entry_matches(const Entry& entry, const ExclusionSet& excluded);
  /// Entry's ban set equals the request's minus the one extra ban
  /// (extra_node or extra_link, the other sentinel).
  static bool entry_is_base(const Entry& entry, const ExclusionSet& excluded,
                            NodeId extra_node, LinkId extra_link);
  /// Probe every one-extra-ban base key across the stripes; returns the
  /// base snapshot (and which ban is the extra one) or null. Takes one
  /// stripe lock at a time — never nests them.
  TreePtr find_base(NodeId source, const ExclusionSet& excluded,
                    std::uint64_t version, std::uint64_t flush,
                    NodeId& extra_node, LinkId& extra_link);
  /// Delta-repair `base` for one extra banned component, using leased
  /// scratch only (no oracle locks). Returns null when the affected
  /// region exceeds the threshold (caller falls back to a full run);
  /// returns `base` itself (shared ownership) when the ban does not
  /// touch the cached tree.
  TreePtr repair(const TreePtr& base, const ExclusionSet& excluded,
                 NodeId extra_node, LinkId extra_link, ComputeScratch& scratch);
  /// Full Dijkstra into a recycled snapshot buffer (no oracle locks).
  TreePtr full_run(NodeId source, const ExclusionSet& excluded,
                   ComputeScratch& scratch);

  /// A writable snapshot slot: a recycled buffer when one is pooled, a
  /// fresh allocation otherwise. The returned shared_ptr's deleter hands
  /// the buffer back to recycler_ (capacity intact) on release.
  std::shared_ptr<ShortestPathTree> acquire_tree();

  std::unique_ptr<ComputeScratch> acquire_scratch();
  void release_scratch(std::unique_ptr<ComputeScratch> scratch) noexcept;

  void return_workspace(std::unique_ptr<DijkstraWorkspace> workspace) noexcept;

  /// Approximate resident bytes of one cached snapshot.
  [[nodiscard]] std::uint64_t tree_bytes(const ShortestPathTree& t)
      const noexcept;
  /// Account one published/evicted snapshot and mirror the gauges.
  void snapshots_changed(std::int64_t count_delta, std::int64_t bytes_delta);

  void bump(std::atomic<std::uint64_t>& stat, obs::Counter* counter);

  const Graph* g_;
  Config config_;
  std::size_t stripe_mask_ = 0;
  std::size_t stripe_capacity_ = 0;  ///< max ready entries per stripe

  std::vector<Stripe> stripes_;
  std::atomic<std::uint64_t> seen_version_{0};  ///< last observed topology
  std::atomic<std::uint64_t> flush_gen_{0};     ///< manual invalidate() epoch

  std::mutex pool_mu_;
  std::vector<std::unique_ptr<DijkstraWorkspace>> workspace_pool_;
  std::vector<std::unique_ptr<ComputeScratch>> scratch_pool_;
  std::shared_ptr<TreeRecycler> recycler_;

  // Stats: relaxed atomics — hot-path increments never contend a lock.
  std::atomic<std::uint64_t> n_lookups_{0};
  std::atomic<std::uint64_t> n_hits_{0};
  std::atomic<std::uint64_t> n_misses_{0};
  std::atomic<std::uint64_t> n_incremental_{0};
  std::atomic<std::uint64_t> n_full_{0};
  std::atomic<std::uint64_t> n_invalidations_{0};
  std::atomic<std::uint64_t> snapshot_count_{0};
  std::atomic<std::uint64_t> snapshot_bytes_{0};

  // Telemetry handles, cached at attach time (registry lookups off the
  // hot path). obs instruments are not thread-safe, so mirrored bumps
  // serialize on telemetry_mu_ — only taken when telemetry is attached.
  std::mutex telemetry_mu_;
  obs::Counter* c_lookups_ = nullptr;
  obs::Counter* c_hit_ = nullptr;
  obs::Counter* c_miss_ = nullptr;
  obs::Counter* c_incremental_ = nullptr;
  obs::Counter* c_fallback_ = nullptr;
  obs::Counter* c_invalidations_ = nullptr;
  obs::Gauge* g_snapshot_count_ = nullptr;
  obs::Gauge* g_snapshot_bytes_ = nullptr;
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
