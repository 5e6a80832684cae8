#include "net/routing_oracle.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace smrp::net {

namespace {

/// Every banned id of `entry` is banned in `excluded` too. Combined with
/// an exact size comparison this gives set equality (or equality minus a
/// known element) without materialising the request's id list.
bool nodes_subset(const std::vector<NodeId>& ids, const ExclusionSet& excluded) {
  for (const NodeId id : ids) {
    if (!excluded.node_banned(id)) return false;
  }
  return true;
}

bool links_subset(const std::vector<LinkId>& ids, const ExclusionSet& excluded) {
  for (const LinkId id : ids) {
    if (!excluded.link_banned(id)) return false;
  }
  return true;
}

std::size_t round_up_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

void RoutingOracle::WorkspaceLease::release() noexcept {
  if (oracle_ != nullptr && workspace_ != nullptr) {
    oracle_->return_workspace(std::move(workspace_));
  }
  oracle_ = nullptr;
}

RoutingOracle::RoutingOracle(const Graph& g) : RoutingOracle(g, Config{}) {}

RoutingOracle::RoutingOracle(const Graph& g, Config config)
    : g_(&g),
      config_(config),
      recycler_(std::make_shared<TreeRecycler>()) {
  const std::size_t stripes =
      round_up_pow2(std::clamp<std::size_t>(config_.stripes, 1, 256));
  stripe_mask_ = stripes - 1;
  // The entry cap is approximate under striping: each stripe evicts
  // independently at its share of max_entries, with a floor of 8 so an
  // uneven key hash cannot thrash a popular stripe while others sit
  // empty. (Worst-case resident entries is stripes * floor, reached only
  // when every stripe is saturated.)
  stripe_capacity_ =
      std::max<std::size_t>(8, (config_.max_entries + stripes - 1) / stripes);
  stripes_ = std::vector<Stripe>(stripes);
  const std::uint64_t version = g.topology_version();
  seen_version_.store(version, std::memory_order_relaxed);
  for (Stripe& stripe : stripes_) stripe.seen_version = version;
}

void RoutingOracle::bump(std::atomic<std::uint64_t>& stat,
                         obs::Counter* counter) {
  stat.fetch_add(1, std::memory_order_relaxed);
  if (counter != nullptr) {
    // obs::Counter is not thread-safe; serialize the mirror. Detached
    // telemetry (every concurrent bench/driver path) never takes this.
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    counter->add(1);
  }
}

RoutingOracle::TreePtr RoutingOracle::spf(NodeId source) {
  return spf(source, ExclusionSet{});
}

RoutingOracle::TreePtr RoutingOracle::spf(NodeId source,
                                          const ExclusionSet& excluded) {
  // Same preconditions as dijkstra(); checked before anything is counted
  // so a throwing lookup leaves the counters consistent.
  if (!g_->valid_node(source)) throw std::out_of_range("bad source node");
  if (excluded.node_banned(source)) {
    throw std::invalid_argument("source node is banned");
  }

  const auto [version, flush] = current_epoch();
  const std::uint64_t key = cache_key(source, excluded.signature());
  Stripe& home = stripe_of(key);
  bump(n_lookups_, c_lookups_);

  for (;;) {
    std::shared_ptr<Cell> wait_cell;
    std::shared_ptr<Cell> my_cell;
    {
      std::lock_guard<std::mutex> lock(home.mu);
      refresh_stripe_locked(home, version, flush);
      const auto it = home.entries.find(key);
      if (it != home.entries.end() && it->second.source == source &&
          entry_matches(it->second, excluded)) {
        it->second.last_used = ++home.lru_tick;
        if (it->second.tree != nullptr) {
          bump(n_hits_, c_hit_);
          return it->second.tree;
        }
        wait_cell = it->second.cell;  // in flight: wait outside the lock
      } else {
        // Miss: register the in-flight cell so concurrent lookups of the
        // same key wait for this computation instead of duplicating it.
        my_cell = std::make_shared<Cell>();
        Entry entry;
        entry.source = source;
        entry.signature = excluded.signature();
        entry.banned_nodes = excluded.banned_nodes();
        entry.banned_links = excluded.banned_links();
        entry.cell = my_cell;
        entry.last_used = ++home.lru_tick;
        home.entries[key] = std::move(entry);
      }
    }

    if (wait_cell != nullptr) {
      std::unique_lock<std::mutex> cell_lock(wait_cell->mu);
      wait_cell->cv.wait(cell_lock, [&wait_cell] {
        return wait_cell->tree != nullptr || wait_cell->failed;
      });
      if (wait_cell->failed) continue;  // winner threw; retry the lookup
      // Served the winner's snapshot without running Dijkstra: a hit.
      bump(n_hits_, c_hit_);
      return wait_cell->tree;
    }

    // This thread won the key: compute outside every stripe lock.
    bump(n_misses_, c_miss_);
    TreePtr tree;
    bool incremental = false;
    try {
      std::unique_ptr<ComputeScratch> scratch = acquire_scratch();
      if (!excluded.empty()) {
        NodeId extra_node = kNoNode;
        LinkId extra_link = kNoLink;
        const TreePtr base =
            find_base(source, excluded, version, flush, extra_node, extra_link);
        if (base != nullptr) {
          tree = repair(base, excluded, extra_node, extra_link, *scratch);
        }
      }
      if (tree != nullptr) {
        incremental = true;
      } else {
        tree = full_run(source, excluded, *scratch);
      }
      release_scratch(std::move(scratch));
    } catch (...) {
      {
        std::lock_guard<std::mutex> cell_lock(my_cell->mu);
        my_cell->failed = true;
      }
      my_cell->cv.notify_all();
      std::lock_guard<std::mutex> lock(home.mu);
      const auto it = home.entries.find(key);
      if (it != home.entries.end() && it->second.cell == my_cell) {
        home.entries.erase(it);
      }
      throw;
    }
    bump(incremental ? n_incremental_ : n_full_,
         incremental ? c_incremental_ : c_fallback_);

    // Publish to waiters first (they only need the bytes), then to the
    // stripe (which may meanwhile have been flushed or evicted — then the
    // snapshot is simply not cached, never wrong).
    {
      std::lock_guard<std::mutex> cell_lock(my_cell->mu);
      my_cell->tree = tree;
    }
    my_cell->cv.notify_all();

    std::int64_t count_delta = 0;
    std::int64_t bytes_delta = 0;
    {
      std::lock_guard<std::mutex> lock(home.mu);
      const auto it = home.entries.find(key);
      if (it != home.entries.end() && it->second.cell == my_cell) {
        it->second.tree = tree;
        it->second.last_used = ++home.lru_tick;
        count_delta = 1;
        bytes_delta = static_cast<std::int64_t>(tree_bytes(*tree));
        // LRU-evict ready entries beyond the stripe's share of
        // max_entries; in-flight entries are never evicted (their
        // winner still holds the cell).
        std::size_t ready = 0;
        for (const auto& [k, e] : home.entries) {
          if (e.tree != nullptr) ++ready;
        }
        while (ready > stripe_capacity_) {
          auto victim = home.entries.end();
          for (auto jt = home.entries.begin(); jt != home.entries.end();
               ++jt) {
            if (jt->second.tree == nullptr) continue;
            if (victim == home.entries.end() ||
                jt->second.last_used < victim->second.last_used) {
              victim = jt;
            }
          }
          if (victim == home.entries.end()) break;
          --count_delta;
          bytes_delta -= static_cast<std::int64_t>(tree_bytes(*victim->second.tree));
          home.entries.erase(victim);
          --ready;
        }
      }
    }
    if (count_delta != 0 || bytes_delta != 0) {
      snapshots_changed(count_delta, bytes_delta);
    }
    return tree;
  }
}

RoutingOracle::WorkspaceLease RoutingOracle::workspace() {
  std::unique_ptr<DijkstraWorkspace> ws;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!workspace_pool_.empty()) {
      ws = std::move(workspace_pool_.back());
      workspace_pool_.pop_back();
    }
  }
  if (ws == nullptr) ws = std::make_unique<DijkstraWorkspace>();
  return WorkspaceLease(this, std::move(ws));
}

void RoutingOracle::return_workspace(
    std::unique_ptr<DijkstraWorkspace> workspace) noexcept {
  std::lock_guard<std::mutex> lock(pool_mu_);
  // A small cap keeps the pool from pinning memory after a burst of
  // concurrent leases; beyond it the workspace is simply dropped.
  if (workspace_pool_.size() < 32) {
    workspace_pool_.push_back(std::move(workspace));
  }
}

std::unique_ptr<RoutingOracle::ComputeScratch> RoutingOracle::acquire_scratch() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<ComputeScratch> scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<ComputeScratch>();
}

void RoutingOracle::release_scratch(
    std::unique_ptr<ComputeScratch> scratch) noexcept {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (scratch_pool_.size() < 32) scratch_pool_.push_back(std::move(scratch));
}

std::shared_ptr<ShortestPathTree> RoutingOracle::acquire_tree() {
  std::unique_ptr<ShortestPathTree> buffer;
  {
    std::lock_guard<std::mutex> lock(recycler_->mu);
    if (!recycler_->free_list.empty()) {
      buffer = std::move(recycler_->free_list.back());
      recycler_->free_list.pop_back();
    }
  }
  if (buffer == nullptr) buffer = std::make_unique<ShortestPathTree>();
  // The deleter shares ownership of the recycler (not the oracle), so
  // snapshots handed to callers outlive the oracle safely; released
  // buffers keep their vector capacity for the next snapshot.
  const std::shared_ptr<TreeRecycler> recycler = recycler_;
  return std::shared_ptr<ShortestPathTree>(
      buffer.release(), [recycler](ShortestPathTree* t) {
        std::unique_ptr<ShortestPathTree> owned(t);
        std::lock_guard<std::mutex> lock(recycler->mu);
        if (recycler->free_list.size() < 32) {
          recycler->free_list.push_back(std::move(owned));
        }
      });
}

void RoutingOracle::attach_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  if (telemetry == nullptr) {
    c_lookups_ = c_hit_ = c_miss_ = c_incremental_ = c_fallback_ =
        c_invalidations_ = nullptr;
    g_snapshot_count_ = g_snapshot_bytes_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = telemetry->metrics;
  c_lookups_ = &m.counter("smrp.routing.lookups");
  c_hit_ = &m.counter("smrp.routing.cache_hit");
  c_miss_ = &m.counter("smrp.routing.cache_miss");
  c_incremental_ = &m.counter("smrp.routing.cache_incremental");
  c_fallback_ = &m.counter("smrp.routing.cache_fallback");
  c_invalidations_ = &m.counter("smrp.routing.invalidations");
  g_snapshot_count_ = &m.gauge("smrp.routing.snapshot_count");
  g_snapshot_bytes_ = &m.gauge("smrp.routing.snapshot_bytes");
  g_snapshot_count_->set(
      static_cast<double>(snapshot_count_.load(std::memory_order_relaxed)));
  g_snapshot_bytes_->set(
      static_cast<double>(snapshot_bytes_.load(std::memory_order_relaxed)));
}

RoutingOracle::Stats RoutingOracle::stats() const {
  Stats s;
  s.lookups = n_lookups_.load(std::memory_order_relaxed);
  s.cache_hits = n_hits_.load(std::memory_order_relaxed);
  s.cache_misses = n_misses_.load(std::memory_order_relaxed);
  s.incremental_repairs = n_incremental_.load(std::memory_order_relaxed);
  s.full_runs = n_full_.load(std::memory_order_relaxed);
  s.invalidations = n_invalidations_.load(std::memory_order_relaxed);
  return s;
}

void RoutingOracle::invalidate() {
  flush_gen_.fetch_add(1, std::memory_order_acq_rel);
  bump(n_invalidations_, c_invalidations_);
}

std::uint64_t RoutingOracle::cache_key(NodeId source,
                                       std::uint64_t signature) noexcept {
  // splitmix64 finalizer over (source, signature); collisions are caught
  // by entry_matches / entry_is_base, never trusted.
  std::uint64_t x = signature ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         source)) *
                     0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::pair<std::uint64_t, std::uint64_t> RoutingOracle::current_epoch() {
  const std::uint64_t version = g_->topology_version();
  std::uint64_t seen = seen_version_.load(std::memory_order_acquire);
  // Exactly one thread wins the transition and accounts the
  // invalidation; stripes drop their stale entries independently, on
  // their next probe, by comparing against `version` directly.
  while (seen != version) {
    if (seen_version_.compare_exchange_weak(seen, version,
                                            std::memory_order_acq_rel)) {
      bump(n_invalidations_, c_invalidations_);
      break;
    }
  }
  return {version, flush_gen_.load(std::memory_order_acquire)};
}

void RoutingOracle::refresh_stripe_locked(Stripe& stripe,
                                          std::uint64_t version,
                                          std::uint64_t flush) {
  if (stripe.seen_version == version && stripe.seen_flush == flush) return;
  std::int64_t dropped = 0;
  std::int64_t bytes = 0;
  for (const auto& [key, entry] : stripe.entries) {
    if (entry.tree != nullptr) {
      ++dropped;
      bytes += static_cast<std::int64_t>(tree_bytes(*entry.tree));
    }
  }
  stripe.entries.clear();
  stripe.seen_version = version;
  stripe.seen_flush = flush;
  if (dropped != 0) snapshots_changed(-dropped, -bytes);
}

bool RoutingOracle::entry_matches(const Entry& entry,
                                  const ExclusionSet& excluded) {
  return static_cast<int>(entry.banned_nodes.size()) ==
             excluded.banned_node_count() &&
         static_cast<int>(entry.banned_links.size()) ==
             excluded.banned_link_count() &&
         nodes_subset(entry.banned_nodes, excluded) &&
         links_subset(entry.banned_links, excluded);
}

bool RoutingOracle::entry_is_base(const Entry& entry,
                                  const ExclusionSet& excluded,
                                  NodeId extra_node, LinkId extra_link) {
  // Subset + exact sizes + "the extra ban is the one element missing"
  // pins the base set to exactly (request minus the extra ban).
  const int want_nodes =
      excluded.banned_node_count() - (extra_node != kNoNode ? 1 : 0);
  const int want_links =
      excluded.banned_link_count() - (extra_link != kNoLink ? 1 : 0);
  if (static_cast<int>(entry.banned_nodes.size()) != want_nodes ||
      static_cast<int>(entry.banned_links.size()) != want_links) {
    return false;
  }
  if (extra_node != kNoNode &&
      std::binary_search(entry.banned_nodes.begin(), entry.banned_nodes.end(),
                         extra_node)) {
    return false;
  }
  if (extra_link != kNoLink &&
      std::binary_search(entry.banned_links.begin(), entry.banned_links.end(),
                         extra_link)) {
    return false;
  }
  return nodes_subset(entry.banned_nodes, excluded) &&
         links_subset(entry.banned_links, excluded);
}

RoutingOracle::TreePtr RoutingOracle::find_base(
    NodeId source, const ExclusionSet& excluded, std::uint64_t version,
    std::uint64_t flush, NodeId& extra_node, LinkId& extra_link) {
  // One-extra-ban probe: for each banned component, look for a cached
  // (ready) tree computed under this exclusion minus that one ban. Probe
  // order (nodes ascending, then links ascending) is fixed for
  // determinism, though any base yields the identical repaired tree.
  // Takes one stripe lock at a time; in-flight bases are skipped rather
  // than waited on (the full run is cheaper than a convoy).
  for (const NodeId x : excluded.banned_nodes()) {
    const std::uint64_t key =
        cache_key(source, excluded.signature() ^ ExclusionSet::mix_node(x));
    Stripe& stripe = stripe_of(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    refresh_stripe_locked(stripe, version, flush);
    const auto it = stripe.entries.find(key);
    if (it == stripe.entries.end() || it->second.source != source ||
        it->second.tree == nullptr) {
      continue;
    }
    if (!entry_is_base(it->second, excluded, x, kNoLink)) continue;
    it->second.last_used = ++stripe.lru_tick;
    extra_node = x;
    extra_link = kNoLink;
    return it->second.tree;
  }
  for (const LinkId l : excluded.banned_links()) {
    const std::uint64_t key =
        cache_key(source, excluded.signature() ^ ExclusionSet::mix_link(l));
    Stripe& stripe = stripe_of(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    refresh_stripe_locked(stripe, version, flush);
    const auto it = stripe.entries.find(key);
    if (it == stripe.entries.end() || it->second.source != source ||
        it->second.tree == nullptr) {
      continue;
    }
    if (!entry_is_base(it->second, excluded, kNoNode, l)) continue;
    it->second.last_used = ++stripe.lru_tick;
    extra_node = kNoNode;
    extra_link = l;
    return it->second.tree;
  }
  return nullptr;
}

RoutingOracle::TreePtr RoutingOracle::repair(const TreePtr& base,
                                             const ExclusionSet& excluded,
                                             NodeId extra_node,
                                             LinkId extra_link,
                                             ComputeScratch& cs) {
  const ShortestPathTree& b = *base;
  const auto n = static_cast<std::size_t>(g_->node_count());

  // Root of the invalidated region: the node whose parent edge the ban
  // severed (link failure) or the banned node itself. A ban that does not
  // touch the cached tree changes nothing — the base snapshot is shared
  // (by ownership, so it survives eviction of the base entry).
  NodeId root = kNoNode;
  if (extra_node != kNoNode) {
    if (!b.reachable(extra_node)) return base;
    root = extra_node;
  } else {
    const Link& l = g_->link(extra_link);
    if (b.parent_link[static_cast<std::size_t>(l.a)] == extra_link) {
      root = l.a;
    } else if (b.parent_link[static_cast<std::size_t>(l.b)] == extra_link) {
      root = l.b;
    } else {
      return base;
    }
  }

  // Affected set = the parent-pointer subtree under `root`. Every other
  // node provably keeps identical dist/parent/hops: its base path avoids
  // the banned component, a ban can only lengthen distances, and the
  // tie-break winner set only shrinks (so the lex-min winner survives).
  // Memoised parent-chain walk: 0 unknown, 1 affected, 2 unaffected.
  cs.affected_flag.assign(n, 0);
  cs.affected_flag[static_cast<std::size_t>(root)] = 1;
  cs.affected.clear();
  cs.affected.push_back(root);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (cs.affected_flag[static_cast<std::size_t>(v)] != 0) continue;
    cs.walk.clear();
    NodeId cur = v;
    char status = 2;
    while (true) {
      const char f = cs.affected_flag[static_cast<std::size_t>(cur)];
      if (f != 0) {
        status = f;
        break;
      }
      const NodeId p = b.parent[static_cast<std::size_t>(cur)];
      if (p == kNoNode) break;  // the source, or unreachable: unaffected
      cs.walk.push_back(cur);
      cur = p;
    }
    for (const NodeId x : cs.walk) {
      cs.affected_flag[static_cast<std::size_t>(x)] = status;
      if (status == 1) cs.affected.push_back(x);
    }
    if (cs.affected_flag[static_cast<std::size_t>(v)] == 0) {
      cs.affected_flag[static_cast<std::size_t>(v)] = status;  // v had no parent
    }
  }
  if (static_cast<double>(cs.affected.size()) >
      config_.incremental_max_fraction * static_cast<double>(n)) {
    return nullptr;  // region too large: delta costs more than it saves
  }

  std::shared_ptr<ShortestPathTree> fresh = acquire_tree();
  *fresh = b;  // vector assignment reuses the recycled buffer's capacity
  ShortestPathTree& t = *fresh;
  for (const NodeId v : cs.affected) {
    const auto i = static_cast<std::size_t>(v);
    t.dist[i] = kInfinity;
    t.parent[i] = kNoNode;
    t.parent_link[i] = kNoLink;
    t.hops[i] = -1;
  }

  cs.settled.assign(n, 0);
  cs.heap.clear();
  const auto heap_greater = std::greater<std::pair<double, NodeId>>{};
  // The exact relaxation rule of DijkstraWorkspace::run_impl — candidate
  // ordering (dist, hops, predecessor id) — so the repaired region
  // converges to the identical fixpoint a fresh run would produce.
  const auto relax = [&](NodeId from, LinkId link, NodeId to) {
    const auto fu = static_cast<std::size_t>(from);
    const auto tv = static_cast<std::size_t>(to);
    const double candidate = t.dist[fu] + g_->link(link).weight;
    const int candidate_hops = t.hops[fu] + 1;
    const bool better =
        candidate < t.dist[tv] ||
        (candidate == t.dist[tv] &&
         (candidate_hops < t.hops[tv] ||
          (candidate_hops == t.hops[tv] && t.parent[tv] != kNoNode &&
           from < t.parent[tv])));
    if (better) {
      t.dist[tv] = candidate;
      t.parent[tv] = from;
      t.parent_link[tv] = link;
      t.hops[tv] = candidate_hops;
      cs.heap.emplace_back(candidate, to);
      std::push_heap(cs.heap.begin(), cs.heap.end(), heap_greater);
    }
  };

  // Boundary seeding: every unaffected reachable neighbor offers its
  // final distance into the region. Offers a full run would not have made
  // (from nodes settling after the target) carry strictly larger
  // distances and lose the comparison, so the extra offers are harmless.
  for (const NodeId v : cs.affected) {
    if (excluded.node_banned(v)) continue;  // the banned node stays cut off
    for (const Adjacency& adj : g_->neighbors(v)) {
      const auto u = static_cast<std::size_t>(adj.neighbor);
      if (cs.affected_flag[u] == 1) continue;
      if (excluded.link_banned(adj.link) ||
          excluded.node_banned(adj.neighbor)) {
        continue;
      }
      if (t.dist[u] == kInfinity) continue;
      relax(adj.neighbor, adj.link, v);
    }
  }

  // Dijkstra restricted to the affected region.
  while (!cs.heap.empty()) {
    const std::pair<double, NodeId> top = cs.heap.front();
    std::pop_heap(cs.heap.begin(), cs.heap.end(), heap_greater);
    cs.heap.pop_back();
    const auto u = static_cast<std::size_t>(top.second);
    if (cs.settled[u] != 0) continue;
    cs.settled[u] = 1;
    for (const Adjacency& adj : g_->neighbors(top.second)) {
      const auto v = static_cast<std::size_t>(adj.neighbor);
      if (cs.affected_flag[v] != 1 || cs.settled[v] != 0) continue;
      if (excluded.link_banned(adj.link) ||
          excluded.node_banned(adj.neighbor)) {
        continue;
      }
      relax(top.second, adj.link, adj.neighbor);
    }
  }
  return fresh;
}

RoutingOracle::TreePtr RoutingOracle::full_run(NodeId source,
                                               const ExclusionSet& excluded,
                                               ComputeScratch& cs) {
  std::shared_ptr<ShortestPathTree> fresh = acquire_tree();
  cs.ws.run_into(*g_, source, excluded, *fresh);
  return fresh;
}

std::uint64_t RoutingOracle::tree_bytes(const ShortestPathTree& t)
    const noexcept {
  // Approximate resident footprint of one snapshot: the four per-node
  // arrays (dist + parent + parent_link + hops).
  return static_cast<std::uint64_t>(t.dist.size()) *
         (sizeof(double) + sizeof(NodeId) + sizeof(LinkId) +
          sizeof(std::int32_t));
}

void RoutingOracle::snapshots_changed(std::int64_t count_delta,
                                      std::int64_t bytes_delta) {
  const std::uint64_t count =
      snapshot_count_.fetch_add(static_cast<std::uint64_t>(count_delta),
                                std::memory_order_relaxed) +
      static_cast<std::uint64_t>(count_delta);
  const std::uint64_t bytes =
      snapshot_bytes_.fetch_add(static_cast<std::uint64_t>(bytes_delta),
                                std::memory_order_relaxed) +
      static_cast<std::uint64_t>(bytes_delta);
  if (g_snapshot_count_ != nullptr || g_snapshot_bytes_ != nullptr) {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    if (g_snapshot_count_ != nullptr) {
      g_snapshot_count_->set(static_cast<double>(count));
    }
    if (g_snapshot_bytes_ != nullptr) {
      g_snapshot_bytes_->set(static_cast<double>(bytes));
    }
  }
}

void DetourSearch::compute(const Graph& g, DijkstraWorkspace& workspace,
                           NodeId origin, const std::vector<char>& targets,
                           const ExclusionSet& excluded,
                           const DeadEndMarks& marks) {
  marks_ = &marks;
  best_ = workspace.run_to_first_absorbed(g, origin, targets, excluded,
                                          &marks);
  const ShortestPathTree& search = workspace.result();
  labels_.clear();
  for (const NodeId v : workspace.labelled()) {
    const auto i = static_cast<std::size_t>(v);
    labels_.push_back(Label{v, search.parent[i], search.parent_link[i],
                            search.hops[i], search.dist[i]});
  }
  std::sort(labels_.begin(), labels_.end(),
            [](const Label& a, const Label& b) { return a.node < b.node; });
}

void DetourSearch::add_targets(const std::vector<NodeId>& added) {
  for (const NodeId x : added) {
    if (marks_ == nullptr || !marks_->graph()->valid_node(x) ||
        !marks_->covered(x)) {
      throw std::logic_error(
          "DetourSearch::add_targets: target outside the marked region");
    }
    consider(x);
  }
}

const DetourSearch::Label* DetourSearch::find(NodeId n) const noexcept {
  const auto it = std::lower_bound(
      labels_.begin(), labels_.end(), n,
      [](const Label& l, NodeId id) { return l.node < id; });
  return it != labels_.end() && it->node == n ? &*it : nullptr;
}

const DetourSearch::Label& DetourSearch::best_label() const {
  const Label* label = found() ? find(best_) : nullptr;
  if (label == nullptr) throw std::logic_error("detour search found nothing");
  return *label;
}

double DetourSearch::distance() const { return best_label().dist; }

int DetourSearch::hops() const { return best_label().hops; }

std::vector<NodeId> DetourSearch::path() const {
  std::vector<NodeId> out;
  for (const Label* l = &best_label(); l != nullptr; l = find(l->parent)) {
    out.push_back(l->node);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<LinkId> DetourSearch::links() const {
  std::vector<LinkId> out;
  for (const Label* l = &best_label(); l->parent != kNoNode;
       l = find(l->parent)) {
    out.push_back(l->parent_link);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void DetourSearch::consider(NodeId target) noexcept {
  // A node the search labelled but did not settle carries a tentative
  // distance no smaller than its true one, and its true (dist, id) comes
  // after the best's: it never wins, so the tentative value is harmless.
  const Label* label = find(target);
  if (label == nullptr) return;
  const double best_dist = found() ? find(best_)->dist : kInfinity;
  if (label->dist < best_dist ||
      (label->dist == best_dist && target < best_)) {
    best_ = target;
  }
}

}  // namespace smrp::net
