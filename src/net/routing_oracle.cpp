#include "net/routing_oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace smrp::net {

namespace {

/// Every banned id of an entry is banned in `excluded` too. Combined with
/// an exact size comparison this gives set equality without
/// materialising the request's id list.
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

/// Approximate resident footprint of one snapshot: the four per-node
/// arrays (dist + parent + parent_link + hops).
std::int64_t tree_bytes(const ShortestPathTree& t) noexcept {
  return static_cast<std::int64_t>(t.dist.size()) *
         static_cast<std::int64_t>(sizeof(double) + sizeof(NodeId) +
                                   sizeof(LinkId) + sizeof(std::int32_t));
}

}  // namespace

void RoutingOracle::WorkspaceLease::release() noexcept {
  if (oracle_ != nullptr && workspace_ != nullptr) {
    oracle_->return_workspace(std::move(workspace_));
  }
  oracle_ = nullptr;
}

RoutingOracle::RoutingOracle(const Graph& g) : g_(&g) {}

void RoutingOracle::count(std::uint64_t& stat, obs::Counter* counter) {
  ++stat;
  if (counter != nullptr) counter->add(1);
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

  const std::uint64_t key = cache_key(source, excluded.signature());
  bool counted = false;
  for (;;) {
    std::shared_ptr<Cell> cell;
    bool mine = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!counted) {
        count(stats_.lookups, c_lookups_);
        counted = true;
      }
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.source == source &&
          entry_matches(it->second, excluded)) {
        it->second.last_used = ++lru_tick_;
        if (it->second.tree != nullptr) {
          count(stats_.cache_hits, c_hit_);
          return it->second.tree;
        }
        cell = it->second.cell;  // in flight: wait outside the lock
      } else {
        // Miss: register the in-flight cell so concurrent lookups of the
        // same key wait for this computation instead of duplicating it.
        // A colliding entry under the same key is replaced.
        if (it != entries_.end() && it->second.tree != nullptr) {
          snapshots_changed_locked(-1, -tree_bytes(*it->second.tree));
        }
        cell = std::make_shared<Cell>();
        mine = true;
        count(stats_.cache_misses, c_miss_);
        Entry& entry = entries_[key];
        entry.source = source;
        entry.banned_nodes = excluded.banned_nodes();
        entry.banned_links = excluded.banned_links();
        entry.tree = nullptr;
        entry.cell = cell;
        entry.last_used = ++lru_tick_;
      }
    }

    if (!mine) {
      std::unique_lock<std::mutex> cell_lock(cell->mu);
      cell->cv.wait(cell_lock,
                    [&cell] { return cell->tree != nullptr || cell->failed; });
      if (cell->failed) continue;  // winner threw; retry the lookup
      TreePtr tree = cell->tree;
      cell_lock.unlock();
      // Served the winner's snapshot without running Dijkstra: a hit.
      std::lock_guard<std::mutex> lock(mu_);
      count(stats_.cache_hits, c_hit_);
      return tree;
    }

    // This thread won the key: compute outside the oracle's lock.
    TreePtr tree;
    try {
      tree = full_run(source, excluded);
    } catch (...) {
      {
        std::lock_guard<std::mutex> cell_lock(cell->mu);
        cell->failed = true;
      }
      cell->cv.notify_all();
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.cell == cell) entries_.erase(it);
      throw;
    }

    // Publish to waiters first (they only need the bytes), then to the
    // map (where a colliding key may meanwhile have replaced the entry —
    // then the snapshot is simply not cached, never wrong).
    {
      std::lock_guard<std::mutex> cell_lock(cell->mu);
      cell->tree = tree;
    }
    cell->cv.notify_all();
    std::lock_guard<std::mutex> lock(mu_);
    count(stats_.full_runs, c_fallback_);
    publish_locked(key, cell, tree);
    return tree;
  }
}

void RoutingOracle::publish_locked(std::uint64_t key,
                                   const std::shared_ptr<Cell>& cell,
                                   const TreePtr& tree) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.cell != cell) return;
  it->second.tree = tree;
  it->second.cell = nullptr;
  it->second.last_used = ++lru_tick_;
  // LRU-evict ready entries beyond kMaxEntries; in-flight entries are
  // never evicted (their winner still holds the cell). The gauges move
  // once, by the net change.
  std::int64_t count_delta = 1;
  std::int64_t bytes_delta = tree_bytes(*tree);
  for (std::uint64_t ready = snapshot_count_ + 1; ready > kMaxEntries;
       --ready) {
    auto victim = entries_.end();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (jt->second.tree == nullptr) continue;
      if (victim == entries_.end() ||
          jt->second.last_used < victim->second.last_used) {
        victim = jt;
      }
    }
    --count_delta;
    bytes_delta -= tree_bytes(*victim->second.tree);
    entries_.erase(victim);
  }
  snapshots_changed_locked(count_delta, bytes_delta);
}

RoutingOracle::TreePtr RoutingOracle::full_run(NodeId source,
                                               const ExclusionSet& excluded) {
  const WorkspaceLease lease = workspace();
  auto fresh = std::make_shared<ShortestPathTree>();
  lease->run_into(*g_, source, excluded, *fresh);
  return fresh;
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

void RoutingOracle::attach_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (telemetry == nullptr) {
    c_lookups_ = c_hit_ = c_miss_ = c_fallback_ = nullptr;
    g_snapshot_count_ = g_snapshot_bytes_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = telemetry->metrics;
  c_lookups_ = &m.counter("smrp.routing.lookups");
  c_hit_ = &m.counter("smrp.routing.cache_hit");
  c_miss_ = &m.counter("smrp.routing.cache_miss");
  c_fallback_ = &m.counter("smrp.routing.cache_fallback");
  g_snapshot_count_ = &m.gauge("smrp.routing.snapshot_count");
  g_snapshot_bytes_ = &m.gauge("smrp.routing.snapshot_bytes");
  g_snapshot_count_->set(static_cast<double>(snapshot_count_));
  g_snapshot_bytes_->set(static_cast<double>(snapshot_bytes_));
}

RoutingOracle::Stats RoutingOracle::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t RoutingOracle::snapshot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_count_;
}

std::uint64_t RoutingOracle::snapshot_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_bytes_;
}

std::uint64_t RoutingOracle::cache_key(NodeId source,
                                       std::uint64_t signature) noexcept {
  // splitmix64 finalizer over (source, signature); collisions are caught
  // by entry_matches, never trusted.
  std::uint64_t x = signature ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         source)) *
                     0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
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

void RoutingOracle::snapshots_changed_locked(std::int64_t count_delta,
                                             std::int64_t bytes_delta) {
  snapshot_count_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(snapshot_count_) + count_delta);
  snapshot_bytes_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(snapshot_bytes_) + bytes_delta);
  if (g_snapshot_count_ != nullptr) {
    g_snapshot_count_->set(static_cast<double>(snapshot_count_));
  }
  if (g_snapshot_bytes_ != nullptr) {
    g_snapshot_bytes_->set(static_cast<double>(snapshot_bytes_));
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
