// Sorted flat map for small per-agent tables (DESIGN.md §14).
//
// A distributed agent's child table holds a handful of entries (node
// degree-bounded) but there is one per on-tree node per session, so the
// red-black-tree std::map — three pointers plus a color per entry, one
// heap allocation per child — dominated AgentState's footprint at scale.
// This keeps the entries in one contiguous, key-sorted vector: iteration
// order is ascending by key exactly like std::map (the engine's message
// send order, and therefore telemetry byte-determinism, depends on it),
// and lookup is a binary search that in practice beats pointer chasing
// at these sizes.
//
// SmrpTreeBuilder keys its per-member SHR baselines the same way: one
// entry per member instead of one int per graph node.
//
// Deliberately a subset of the std::map interface — just what the agents,
// the tree builder and their tests use. Pointer/iterator stability across
// mutation is NOT provided (vector semantics); no current caller holds
// references across a mutation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace smrp::proto {

template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] iterator find(const Key& key) {
    const iterator it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    const const_iterator it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return find(key) != entries_.end() ? 1 : 0;
  }

  /// std::map semantics: default-constructs the value on first access.
  Value& operator[](const Key& key) {
    iterator it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, value_type{key, Value{}});
    }
    return it->second;
  }

  std::size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }
  iterator erase(iterator pos) { return entries_.erase(pos); }

  void clear() noexcept { entries_.clear(); }

 private:
  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace smrp::proto
