// Zero-allocation proof for the event core's steady state. This file
// installs a counting global operator new/delete (binary-wide, so the
// counters simply tick in the background for the other suites in this
// binary) and pins the hot paths to zero allocations per event once the
// pools have warmed up:
//   - schedule/cancel/fire timer churn (slab + freelist + 64B SBO actions)
//   - SimNetwork DataMsg dispatch and broadcast (pooled envelopes)
// Its byte counter also guards the multicast tree's footprint: a session
// allocates for its tree, not for the graph under it, and the telemetry
// event log's: a payload event costs its bytes in a shared block, not a
// heap object of its own. A grown tree's leave/graft cycle allocates
// nothing: a mutation touches its path, not the whole tree. Building a
// graph allocates per array and growth step, not per link.
// Under ASan/TSan the allocator is the sanitizer's, so the raw counter
// assertions are skipped there and the pool-stats invariants (no slab
// growth, no SBO overflow) carry the test instead.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "multicast/tree.hpp"
#include "obs/events.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "testing_topologies.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMRP_ALLOC_HOOK_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SMRP_ALLOC_HOOK_ACTIVE 0
#else
#define SMRP_ALLOC_HOOK_ACTIVE 1
#endif
#else
#define SMRP_ALLOC_HOOK_ACTIVE 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

#if SMRP_ALLOC_HOOK_ACTIVE

// The allocating and the freeing replacements are all out of line, so
// once the others are inlined, a pointer still comes from operator new and
// goes to operator delete, never from the malloc() inside the one to the
// free() inside the other (GCC's -Wmismatched-new-delete flags either
// mixed pairing at -O3).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

#endif  // SMRP_ALLOC_HOOK_ACTIVE

namespace smrp::sim {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

TEST(AllocHook, SteadyStateTimerChurnAllocatesNothing) {
  Simulator s;
  // Warm-up: reach the peak concurrent-event footprint so the slab,
  // freelist, and the ready/far heap storage are all at capacity.
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const EventId keep = s.schedule(0.25 + (i % 7) * 0.5, [] {});
      const EventId drop = s.schedule(2000.0 + i, [] {});  // far heap
      s.schedule(0.1, [&s] { s.schedule(0.2, [] {}); });   // reentrant
      s.cancel(drop);
      s.run_until(s.now() + 1.0);
      (void)keep;
    }
  };
  churn(2000);
  const auto warm = s.pool_stats();

  const std::uint64_t before = allocation_count();
  churn(2000);
  const std::uint64_t after = allocation_count();
  const auto steady = s.pool_stats();

  EXPECT_EQ(steady.slots, warm.slots) << "slab grew after warm-up";
  EXPECT_EQ(steady.heap_actions, 0u) << "an action overflowed the 64B SBO";
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/cancel/fire path allocated";
#else
  (void)before;
  (void)after;
#endif
}

TEST(AllocHook, MessageDispatchAndBroadcastAllocateNothing) {
  net::Graph graph = testing::grid3x3();
  Simulator simulator;
  SimNetwork network(simulator, graph);
  std::uint64_t received = 0;
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    network.set_handler(
        n, [&received](NodeId, const Message&) { ++received; });
  }
  auto flood = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      network.send(0, 1, DataMsg{static_cast<std::uint64_t>(i)});
      network.send(4, 5, DataMsg{static_cast<std::uint64_t>(i)});
      network.broadcast(4, DataMsg{static_cast<std::uint64_t>(i)});
      simulator.run_all();
    }
  };
  flood(500);
  const auto warm_env = network.pool_stats();
  const auto warm_sim = simulator.pool_stats();

  const std::uint64_t before = allocation_count();
  flood(500);
  const std::uint64_t after = allocation_count();

  EXPECT_GT(received, 0u);
  EXPECT_EQ(network.pool_stats().envelopes, warm_env.envelopes)
      << "envelope slab grew after warm-up";
  EXPECT_EQ(simulator.pool_stats().slots, warm_sim.slots);
  EXPECT_EQ(simulator.pool_stats().heap_actions, 0u)
      << "a dispatch closure overflowed the 64B SBO";
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_EQ(after - before, 0u) << "per-hop dispatch allocated";
#else
  (void)before;
  (void)after;
#endif
}

TEST(AllocHook, SessionTreeAllocatesForItsTreeNotTheGraph) {
  // A 1,000,000-node graph with one 10-hop chain from the source. The
  // graph's own storage is paid before the measured window; inside it, a
  // session tree and a 10-hop graft must cost a few records and index
  // cells, not per-graph-node arrays (≈29 MB at this size).
  constexpr NodeId kNodes = 1'000'000;
  constexpr NodeId kHops = 10;
  std::vector<net::Link> links;
  std::vector<net::LinkId> path;  // kHops → … → 0
  for (NodeId n = kHops; n > 0; --n) {
    path.push_back(static_cast<net::LinkId>(links.size()));
    links.push_back({n - 1, n, 1.0});
  }
  const net::Graph graph(kNodes, std::move(links));

  const std::uint64_t before = allocated_bytes();
  {
    mcast::MulticastTree tree(graph, 0);
    tree.graft(kHops, path);
    EXPECT_EQ(tree.on_tree_count(), kHops + 1);
    EXPECT_EQ(tree.member_count(), 1);
  }
  const std::uint64_t after = allocated_bytes();
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_GT(after - before, 0u) << "the hook counted no byte";
  EXPECT_LT(after - before, 16u * 1024u)
      << "a session tree allocated for the whole graph";
#else
  (void)before;
  (void)after;
#endif
}

TEST(AllocHook, TreeMutationsDoNotWalkTheTree) {
  // A star: the source with 3,000 member leaves. Once the tree is grown,
  // a leave releases one leaf record and a re-graft takes it back from
  // the free list, so neither may allocate — nor walk the other 2,999
  // leaves with a scratch stack as wide as the tree.
  constexpr NodeId kLeaves = 3'000;
  // Leaf n's graft is its one spoke link n - 1, prepared before the window.
  std::vector<net::Link> links;
  std::vector<std::array<net::LinkId, 1>> spokes;
  spokes.reserve(kLeaves);
  for (NodeId n = 1; n <= kLeaves; ++n) {
    spokes.push_back({static_cast<net::LinkId>(links.size())});
    links.push_back({n, 0, 1.0});
  }
  const net::Graph graph(kLeaves + 1, std::move(links));
  mcast::MulticastTree tree(graph, 0);
  for (NodeId n = 1; n <= kLeaves; ++n) tree.graft(n, spokes[n - 1]);

  const std::uint64_t before = allocation_count();
  for (std::size_t i = 0; i < 100; ++i) {
    const std::size_t spoke = i * 29 % spokes.size();
    const auto leaf = static_cast<NodeId>(spoke + 1);
    tree.leave(leaf);
    tree.graft(leaf, spokes[spoke]);
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(tree.member_count(), kLeaves);
  ASSERT_NO_THROW(tree.validate());
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_EQ(after - before, 0u) << "a tree mutation allocated";
#else
  (void)before;
  (void)after;
#endif
}

TEST(AllocHook, GraphBuildAllocatesPerGrowthNotPerLink) {
  // 100,000 links on 20,000 nodes (each node to its next five). The
  // constructor sizes its CSR arrays once, checks duplicates against one
  // node-sized stamp array and grows the bridge tree's DFS stacks by
  // doubling, so it allocates per array and growth step, not once per
  // link as a node-based hash index does.
  constexpr NodeId kNodes = 20'000;
  constexpr int kSpan = 5;
  std::vector<net::Link> links;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (int k = 1; k <= kSpan; ++k) {
      links.push_back({n, (n + k) % kNodes, 1.0});
    }
  }

  const std::uint64_t before = allocation_count();
  const net::Graph graph(kNodes, std::move(links));
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(graph.link_count(), kNodes * kSpan);
  EXPECT_EQ(graph.degree(0), 2 * kSpan);
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_GT(after - before, 0u) << "the hook counted no allocation";
  EXPECT_LT(after - before, 100u) << "the graph build allocated per link";
#else
  (void)before;
  (void)after;
#endif
}

TEST(AllocHook, EventLogRecordsIntoBlocksNotPerEventObjects) {
  // The protocol's hottest event: forward{seq, on_tree, from_parent,
  // epoch}, a 48-byte record. 100,000 of them fill about 74 blocks of
  // 64 KiB; a heap object per event would be 100,000 allocations.
  constexpr std::uint64_t kEvents = 100'000;
  obs::EventLog log;
  const obs::EventShape forward =
      log.shape("forward", {"seq", "on_tree", "from_parent", "epoch"});

  const std::uint64_t before = allocation_count();
  const std::uint64_t before_bytes = allocated_bytes();
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    log.record(forward, static_cast<NodeId>(i % 64), 0.5 * i,
               {static_cast<double>(i), 1.0, 0.0, 3.0});
  }
  const std::uint64_t after = allocation_count();
  const std::uint64_t after_bytes = allocated_bytes();

  EXPECT_EQ(log.size(), kEvents);
  EXPECT_EQ(log.count("forward"), kEvents);
#if SMRP_ALLOC_HOOK_ACTIVE
  EXPECT_LT(after - before, 100u) << "the event log allocated per event";
  EXPECT_LE(after_bytes - before_bytes, 64u * kEvents)
      << "an event costs more than 64 B of allocation";
#else
  (void)before;
  (void)after;
  (void)before_bytes;
  (void)after_bytes;
#endif
}

}  // namespace
}  // namespace smrp::sim
