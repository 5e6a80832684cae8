// Scale-limit audit (DESIGN.md §14): the widened-arithmetic guards that
// keep 32-bit NodeId/LinkId math from wrapping at 100k-node scale, plus a
// bulk-construction soak on the largest graph the CI tier can afford.
// Sanitizer builds (ASan/UBSan/TSan) run the same code on a reduced node
// count — the instrumentation slows allocation ~10x, and the guards are
// size-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "multicast/tree.hpp"
#include "net/graph.hpp"
#include "net/routing_oracle.hpp"
#include "net/transit_stub.hpp"
#include "spf/spf_tree_builder.hpp"

namespace smrp::net {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kScaleNodes = 30'000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int kScaleNodes = 30'000;
#else
constexpr int kScaleNodes = 150'000;
#endif
#else
constexpr int kScaleNodes = 150'000;
#endif

/// Ring + long chords: connected, sparse, deterministic, and big.
std::vector<Link> ring_with_chords(int n) {
  std::vector<Link> links;
  links.reserve(static_cast<std::size_t>(n) + static_cast<std::size_t>(n) / 97);
  for (int i = 0; i < n; ++i) {
    links.push_back(Link{static_cast<NodeId>(i),
                         static_cast<NodeId>((i + 1) % n), 1.0});
  }
  for (int i = 0; i + n / 2 < n; i += 97) {
    links.push_back(Link{static_cast<NodeId>(i),
                         static_cast<NodeId>(i + n / 2), 1.0});
  }
  return links;
}

TEST(ScaleLimits, BulkBuildAndComponentMachineryAtScale) {
  const std::vector<Link> links = ring_with_chords(kScaleNodes);
  const Graph g(kScaleNodes, links);
  EXPECT_EQ(g.link_count(), static_cast<LinkId>(links.size()));
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.component_count(), 1);
  EXPECT_EQ(g.reachable_count_from(0), kScaleNodes);
  // Cutting one ring edge must not disconnect (the ring closes around).
  EXPECT_TRUE(g.connected_without(0));
  // CSR adjacency covers every link twice.
  std::size_t half_edges = 0;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    half_edges += g.neighbors(n).size();
  }
  EXPECT_EQ(half_edges, 2 * links.size());
}

TEST(ScaleLimits, SessionOnLargeGraphStaysConsistent) {
  const Graph g(kScaleNodes, ring_with_chords(kScaleNodes));
  RoutingOracle oracle(g);
  baseline::SpfTreeBuilder builder(g, 0, &oracle);
  // Members spread over the whole id range, SHR path sums crossing many
  // thousand hops (the ring's diameter) without wrapping.
  int members = 0;
  for (int i = 1; i < kScaleNodes; i += kScaleNodes / 512) {
    if (builder.join(static_cast<NodeId>(i))) ++members;
  }
  EXPECT_EQ(builder.tree().member_count(), members);
  EXPECT_GT(members, 400);
  ASSERT_NO_THROW(builder.tree().validate());
}

TEST(ScaleLimits, TransitStubRefusesProfilesPastNodeIdRange) {
  TransitStubParams p;
  p.transit_nodes = 100'000;
  p.stubs_per_transit = 1'000;
  p.stub_size = 1'000;  // 10^11 nodes: must throw, not wrap
  Rng rng(1);
  EXPECT_THROW(generate_transit_stub(p, rng), std::overflow_error);
}

}  // namespace
}  // namespace smrp::net
