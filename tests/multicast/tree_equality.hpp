// Node-by-node equality of two MulticastTrees over the same graph, for
// tests that assert an operation left a tree exactly as it was.
#pragma once

#include <gtest/gtest.h>

#include "multicast/tree.hpp"

namespace smrp::testing {

inline void expect_same_tree(const mcast::MulticastTree& a,
                             const mcast::MulticastTree& b) {
  ASSERT_EQ(&a.graph(), &b.graph());
  EXPECT_EQ(a.source(), b.source());
  EXPECT_EQ(a.member_count(), b.member_count());
  EXPECT_EQ(a.on_tree_count(), b.on_tree_count());
  for (net::NodeId n = 0; n < a.graph().node_count(); ++n) {
    EXPECT_EQ(a.role(n), b.role(n)) << "node " << n;
    EXPECT_EQ(a.parent(n), b.parent(n)) << "node " << n;
    EXPECT_EQ(a.parent_link(n), b.parent_link(n)) << "node " << n;
    EXPECT_EQ(a.subtree_members(n), b.subtree_members(n)) << "node " << n;
    EXPECT_EQ(a.children(n).to_vector(), b.children(n).to_vector())
        << "node " << n;
    if (a.on_tree(n) && b.on_tree(n)) {
      EXPECT_EQ(a.shr(n), b.shr(n)) << "node " << n;
    }
  }
  EXPECT_EQ(a.tree_links(), b.tree_links());
}

}  // namespace smrp::testing
