#include "multicast/dot_export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "net/paths.hpp"
#include "testing_topologies.hpp"

namespace smrp::mcast {
namespace {

using testing::Fig1Topology;

MulticastTree fig1_tree(const Fig1Topology& fig) {
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A}));
  return tree;
}

TEST(DotExport, GraphContainsEveryNodeAndLink) {
  const Fig1Topology fig;
  std::ostringstream out;
  to_dot(fig.graph, out);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph smrp {"), std::string::npos);
  for (int n = 0; n < 5; ++n) {
    EXPECT_NE(dot.find("  " + std::to_string(n) + ";"), std::string::npos);
  }
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("3 -- 4"), std::string::npos);
}

TEST(DotExport, TreeHighlightsRoles) {
  const Fig1Topology fig;
  const std::string dot = to_dot_string(fig1_tree(fig));
  // Source double-circled, members filled green, off-tree grey.
  EXPECT_NE(dot.find("0 [shape=doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("3 [style=filled, fillcolor=\"#a6d854\""),
            std::string::npos);
  EXPECT_NE(dot.find("2 [color=\"#cccccc\""), std::string::npos);
  // Tree links bold; non-tree links grey.
  EXPECT_NE(dot.find("penwidth=2.5"), std::string::npos);
}

TEST(DotExport, CanOmitOffTreeClutter) {
  const Fig1Topology fig;
  DotOptions options;
  options.include_off_tree = false;
  const std::string dot = to_dot_string(fig1_tree(fig), options);
  EXPECT_EQ(dot.find("  2 ["), std::string::npos);  // B omitted
  EXPECT_EQ(dot.find("2 -- 4"), std::string::npos);
}

TEST(DotExport, CanOmitWeights) {
  const Fig1Topology fig;
  DotOptions options;
  options.include_weights = false;
  const std::string dot = to_dot_string(fig1_tree(fig), options);
  EXPECT_EQ(dot.find("label="), std::string::npos);
}

TEST(DotExport, BalancedBraces) {
  const Fig1Topology fig;
  const std::string dot = to_dot_string(fig1_tree(fig));
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
  EXPECT_EQ(dot.back(), '\n');
}

}  // namespace
}  // namespace smrp::mcast
