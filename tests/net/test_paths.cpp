#include "net/paths.hpp"

#include <gtest/gtest.h>

#include "testing_topologies.hpp"

namespace smrp::net {
namespace {

TEST(PathUtils, WeightSumsLinks) {
  const testing::Fig1Topology fig;
  EXPECT_DOUBLE_EQ(path_weight(fig.graph, {fig.S, fig.A, fig.D}), 2.0);
  EXPECT_DOUBLE_EQ(path_weight(fig.graph, {fig.D, fig.C}), 2.0);
  EXPECT_DOUBLE_EQ(path_weight(fig.graph, {fig.S}), 0.0);
  EXPECT_DOUBLE_EQ(path_weight(fig.graph, {}), 0.0);
}

TEST(PathUtils, WeightRejectsNonAdjacentHop) {
  const testing::Fig1Topology fig;
  EXPECT_THROW(static_cast<void>(path_weight(fig.graph, {fig.S, fig.D})),
               std::invalid_argument);
}

TEST(PathUtils, LinksOfPath) {
  const testing::Fig1Topology fig;
  EXPECT_EQ(path_links(fig.graph, {fig.S, fig.A, fig.C}),
            (std::vector<LinkId>{fig.SA, fig.AC}));
}

TEST(PathUtils, SimplePathValidation) {
  const testing::Fig1Topology fig;
  EXPECT_TRUE(is_simple_path(fig.graph, {fig.S, fig.A, fig.C}));
  EXPECT_FALSE(is_simple_path(fig.graph, {fig.S, fig.A, fig.S}));  // repeat
  EXPECT_FALSE(is_simple_path(fig.graph, {fig.S, fig.D}));  // not adjacent
  EXPECT_TRUE(is_simple_path(fig.graph, {}));
}

}  // namespace
}  // namespace smrp::net
