// Path-level helpers over node sequences: validation, weighing, and the
// links a path traverses. SMRP's join procedure reasons about explicit
// paths, so these helpers are shared across the protocol and the benches.
#pragma once

#include <vector>

#include "net/graph.hpp"
#include "net/shortest_path.hpp"

namespace smrp::net {

/// True iff consecutive nodes are adjacent in `g` and no node repeats.
[[nodiscard]] bool is_simple_path(const Graph& g,
                                  const std::vector<NodeId>& nodes);

/// Sum of link weights along the node sequence. Throws if two consecutive
/// nodes are not adjacent.
[[nodiscard]] double path_weight(const Graph& g,
                                 const std::vector<NodeId>& nodes);

/// The links traversed by the node sequence. Throws on non-adjacent hops.
[[nodiscard]] std::vector<LinkId> path_links(const Graph& g,
                                             const std::vector<NodeId>& nodes);

}  // namespace smrp::net
