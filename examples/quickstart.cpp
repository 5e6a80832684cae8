// Quickstart: build an SMRP multicast tree on the paper's Figure-1
// topology, break the worst-case link, and recover via local detour —
// the whole public API in ~80 lines.
//
//   $ ./build/examples/quickstart
//   $ ./build/examples/quickstart --dot | dot -Tsvg > tree.svg
#include <cstring>
#include <iostream>

#include "multicast/dot_export.hpp"
#include "multicast/metrics.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"

int main(int argc, char** argv) {
  const bool dot_mode = argc > 1 && std::strcmp(argv[1], "--dot") == 0;
  using namespace smrp;

  // The 5-node network of the paper's Figure 1 (S=0, A=1, B=2, C=3, D=4).
  const net::Graph g(5, {{0, 1, 1.0},    // S–A
                         {0, 2, 1.0},    // S–B
                         {1, 3, 1.0},    // A–C
                         {1, 4, 1.0},    // A–D
                         {2, 4, 2.0},    // B–D
                         {3, 4, 2.0}});  // C–D
  const net::LinkId l_ad = *g.link_between(1, 4);

  // 1. Build the multicast tree with SMRP (D_thresh = 0.3 by default).
  proto::SmrpTreeBuilder smrp(g, /*source=*/0);
  smrp.join(3);  // C
  smrp.join(4);  // D
  if (dot_mode) {
    mcast::to_dot(smrp.tree(), std::cout);
    return 0;
  }
  std::cout << "SMRP tree after C and D joined:\n";
  for (const net::NodeId m : smrp.tree().members()) {
    std::cout << "  member " << m << ": path";
    for (const net::NodeId hop : smrp.tree().path_to_source(m)) {
      std::cout << " " << hop;
    }
    std::cout << "  (delay " << smrp.tree().delay_to_source(m)
              << ", SHR " << smrp.tree().shr(m) << ")\n";
  }
  const mcast::TreeMetrics metrics = mcast::measure(smrp.tree());
  std::cout << "  tree cost " << metrics.total_cost << ", max link sharing "
            << metrics.max_link_sharing << "\n\n";

  // 2. A persistent failure hits D's on-tree link.
  std::cout << "link A-D fails...\n";
  const proto::RecoveryOutcome local =
      proto::local_detour_recovery(g, smrp.tree(), /*member=*/4, l_ad);
  const proto::RecoveryOutcome global =
      proto::global_detour_recovery(g, smrp.tree(), /*member=*/4, l_ad);
  std::cout << "  local detour:  reattach at " << local.reattach_node
            << ", recovery distance " << local.recovery_distance << " ("
            << local.recovery_hops << " new link(s))\n";
  std::cout << "  global detour: reattach at " << global.reattach_node
            << ", recovery distance " << global.recovery_distance << " ("
            << global.recovery_hops << " new link(s))\n\n";

  // 3. Apply the local repair and verify the tree is healthy again.
  mcast::MulticastTree repaired = smrp.tree();
  repaired.sever(l_ad);
  proto::apply_recovery(repaired, local);
  repaired.validate();
  std::cout << "repaired: member 4 now reaches the source via";
  for (const net::NodeId hop : repaired.path_to_source(4)) {
    std::cout << " " << hop;
  }
  std::cout << " (delay " << repaired.delay_to_source(4) << ")\n";
  return 0;
}
