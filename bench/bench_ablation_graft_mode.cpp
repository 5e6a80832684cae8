// Ablation of the candidate-graft reading of footnote 4 (see
// smrp::proto::GraftMode): plain shortest-path grafts with first-hit merge
// validation vs tree-avoiding grafts that maximise the candidate set (the
// default, SmrpConfig::graft_mode).
#include <iostream>

#include "bench_scenario.hpp"

int main(int argc, char** argv) {
  using namespace smrp;
  bench::Runner runner(argc, argv, "ablation-graft-mode",
                       "First-hit vs tree-avoiding candidate grafts (N=100, "
                       "N_G=30, alpha=0.2, D_thresh=0.3)",
                       /*default_trials=*/100);
  runner.config().set("node_count", 100);
  runner.config().set("group_size", 30);
  runner.config().set("alpha", 0.2);
  runner.config().set("d_thresh", 0.3);
  runner.config().set("sweep", "graft_mode={avoid-tree,first-hit}");

  const auto label = [](proto::GraftMode mode) {
    return mode == proto::GraftMode::kAvoidTree ? "avoid-tree" : "first-hit";
  };
  const proto::GraftMode kModes[] = {proto::GraftMode::kAvoidTree,
                                     proto::GraftMode::kFirstHit};

  const eval::EngineResult& res =
      runner.run([&](eval::TrialContext& ctx) {
        for (const auto mode : kModes) {
          eval::ScenarioParams params;
          params.smrp.d_thresh = 0.3;
          params.smrp.graft_mode = mode;
          bench::run_sweep_point(ctx, params,
                                 std::string("graft=") + label(mode));
        }
      });

  eval::Table table({"graft mode", "RD_rel weight", "RD_rel links",
                     "Delay_rel", "Cost_rel"});
  for (const auto mode : kModes) {
    const std::string prefix = std::string("graft=") + label(mode);
    const eval::Summary rd = res.summary(prefix + "/rd_rel_weight");
    const eval::Summary rd_hops = res.summary(prefix + "/rd_rel_hops");
    const eval::Summary delay = res.summary(prefix + "/delay_rel");
    const eval::Summary cost = res.summary(prefix + "/cost_rel");
    table.add_row(
        {mode == proto::GraftMode::kAvoidTree ? "avoid-tree (default)"
                                              : "first-hit",
         eval::Table::percent_with_ci(rd.mean, rd.ci95_half),
         eval::Table::percent_with_ci(rd_hops.mean, rd_hops.ci95_half),
         eval::Table::percent_with_ci(delay.mean, delay.ci95_half),
         eval::Table::percent_with_ci(cost.mean, cost.ci95_half)});
  }
  std::cout << table.render()
            << "\navoid-tree enlarges the candidate set: more dispersal, "
               "more RD gain, more cost/delay penalty.\n\n";
  return 0;
}
