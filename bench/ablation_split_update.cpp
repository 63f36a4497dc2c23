/// \file ablation_split_update.cpp
/// \brief T-HIDE / §III.C ablation: sweep the split fraction on the
/// single-node configuration and report score + hidden-communication
/// metrics.
///
/// Shape targets (paper): ~50/50 split is optimal on a single node; with
/// it, all MPI communication is hidden by UPDATE for ≈75% of the execution
/// time, and ≈50% of the iterations are fully hidden. A split of 0
/// degenerates to plain look-ahead (RS exposed every iteration).

#include <iostream>

#include "sim/scaling.hpp"
#include "trace/table.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace hplx;
  Options opt(argc, argv);

  const sim::NodeModel node = sim::NodeModel::crusher();
  sim::ClusterConfig base = sim::crusher_config(node, 1);
  if (opt.has("n")) base.n = opt.get_int("n", base.n);

  std::printf(
      "A-SPLIT: split-fraction sweep, single node (N=%ld NB=%d %dx%d)\n\n",
      base.n, base.nb, base.p, base.q);
  trace::Table table({"split", "score_TF", "hidden_iters_%", "hidden_time_%",
                      "crossover_iter"});

  double best_score = 0.0, best_split = -1.0;
  for (double split : {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}) {
    sim::ClusterConfig cfg = base;
    cfg.split_fraction = split;
    const sim::SimResult r = sim::simulate_hpl(node, cfg);
    table.row()
        .add(split, 3)
        .add(r.gflops / 1e3, 1)
        .add(100.0 * r.trace.hidden_fraction(0.05), 1)
        .add(100.0 * r.trace.hidden_time_fraction(0.05), 1)
        .add(static_cast<long>(r.trace.crossover_iteration(0.05)));
    if (r.gflops > best_score) {
      best_score = r.gflops;
      best_split = split;
    }
  }
  table.print(std::cout);
  std::printf(
      "\nBest split: %.3f at %.1f TFLOPS  (paper: 50-50 split optimal on a "
      "single node; ~75%% of time with all comm hidden)\n",
      best_split, best_score / 1e3);
  return 0;
}
