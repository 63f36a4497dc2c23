/// \file ablation_fact_threads.cpp
/// \brief A-THREADS: how the FACT thread count T propagates to the
/// whole-run score — the motivation of §III.A/§III.B ("to spend the
/// minimal amount of time without the UPDATE phase on the critical path,
/// it is crucial to perform the FACT phase as fast as possible").
///
/// Shape targets: more threads → later crossover out of the hidden regime
/// → higher score, with diminishing returns once FACT is no longer the
/// critical term; T=15 (the 4×2 sharing value) captures most of the win.

#include <iostream>

#include "sim/scaling.hpp"
#include "trace/table.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace hplx;
  Options opt(argc, argv);

  const sim::NodeModel node = sim::NodeModel::crusher();
  sim::ClusterConfig base = sim::crusher_config(node, 1);

  std::printf(
      "A-THREADS: FACT thread count vs single-node score (N=%ld NB=%d "
      "%dx%d)\n\n",
      base.n, base.nb, base.p, base.q);
  trace::Table table({"T", "fact_ms_at_start", "score_TF", "crossover_iter",
                      "hidden_time_%"});
  const sim::FactModel fm(node.cpu);
  double prev = 0.0;
  for (int t : {1, 2, 4, 8, 15, 29, 57}) {
    sim::ClusterConfig cfg = base;
    cfg.fact_threads = t;
    const sim::SimResult r = sim::simulate_hpl(node, cfg);
    table.row()
        .add(static_cast<long>(t))
        .add(fm.seconds(base.n / base.p, base.nb, t) * 1e3, 1)
        .add(r.gflops / 1e3, 1)
        .add(static_cast<long>(r.trace.crossover_iteration(0.05)))
        .add(100.0 * r.trace.hidden_time_fraction(0.05), 1);
    prev = r.gflops;
  }
  (void)prev;
  table.print(std::cout);
  std::printf(
      "\nShape: the score saturates once FACT fits under UPDATE2 for the "
      "whole split regime — the paper's reason for time-sharing cores "
      "instead of settling for the naive 8-per-rank partition.\n");
  return 0;
}
