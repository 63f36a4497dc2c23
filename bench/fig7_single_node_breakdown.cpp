/// \file fig7_single_node_breakdown.cpp
/// \brief Regenerates Fig. 7: the per-iteration timing breakdown of a
/// single-node Crusher run (N = 256,000, NB = 512, P×Q = 4×2, 50/50
/// split), from the calibrated schedule replay.
///
/// Shape targets (paper §IV.A):
///  - early regime: per-iteration time == GPU active time (FACT and all
///    MPI entirely hidden), running throughput ≈ 90% of the 4×49 TFLOP/s
///    DGEMM limit (≈175 TFLOPS);
///  - crossover near iteration 250 of 500, where the split-update left
///    section can no longer hide the RS2 communication;
///  - tail: the FACT + MPI + transfer stack is the critical path;
///  - overall ≈153 TFLOPS ≈ 78% of the DGEMM limit.

#include <algorithm>
#include <fstream>
#include <iostream>

#include "sim/scaling.hpp"
#include "trace/ascii_chart.hpp"
#include "trace/table.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace hplx;
  Options opt(argc, argv);

  sim::NodeModel node = sim::NodeModel::crusher();
  sim::ClusterConfig cfg = sim::crusher_config(node, 1);
  cfg.nb = static_cast<int>(opt.get_int("nb", cfg.nb));
  cfg.split_fraction = opt.get_double("split", cfg.split_fraction);
  if (opt.has("n")) cfg.n = opt.get_int("n", cfg.n);
  const int stride = static_cast<int>(opt.get_int("stride", 20));

  const sim::SimResult r = sim::simulate_hpl(node, cfg);

  std::printf(
      "FIG7: per-iteration timing, single Crusher node "
      "(N=%ld NB=%d grid=%dx%d split=%.2f T=%d)\n\n",
      cfg.n, cfg.nb, cfg.p, cfg.q, cfg.split_fraction, cfg.fact_threads);

  trace::Table table({"iter", "total_ms", "gpu_ms", "fact_ms", "mpi_ms",
                      "xfer_ms", "hidden"});
  trace::Table full = table;  // every iteration, for --csv export
  for (std::size_t i = 0; i < r.trace.iterations.size(); ++i) {
    const auto& it = r.trace.iterations[i];
    auto fill = [&](trace::Table& t) {
      t.row()
          .add(static_cast<long>(it.iteration))
          .add(it.total_s * 1e3, 3)
          .add(it.gpu_s * 1e3, 3)
          .add(it.fact_s * 1e3, 3)
          .add(it.mpi_s * 1e3, 3)
          .add(it.transfer_s * 1e3, 3)
          .add(it.hidden(0.05) ? "yes" : "no");
    };
    fill(full);
    if (i % static_cast<std::size_t>(stride) == 0) fill(table);
  }
  table.print(std::cout);
  if (opt.has("csv")) {
    std::ofstream csv(opt.get("csv", "fig7.csv"));
    full.print_csv(csv);
    std::printf("\n(per-iteration CSV written to %s)\n",
                opt.get("csv", "fig7.csv").c_str());
  }

  trace::AsciiChart chart(100, 22);
  chart.set_title("\nFIG7: per-iteration time (T=total, G=gpu-active, S=fact+mpi+xfer stack)");
  chart.set_x_label("iteration");
  trace::Series total{"total iteration time", {}, 'T'};
  trace::Series gpu{"GPU active time", {}, 'G'};
  trace::Series stack{"fact+mpi+transfer stack", {}, 'S'};
  for (const auto& it : r.trace.iterations) {
    total.y.push_back(it.total_s * 1e3);
    gpu.y.push_back(it.gpu_s * 1e3);
    stack.y.push_back((it.fact_s + it.mpi_s + it.transfer_s) * 1e3);
  }
  chart.add(stack);
  chart.add(gpu);
  chart.add(total);
  chart.print(std::cout);

  std::printf("\nSummary (paper values in parentheses):\n");
  std::printf("  overall score               : %8.1f TFLOPS   (153)\n",
              r.gflops / 1e3);
  std::printf("  %% of 4x49 TF DGEMM limit    : %8.1f %%        (78)\n",
              100.0 * r.gflops / 196000.0);
  std::printf("  hidden-regime throughput    : %8.1f TFLOPS   (~175)\n",
              r.hidden_regime_gflops / 1e3);
  std::printf("  crossover iteration         : %8d          (~250 of 500)\n",
              r.trace.crossover_iteration(0.05));
  std::printf("  iterations fully hidden     : %8.1f %%        (~50)\n",
              100.0 * r.trace.hidden_fraction(0.05));
  std::printf("  time with all comm hidden   : %8.1f %%        (~75)\n",
              100.0 * r.trace.hidden_time_fraction(0.05));
  std::printf("  total wall time             : %8.1f s\n", r.seconds);
  return 0;
}
