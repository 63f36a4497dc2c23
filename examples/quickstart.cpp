/// \file quickstart.cpp
/// \brief Minimal hplx usage: solve a random N×N system on a P×Q grid of
/// thread-backed ranks with all of the paper's optimizations on, then
/// check the HPL residual.
///
///   ./quickstart --n=256 --nb=32 --p=2 --q=2 --threads=2
///   ./quickstart --n=512 --nb=64 --p=1 --q=1 --streams=4   # banded update
///
/// Every rank manages one simulated accelerator (as every rocHPL rank
/// manages one GCD); the matrix lives in "HBM", panels hop to the CPU for
/// the multi-threaded factorization, and the split-update pipeline hides
/// communication behind trailing updates.

#include <cstdio>
#include <iostream>

#include "comm/world.hpp"
#include "core/driver.hpp"
#include "core/report.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace hplx;
  Options opt(argc, argv);

  core::HplConfig cfg;
  cfg.n = opt.get_int("n", 256);
  cfg.nb = static_cast<int>(opt.get_int("nb", 32));
  cfg.p = static_cast<int>(opt.get_int("p", 2));
  cfg.q = static_cast<int>(opt.get_int("q", 2));
  cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
  cfg.fact_threads = static_cast<int>(opt.get_int("threads", 2));
  cfg.split_fraction = opt.get_double("split", 0.5);
  cfg.update_streams = static_cast<int>(opt.get_int("streams", 1));
  cfg.pipeline = core::PipelineMode::LookaheadSplit;

  std::printf("hplx quickstart: N=%ld NB=%d grid=%dx%d threads=%d\n", cfg.n,
              cfg.nb, cfg.p, cfg.q, cfg.fact_threads);

  core::HplResult result;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    core::HplResult r = core::run_hpl(world, cfg);
    if (world.rank() == 0) result = std::move(r);
  });

  std::printf(
      "\nsolved in %.3f s (%.2f wall GFLOP/s at container scale)\n"
      "residual ||Ax-b|| / (eps*(||A||*||x||+||b||)*N) = %.6f  -> %s\n",
      result.seconds, result.gflops, result.verify.residual,
      result.verify.passed ? "PASSED" : "FAILED");
  core::print_phase_breakdown(std::cout, result);
  return result.verify.passed ? 0 : 1;
}
