/// \file panel_tuning.cpp
/// \brief Tune the panel factorization the way §III.A describes: compare
/// the unblocked variants against the recursive factorization, sweep the
/// recursion base block (the paper lands on nbmin = 16, ndiv = 2), and
/// sweep thread counts — all on the *real* multi-threaded implementation.
///
///   ./panel_tuning --m=2048 --nb=128 --threads=4

#include <cstdint>
#include <iostream>
#include <vector>

#include "comm/world.hpp"
#include "core/pfact.hpp"
#include "sim/fact_model.hpp"
#include "trace/table.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

using namespace hplx;

double run_once(long m, int nb, core::FactVariant v, int threads, int nbmin,
                int ndiv) {
  std::vector<double> w(static_cast<std::size_t>(m) * nb);
  std::uint64_t s = 0x6a09e667f3bcc909ull;
  for (auto& val : w) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    val = static_cast<double>(static_cast<std::int64_t>(s)) * 0x1.0p-63;
  }
  std::vector<double> top(static_cast<std::size_t>(nb) * nb);
  std::vector<long> ipiv(static_cast<std::size_t>(nb));
  std::vector<long> glob(static_cast<std::size_t>(m));
  for (long i = 0; i < m; ++i) glob[static_cast<std::size_t>(i)] = i;

  // Shared by every run, so each timed factorization leases its scratch
  // from warm freelists.
  static device::PoolAllocator scratch("panel-tuning");
  double seconds = 0.0;
  comm::World::run(1, [&](comm::Communicator& comm) {
    core::HplConfig cfg;
    cfg.fact = v;
    cfg.rfact_nbmin = nbmin;
    cfg.rfact_ndiv = ndiv;
    ThreadTeam team(threads);
    core::PanelTask task;
    task.j = 0;
    task.jb = nb;
    task.w = w.data();
    task.mw = m;
    task.ldw = m;
    task.glob = glob.data();
    task.top = top.data();
    task.ldtop = nb;
    task.ipiv = ipiv.data();
    task.is_curr = true;
    task.tile_rows = nb;
    task.scratch = &scratch;
    Timer t;
    t.start();
    core::panel_factorize(comm, cfg, team, task);
    seconds = t.stop();
  });
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const long m = opt.get_int("m", 2048);
  const int nb = static_cast<int>(opt.get_int("nb", 128));
  const int threads = static_cast<int>(opt.get_int("threads", 4));
  const double flops = sim::FactModel::flops(m, nb);

  std::printf("panel_tuning: real FACT of a %ldx%d panel\n\n", m, nb);

  std::printf("1) Variants (T=%d):\n\n", threads);
  trace::Table variants({"variant", "ms", "GFLOP/s"});
  for (auto v : {core::FactVariant::Left, core::FactVariant::Right,
                 core::FactVariant::Crout, core::FactVariant::RecursiveRight}) {
    const double sec = run_once(m, nb, v, threads, 16, 2);
    variants.row().add(to_string(v)).add(sec * 1e3, 2).add(flops / sec / 1e9, 2);
  }
  variants.print(std::cout);

  std::printf("\n2) Recursion base block nbmin (recursive-right, T=%d; paper: 16):\n\n",
              threads);
  trace::Table bases({"nbmin", "ms"});
  for (int nbmin : {4, 8, 16, 32, 64}) {
    if (nbmin > nb) continue;
    const double sec =
        run_once(m, nb, core::FactVariant::RecursiveRight, threads, nbmin, 2);
    bases.row().add(static_cast<long>(nbmin)).add(sec * 1e3, 2);
  }
  bases.print(std::cout);

  std::printf("\n3) Thread team size (recursive-right, nbmin=16):\n\n");
  trace::Table teams({"T", "ms", "note"});
  for (int t : {1, 2, 4, 8}) {
    const double sec =
        run_once(m, nb, core::FactVariant::RecursiveRight, t, 16, 2);
    teams.row().add(static_cast<long>(t)).add(sec * 1e3, 2).add(
        t == 1 ? "serial baseline" : "");
  }
  teams.print(std::cout);
  std::printf(
      "\nNote: on a single-hardware-core container, thread sweeps measure "
      "overhead, not speedup; see bench/fig5_fact_multithreading for the "
      "calibrated 64-core projection.\n");
  return 0;
}
