/// \file fig5_fact_multithreading.cpp
/// \brief Regenerates Fig. 5: FACT-phase GFLOP/s when factoring an M×NB
/// panel on a single process, NB = 512, M a range of multiples of NB,
/// with 1..64 CPU cores.
///
/// Two parts:
///  1. the calibrated FactModel at paper scale (the published figure);
///  2. a real measurement of hplx's multi-threaded panel factorization at
///     container scale (small M, small NB) to show the same qualitative
///     behaviour from the actual implementation. On a 1-core container
///     the real part exercises correctness and overhead, not speedup.
///
/// Shape targets (paper): every curve rises with M; larger thread counts
/// win at every M, including the small ones.

#include <cstdio>
#include <iostream>
#include <vector>

#include "comm/world.hpp"
#include "core/pfact.hpp"
#include "sim/fact_model.hpp"
#include "trace/ascii_chart.hpp"
#include "trace/table.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

void model_figure(int nb, long max_mult) {
  using namespace hplx;
  const sim::FactModel fm{sim::NodeModel::crusher().cpu};

  std::vector<int> threads{1, 2, 4, 8, 16, 32, 64};
  std::vector<long> mults;
  for (long m = 1; m <= max_mult; m *= 2) mults.push_back(m);

  std::printf(
      "FIG5 (model): FACT GFLOP/s, M x %d panel, recursive right-looking "
      "(ndiv=2, nbmin=16), single process\n\n",
      nb);
  std::vector<std::string> headers{"M"};
  for (int t : threads) headers.push_back("T=" + std::to_string(t));
  trace::Table table(headers);
  trace::AsciiChart chart(96, 20);
  chart.set_title("FIG5: FACT GFLOP/s vs M (curves: threads 1..64)");
  chart.set_x_label("M (multiples of NB, log spacing)");

  const char glyphs[] = "1248ABCD";
  for (std::size_t ti = 0; ti < threads.size(); ++ti) {
    trace::Series s;
    s.label = "T=" + std::to_string(threads[ti]);
    s.glyph = glyphs[ti];
    for (long mult : mults)
      s.y.push_back(fm.gflops(mult * nb, nb, threads[ti]));
    chart.add(std::move(s));
  }
  for (long mult : mults) {
    table.row().add(mult * nb);
    for (int t : threads) table.add(fm.gflops(mult * nb, nb, t), 1);
  }
  table.print(std::cout);
  std::cout << '\n';
  chart.print(std::cout);
}

void real_measurement(int nb, long max_mult, int max_threads) {
  using namespace hplx;
  std::printf(
      "\nFIG5 (real, container scale): hplx panel_factorize wall GFLOP/s, "
      "NB=%d\n\n",
      nb);
  std::vector<std::string> headers{"M"};
  for (int t = 1; t <= max_threads; t *= 2)
    headers.push_back("T=" + std::to_string(t));
  trace::Table table(headers);
  // One arena for every run, so each timed factorization leases its
  // scratch from warm freelists.
  device::PoolAllocator scratch("fig5-panel");

  for (long mult = 2; mult <= max_mult; mult *= 2) {
    const long m = mult * nb;
    table.row().add(m);
    for (int t = 1; t <= max_threads; t *= 2) {
      // Fresh random panel per run.
      std::vector<double> w(static_cast<std::size_t>(m) * nb);
      std::uint64_t s = 0x2545F4914F6CDD1Dull * (static_cast<std::uint64_t>(m) + t);
      for (auto& v : w) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        v = static_cast<double>(static_cast<std::int64_t>(s)) * 0x1.0p-63;
      }
      std::vector<double> top(static_cast<std::size_t>(nb) * nb);
      std::vector<long> ipiv(static_cast<std::size_t>(nb));
      std::vector<long> glob(static_cast<std::size_t>(m));
      for (long i = 0; i < m; ++i) glob[static_cast<std::size_t>(i)] = i;

      double seconds = 0.0;
      comm::World::run(1, [&](comm::Communicator& comm) {
        core::HplConfig cfg;
        cfg.fact = core::FactVariant::RecursiveRight;
        cfg.rfact_nbmin = 16;
        cfg.rfact_ndiv = 2;
        ThreadTeam team(t);
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
        Timer timer;
        timer.start();
        core::panel_factorize(comm, cfg, team, task);
        seconds = timer.stop();
      });
      const double gflops =
          sim::FactModel::flops(m, nb) / seconds / 1e9;
      table.add(gflops, 2);
    }
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  hplx::Options opt(argc, argv);
  const int nb = static_cast<int>(opt.get_int("nb", 512));
  const long max_mult = opt.get_int("max-mult", 64);
  const int real_nb = static_cast<int>(opt.get_int("real-nb", 64));
  const long real_max_mult = opt.get_int("real-max-mult", 8);
  const int real_threads = static_cast<int>(opt.get_int("real-threads", 4));

  model_figure(nb, max_mult);
  if (!opt.get_bool("skip-real", false)) {
    real_measurement(real_nb, real_max_mult, real_threads);
  }
  return 0;
}
