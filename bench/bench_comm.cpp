/// \file bench_comm.cpp
/// \brief K-COMM: google-benchmark timings of the minimpi substrate —
/// point-to-point, pivot-style allreduce, and the row-swap collectives.
/// Each iteration spins up a rank team, so the numbers include thread
/// launch; they track the substrate, not the paper.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/gbench_json_main.hpp"

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace {

using namespace hplx;

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const int reps = 50;
  double hit_rate = 0.0, direct = 0.0;
  for (auto _ : state) {
    comm::World::run(2, [&](comm::Communicator& comm) {
      std::vector<char> buf(bytes);
      for (int r = 0; r < reps; ++r) {
        if (comm.rank() == 0) {
          comm.send_bytes(buf.data(), bytes, 1, 0);
          comm.recv_bytes(buf.data(), bytes, 1, 1);
        } else {
          comm.recv_bytes(buf.data(), bytes, 0, 0);
          comm.send_bytes(buf.data(), bytes, 0, 1);
        }
      }
      if (comm.rank() == 0) {
        const auto s = comm.fabric().allocator().stats();
        hit_rate = s.hit_rate();
        direct = static_cast<double>(comm.fabric().direct_deliveries());
      }
    });
  }
  state.counters["msgs"] = benchmark::Counter(
      2.0 * reps * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["MB/s"] = benchmark::Counter(
      2.0 * reps * static_cast<double>(bytes) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["pool_hit_rate"] = hit_rate;
  state.counters["direct_msgs"] = direct;
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(65536)->Arg(1 << 20);

void BM_PivotAllreduce(benchmark::State& state) {
  // The FACT inner collective: max-loc + 2 rows of NB doubles.
  const int ranks = static_cast<int>(state.range(0));
  const int nb = 512;
  const int reps = 20;
  double hit_rate = 0.0;
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<double> msg(2 * nb + 4, comm.rank());
      for (int r = 0; r < reps; ++r) {
        comm::allreduce_bytes(comm, msg.data(), msg.size() * sizeof(double),
                              [](void* inout, const void* in) {
                                auto* a = static_cast<double*>(inout);
                                const auto* b =
                                    static_cast<const double*>(in);
                                if (b[0] > a[0]) a[0] = b[0];
                              });
      }
      if (comm.rank() == 0) hit_rate = comm.fabric().allocator().stats().hit_rate();
    });
  }
  state.counters["pool_hit_rate"] = hit_rate;
}
BENCHMARK(BM_PivotAllreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_Allgatherv(benchmark::State& state) {
  // The row-swap U assembly: P ranks each contribute NB/P rows.
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t per_rank = static_cast<std::size_t>(state.range(1));
  double hit_rate = 0.0;
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<std::size_t> counts(static_cast<std::size_t>(ranks),
                                      per_rank);
      std::vector<std::size_t> displs(static_cast<std::size_t>(ranks));
      for (int i = 0; i < ranks; ++i)
        displs[static_cast<std::size_t>(i)] = per_rank * static_cast<std::size_t>(i);
      std::vector<char> mine(per_rank, static_cast<char>(comm.rank()));
      std::vector<char> all(per_rank * static_cast<std::size_t>(ranks));
      comm::allgatherv_bytes(comm, mine.data(), counts, displs, all.data());
      benchmark::DoNotOptimize(all.data());
      if (comm.rank() == 0) hit_rate = comm.fabric().allocator().stats().hit_rate();
    });
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(per_rank) * ranks *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["pool_hit_rate"] = hit_rate;
}
BENCHMARK(BM_Allgatherv)->Args({4, 65536})->Args({8, 65536});

void BM_PanelBcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  const auto algo = static_cast<comm::BcastAlgo>(state.range(2));
  double hit_rate = 0.0, direct = 0.0;
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<char> buf(bytes, comm.rank() == 0 ? 1 : 0);
      comm::bcast_bytes(comm, buf.data(), bytes, 0, algo);
      benchmark::DoNotOptimize(buf.data());
      if (comm.rank() == 0) {
        const auto s = comm.fabric().allocator().stats();
        hit_rate = s.hit_rate();
        direct = static_cast<double>(comm.fabric().direct_deliveries());
      }
    });
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()) /
          1e6,
      benchmark::Counter::kIsRate);
  state.counters["pool_hit_rate"] = hit_rate;
  state.counters["direct_msgs"] = direct;
}
BENCHMARK(BM_PanelBcast)
    ->Args({8, 1 << 20, static_cast<long>(comm::BcastAlgo::Binomial)})
    ->Args({8, 1 << 20, static_cast<long>(comm::BcastAlgo::Ring1Mod)})
    ->Args({8, 1 << 20, static_cast<long>(comm::BcastAlgo::Long)});

}  // namespace

int main(int argc, char** argv) {
  return hplx::benchutil::run_with_default_json(argc, argv,
                                                "BENCH_comm.json");
}
