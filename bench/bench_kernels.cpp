/// \file bench_kernels.cpp
/// \brief K-KERN: google-benchmark timings of the device data-motion
/// kernels (row gather/scatter, laswp, strided copies) on the
/// column-tiled engine, against the seed's row-outer naive loops. These
/// are the kernels that bound the solver's non-GEMM phases once the
/// trailing update is fast (§III; the Aurora HPL retrospective reports the
/// same shift). Shapes are HPL trailing-window shapes: jb = NB rows by
/// njl >= 2048 columns. Emits BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "bench/gbench_json_main.hpp"
#include "blas/threading.hpp"
#include "device/device.hpp"
#include "device/engine.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"

namespace {

using namespace hplx;

device::Device& bench_device() {
  static device::Device dev("gcd0", 1ull << 31);
  return dev;
}

std::vector<double> random_matrix(long rows, long cols, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(rows) * cols);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (auto& v : a) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    v = static_cast<double>(static_cast<std::int64_t>(s)) * 0x1.0p-63;
  }
  return a;
}

/// HPL-like row lists: jb pivot rows scattered over the local row range.
std::vector<long> scattered_rows(long jb, long m, std::uint64_t seed) {
  std::vector<long> rows(static_cast<std::size_t>(jb));
  std::uint64_t s = seed * 0x2545f4914f6cdd1dull + 99;
  for (long k = 0; k < jb; ++k) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    rows[static_cast<std::size_t>(k)] = static_cast<long>(s % static_cast<std::uint64_t>(m));
  }
  return rows;
}

/// HPL laswp pivots: ipiv[k] >= k, drawn from [k, jb) like a panel's
/// local swap sequence.
std::vector<long> laswp_pivots(long jb, std::uint64_t seed) {
  std::vector<long> ipiv(static_cast<std::size_t>(jb));
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 7;
  for (long k = 0; k < jb; ++k) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    ipiv[static_cast<std::size_t>(k)] =
        k + static_cast<long>(s % static_cast<std::uint64_t>(jb - k));
  }
  return ipiv;
}

// ----------------------------------------------------------------------
// The seed kernels, verbatim (row-outer loops, inner loop striding lda):
// the recorded "before" numbers for the engine comparison.

void naive_row_gather(const double* a, long lda, const std::vector<long>& rows,
                      long n, double* out, long ldo) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const long src_row = rows[r];
    for (long j = 0; j < n; ++j)
      out[static_cast<long>(r) + j * ldo] = a[src_row + j * lda];
  }
}

void naive_row_scatter(double* a, long lda, const std::vector<long>& rows,
                       long n, const double* in, long ldi) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const long dst_row = rows[r];
    for (long j = 0; j < n; ++j)
      a[dst_row + j * lda] = in[static_cast<long>(r) + j * ldi];
  }
}

void naive_laswp(double* a, long lda, long n, const std::vector<long>& ipiv) {
  for (std::size_t k = 0; k < ipiv.size(); ++k) {
    const long other = ipiv[k];
    if (other == static_cast<long>(k)) continue;
    for (long j = 0; j < n; ++j)
      std::swap(a[static_cast<long>(k) + j * lda], a[other + j * lda]);
  }
}

// ----------------------------------------------------------------------

/// Moved bytes for the rate counter (read + write of every element).
void set_mbs(benchmark::State& state, long rows, long cols) {
  state.counters["MB/s"] = benchmark::Counter(
      2.0 * static_cast<double>(rows) * static_cast<double>(cols) *
          sizeof(double) * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}

/// Engine state per benchmark: {tile_cols, threads}. threads > 1 installs
/// a BLAS team for the kernels to lease.
struct EngineGuard {
  explicit EngineGuard(benchmark::State& state)
      : saved(device::engine_config()) {
    device::EngineConfig cfg;
    cfg.tile_cols = state.range(2);
    cfg.threads = 0;
    const int team = static_cast<int>(state.range(3));
    blas::set_num_threads(team);
    device::configure_engine(cfg);
  }
  ~EngineGuard() {
    blas::set_num_threads(1);
    device::configure_engine(saved);
  }
  device::EngineConfig saved;
};

void BM_RowGather(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  EngineGuard guard(state);
  device::Stream s(bench_device());
  auto a = random_matrix(njl + 64, njl, 1);  // lda > rows: realistic window
  const long lda = njl + 64;
  auto rows = scattered_rows(jb, lda, 2);
  std::vector<double> out(static_cast<std::size_t>(jb) * njl);
  for (auto _ : state) {
    device::row_gather(s, a.data(), lda, rows, njl, out.data(), jb);
    s.synchronize();
    benchmark::DoNotOptimize(out.data());
  }
  set_mbs(state, jb, njl);
}

void BM_RowGatherNaive(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  auto a = random_matrix(njl + 64, njl, 1);
  const long lda = njl + 64;
  auto rows = scattered_rows(jb, lda, 2);
  std::vector<double> out(static_cast<std::size_t>(jb) * njl);
  for (auto _ : state) {
    naive_row_gather(a.data(), lda, rows, njl, out.data(), jb);
    benchmark::DoNotOptimize(out.data());
  }
  set_mbs(state, jb, njl);
}

void BM_RowScatter(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  EngineGuard guard(state);
  device::Stream s(bench_device());
  std::vector<double> a(static_cast<std::size_t>(njl + 64) * njl);
  const long lda = njl + 64;
  auto rows = scattered_rows(jb, lda, 8);
  auto in = random_matrix(jb, njl, 9);
  for (auto _ : state) {
    device::row_scatter(s, a.data(), lda, rows, njl, in.data(), jb);
    s.synchronize();
    benchmark::DoNotOptimize(a.data());
  }
  set_mbs(state, jb, njl);
}

void BM_RowScatterNaive(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  std::vector<double> a(static_cast<std::size_t>(njl + 64) * njl);
  const long lda = njl + 64;
  auto rows = scattered_rows(jb, lda, 8);
  auto in = random_matrix(jb, njl, 9);
  for (auto _ : state) {
    naive_row_scatter(a.data(), lda, rows, njl, in.data(), jb);
    benchmark::DoNotOptimize(a.data());
  }
  set_mbs(state, jb, njl);
}

void BM_Laswp(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  EngineGuard guard(state);
  device::Stream s(bench_device());
  auto a = random_matrix(njl + 64, njl, 5);
  const long lda = njl + 64;
  auto ipiv = laswp_pivots(jb, 6);
  for (auto _ : state) {
    device::laswp(s, a.data(), lda, njl, ipiv);
    s.synchronize();
    benchmark::DoNotOptimize(a.data());
  }
  set_mbs(state, jb, njl);
}

void BM_LaswpNaive(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  auto a = random_matrix(njl + 64, njl, 5);
  const long lda = njl + 64;
  auto ipiv = laswp_pivots(jb, 6);
  for (auto _ : state) {
    naive_laswp(a.data(), lda, njl, ipiv);
    benchmark::DoNotOptimize(a.data());
  }
  set_mbs(state, jb, njl);
}

// Args: {jb rows, njl cols, tile_cols, team}. The acceptance shapes are
// jb = NB in {256, 512} and njl in {2048, 4096}; team rows document the
// knob (this container has one core, so they demonstrate determinism).
#define HPL_SHAPES                          \
  Args({256, 2048, 256, 1})                 \
      ->Args({256, 4096, 256, 1})           \
      ->Args({512, 2048, 256, 1})           \
      ->Args({512, 4096, 256, 1})           \
      ->Args({512, 4096, 64, 1})            \
      ->Args({512, 4096, 256, 4})

BENCHMARK(BM_RowGather)->HPL_SHAPES->UseRealTime();
BENCHMARK(BM_RowGatherNaive)->Args({256, 2048, 0, 0})->Args({256, 4096, 0, 0})->Args({512, 2048, 0, 0})->Args({512, 4096, 0, 0});
BENCHMARK(BM_RowScatter)->HPL_SHAPES->UseRealTime();
BENCHMARK(BM_RowScatterNaive)->Args({256, 2048, 0, 0})->Args({256, 4096, 0, 0})->Args({512, 2048, 0, 0})->Args({512, 4096, 0, 0});
BENCHMARK(BM_Laswp)->HPL_SHAPES->UseRealTime();
BENCHMARK(BM_LaswpNaive)->Args({256, 2048, 0, 0})->Args({512, 2048, 0, 0})->Args({512, 4096, 0, 0});

}  // namespace

int main(int argc, char** argv) {
  return hplx::benchutil::run_with_default_json(argc, argv,
                                                "BENCH_kernels.json");
}
