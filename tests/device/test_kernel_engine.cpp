/// \file test_kernel_engine.cpp
/// \brief Property tests for the column-tiled kernel engine: every
/// row-swap/copy kernel must produce *bitwise identical* results to a
/// naive sequential reference for any tile width and team size, because a
/// tile covers whole columns and each output element is written by exactly
/// one tile. Also checks the end-to-end wiring: run_hpl residuals must not
/// change when HplConfig::swap_tile_cols / kernel_threads change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "blas/threading.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"
#include "device/engine.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"

namespace hplx::device {
namespace {

Device& test_device() {
  static Device dev("gcd_engine", 1ull << 30);
  return dev;
}

/// Restores the process-global engine + team configuration that the tests
/// mutate, so suites sharing the binary see the defaults.
struct EngineState {
  EngineState() : saved(engine_config()) {}
  ~EngineState() {
    configure_engine(saved);
    blas::set_num_threads(1);
  }
  EngineConfig saved;
};

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::vector<double> random_matrix(long rows, long cols, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(rows) * cols);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (auto& v : a)
    v = static_cast<double>(static_cast<std::int64_t>(xorshift(s))) * 0x1.0p-63;
  return a;
}

/// jb *distinct* rows out of [0, m) in shuffled order — the solver's
/// contract for gather/scatter destinations.
std::vector<long> distinct_rows(long jb, long m, std::uint64_t seed) {
  std::vector<long> all(static_cast<std::size_t>(m));
  std::iota(all.begin(), all.end(), 0L);
  std::uint64_t s = seed * 0x2545f4914f6cdd1dull + 5;
  for (long k = 0; k < jb; ++k) {
    const long j =
        k + static_cast<long>(xorshift(s) % static_cast<std::uint64_t>(m - k));
    std::swap(all[static_cast<std::size_t>(k)], all[static_cast<std::size_t>(j)]);
  }
  all.resize(static_cast<std::size_t>(jb));
  return all;
}

template <typename T>
std::vector<T> random_matrix_as(long rows, long cols, std::uint64_t seed) {
  const auto a = random_matrix(rows, cols, seed);
  return std::vector<T>(a.begin(), a.end());
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Naive sequential references: the seed's row-outer loops.

template <typename T>
void ref_row_gather(const T* a, long lda, const std::vector<long>& rows,
                    long n, T* out, long ldo) {
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      out[static_cast<long>(r) + j * ldo] = a[rows[r] + j * lda];
}

template <typename T>
void ref_row_scatter(T* a, long lda, const std::vector<long>& rows, long n,
                     const T* in, long ldi) {
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      a[rows[r] + j * lda] = in[static_cast<long>(r) + j * ldi];
}

void ref_laswp(double* a, long lda, long n, const std::vector<long>& ipiv) {
  for (std::size_t k = 0; k < ipiv.size(); ++k) {
    if (ipiv[k] == static_cast<long>(k)) continue;
    for (long j = 0; j < n; ++j)
      std::swap(a[static_cast<long>(k) + j * lda], a[ipiv[k] + j * lda]);
  }
}

const long kTileSizes[] = {1, 3, 16, 250};
const int kTeamSizes[] = {1, 2, 4};

struct Shape {
  long m, jb, n;
};
const Shape kShapes[] = {{37, 5, 23}, {128, 32, 96}, {301, 64, 257}};

/// Gather and scatter against the references for one element type, at
/// two wire leading dimensions: ld = nr, the packed wire that
/// pack_rows_cm/unpack_rows_cm use, and ld > nr, a strided buffer whose
/// padding rows the gather must leave alone.
template <typename T>
void expect_gather_scatter_match_naive() {
  for (const Shape& sh : kShapes) {
    const long lda = sh.m + 3;
    const auto a0 = random_matrix_as<T>(lda, sh.n, 11 * sh.m);
    const auto rows = distinct_rows(sh.jb, sh.m, 13 * sh.jb);
    for (long ldw : {sh.jb, sh.jb + 2}) {
      const auto wire0 = random_matrix_as<T>(ldw, sh.n, 17 * sh.n);
      const std::size_t wire_size = static_cast<std::size_t>(ldw) * sh.n;
      std::vector<T> want_gather(wire_size, T(-7));
      ref_row_gather(a0.data(), lda, rows, sh.n, want_gather.data(), ldw);
      auto want_scatter = a0;
      ref_row_scatter(want_scatter.data(), lda, rows, sh.n, wire0.data(),
                      ldw);

      for (long tile : kTileSizes) {
        for (int team : kTeamSizes) {
          SCOPED_TRACE(::testing::Message()
                       << "sizeof(T)=" << sizeof(T) << " m=" << sh.m
                       << " jb=" << sh.jb << " n=" << sh.n << " ld=" << ldw
                       << " tile=" << tile << " team=" << team);
          blas::set_num_threads(team);
          configure_engine({tile, 0});
          Stream s(test_device());

          std::vector<T> gout(wire_size, T(-7));
          row_gather(s, a0.data(), lda, rows, sh.n, gout.data(), ldw);
          auto sa = a0;
          row_scatter(s, sa.data(), lda, rows, sh.n, wire0.data(), ldw);
          s.synchronize();
          EXPECT_TRUE(bitwise_equal(gout, want_gather));
          EXPECT_TRUE(bitwise_equal(sa, want_scatter));

          if (ldw != sh.jb) continue;
          std::vector<T> pout(wire_size, T(-7));
          pack_rows_cm(s, a0.data(), lda, rows, sh.n, pout.data());
          auto ua = a0;
          unpack_rows_cm(s, wire0.data(), rows, sh.n, ua.data(), lda);
          s.synchronize();
          EXPECT_TRUE(bitwise_equal(pout, want_gather));
          EXPECT_TRUE(bitwise_equal(ua, want_scatter));
        }
      }
    }
  }
}

TEST(KernelEngine, RowGatherScatterPackUnpackMatchNaive) {
  EngineState restore;
  expect_gather_scatter_match_naive<double>();
  // mxp32 runs the float instantiations.
  expect_gather_scatter_match_naive<float>();
}

TEST(KernelEngine, LaswpMatchesNaiveForAliasingPivotPatterns) {
  EngineState restore;
  const long m = 130, n = 211, lda = m + 1, jb = 48;
  const auto a0 = random_matrix(lda, n, 23);

  // Pivot patterns that alias rows as hard as possible: identity, the
  // all-rows-rotate chain, everything targeting one far row, and a random
  // HPL-style draw (ipiv[k] in [k, m)). Order of application matters in
  // every non-trivial one.
  std::vector<std::vector<long>> patterns;
  patterns.emplace_back(jb);
  std::iota(patterns.back().begin(), patterns.back().end(), 0L);  // identity
  patterns.emplace_back(jb);
  for (long k = 0; k < jb; ++k) patterns.back()[k] = k + 1;  // rotate chain
  patterns.emplace_back(jb, m - 1);  // all swaps hit the same victim row
  patterns.emplace_back(jb);
  std::uint64_t s = 31;
  for (long k = 0; k < jb; ++k)
    patterns.back()[k] =
        k + static_cast<long>(xorshift(s) % static_cast<std::uint64_t>(m - k));

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    auto want = a0;
    ref_laswp(want.data(), lda, n, patterns[p]);
    for (long tile : kTileSizes) {
      for (int team : kTeamSizes) {
        SCOPED_TRACE(::testing::Message()
                     << "pattern=" << p << " tile=" << tile << " team=" << team);
        blas::set_num_threads(team);
        configure_engine({tile, 0});
        Stream st(test_device());
        auto a = a0;
        laswp(st, a.data(), lda, n, patterns[p]);
        st.synchronize();
        EXPECT_TRUE(bitwise_equal(a, want));
      }
    }
  }
}

/// trsm_upper's prefix update tiles X's rows over the engine; every tile
/// width and team size must give the single-tile, single-thread bits.
template <typename T>
void expect_trsm_upper_matches_across_tiles_and_teams() {
  const long n = 203, nrhs = 3, ldx = n + 4;
  auto u = random_matrix_as<T>(n, n, 43);
  for (long j = 0; j < n; ++j)
    u[static_cast<std::size_t>(j * n + j)] += static_cast<T>(n);
  const auto b = random_matrix_as<T>(ldx, nrhs, 47);

  blas::set_num_threads(1);
  configure_engine({n, 0});
  auto want = b;
  {
    Stream s(test_device());
    trsm_upper(s, n, nrhs, u.data(), n, want.data(), ldx);
    s.synchronize();
  }
  for (long tile : kTileSizes) {
    for (int team : kTeamSizes) {
      SCOPED_TRACE(::testing::Message() << "sizeof(T)=" << sizeof(T)
                                        << " tile=" << tile
                                        << " team=" << team);
      blas::set_num_threads(team);
      configure_engine({tile, 0});
      Stream s(test_device());
      auto x = b;
      trsm_upper(s, n, nrhs, u.data(), n, x.data(), ldx);
      s.synchronize();
      EXPECT_TRUE(bitwise_equal(x, want));
    }
  }
}

TEST(KernelEngine, TrsmUpperBitwiseAcrossTilesAndTeams) {
  EngineState restore;
  expect_trsm_upper_matches_across_tiles_and_teams<double>();
  expect_trsm_upper_matches_across_tiles_and_teams<float>();
}

TEST(KernelEngine, CopyKernelsMatchAcrossTilesAndTeams) {
  EngineState restore;
  const long m = 190, n = 170, lds = m + 5, ldd = m + 2;
  const auto src = random_matrix(lds, n, 41);
  std::vector<double> want(static_cast<std::size_t>(ldd) * n, 0.0);
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < m; ++i) want[i + j * ldd] = src[i + j * lds];

  for (long tile : kTileSizes) {
    for (int team : kTeamSizes) {
      SCOPED_TRACE(::testing::Message() << "tile=" << tile << " team=" << team);
      blas::set_num_threads(team);
      configure_engine({tile, 0});
      Stream s(test_device());
      std::vector<double> d2(static_cast<std::size_t>(ldd) * n, 0.0);
      copy_matrix_h2d(s, m, n, src.data(), lds, d2.data(), ldd);
      // Gap-free fast path (lds == ldd == m).
      std::vector<double> packed(static_cast<std::size_t>(m) * n, 0.0);
      copy_matrix_d2h(s, m, n, want.data(), ldd, packed.data(), m);
      s.synchronize();
      EXPECT_TRUE(bitwise_equal(d2, want));
      for (long j = 0; j < n; ++j)
        ASSERT_EQ(std::memcmp(packed.data() + j * m, want.data() + j * ldd,
                              static_cast<std::size_t>(m) * sizeof(double)),
                  0);
    }
  }
}

TEST(KernelEngine, SolverResidualBitwiseIdenticalAcrossEngineConfigs) {
  EngineState restore;
  // The engine must never change the numerics, only the schedule: the same
  // solve under every tile/team configuration has to reproduce the exact
  // residual double of the sequential default.
  struct Combo {
    long tile;
    int threads;
  };
  const Combo combos[] = {{256, 1}, {1, 1}, {7, 0}, {64, 2}, {256, 4}};
  double want = 0.0;
  bool have_want = false;
  for (const Combo& c : combos) {
    core::HplConfig cfg;
    cfg.n = 160;
    cfg.nb = 32;
    cfg.p = 1;
    cfg.q = 1;
    cfg.pipeline = core::PipelineMode::LookaheadSplit;
    cfg.swap_tile_cols = c.tile;
    cfg.kernel_threads = c.threads;
    cfg.blas_threads = c.threads == 0 ? 2 : c.threads;
    core::HplResult result;
    comm::World::run(1, [&](comm::Communicator& world) {
      result = core::run_hpl(world, cfg);
    });
    EXPECT_TRUE(result.verify.passed);
    if (!have_want) {
      want = result.verify.residual;
      have_want = true;
    } else {
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << c.tile << " threads=" << c.threads);
      EXPECT_EQ(std::memcmp(&result.verify.residual, &want, sizeof(double)),
                0);
    }
  }
}

}  // namespace
}  // namespace hplx::device
