#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "comm/world.hpp"
#include "core/pfact.hpp"
#include "grid/block_cyclic.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::core {
namespace {

/// Reference in-place right-looking LU with partial pivoting on a dense
/// M×jb panel; pivot ties resolved to the smaller row index, matching the
/// distributed implementation.
std::vector<long> reference_lu(long m, int jb, double* a, long lda) {
  std::vector<long> ipiv(static_cast<std::size_t>(jb));
  for (int k = 0; k < jb; ++k) {
    long p = k;
    double best = std::fabs(a[k + static_cast<long>(k) * lda]);
    for (long r = k + 1; r < m; ++r) {
      const double v = std::fabs(a[r + static_cast<long>(k) * lda]);
      if (v > best) {
        best = v;
        p = r;
      }
    }
    ipiv[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      for (int c = 0; c < jb; ++c)
        std::swap(a[k + static_cast<long>(c) * lda],
                  a[p + static_cast<long>(c) * lda]);
    }
    // Scale by the reciprocal (one divide, many multiplies), matching both
    // HPL and the implementation under test bit for bit.
    blas::dscal(static_cast<int>(m - k - 1),
                1.0 / a[k + static_cast<long>(k) * lda],
                a + k + 1 + static_cast<long>(k) * lda, 1);
    blas::dger(static_cast<int>(m - k - 1), jb - k - 1, -1.0,
               a + k + 1 + static_cast<long>(k) * lda, 1,
               a + k + static_cast<long>(k + 1) * lda, static_cast<int>(lda),
               a + k + 1 + static_cast<long>(k + 1) * lda,
               static_cast<int>(lda));
  }
  return ipiv;
}

HplConfig make_cfg(FactVariant v, int threads,
                   PivotMode pivoting = PivotMode::Full) {
  HplConfig cfg;
  cfg.fact = v;
  cfg.fact_threads = threads;
  cfg.rfact_nbmin = 4;
  cfg.rfact_ndiv = 2;
  cfg.pivoting = pivoting;
  return cfg;
}

/// Run panel_factorize on a single rank and return (top, w, ipiv).
template <typename T>
struct PanelResult {
  std::vector<T> top, w;
  std::vector<long> ipiv;
};
using SingleResult = PanelResult<double>;

template <typename T>
PanelResult<T> run_panel(const std::vector<T>& a0, long m, int jb,
                         const HplConfig& cfg, int tile_rows) {
  PanelResult<T> out;
  out.w = a0;
  out.top.assign(static_cast<std::size_t>(jb) * jb, T(0));
  out.ipiv.assign(static_cast<std::size_t>(jb), -1);
  std::vector<long> glob(static_cast<std::size_t>(m));
  for (long i = 0; i < m; ++i) glob[static_cast<std::size_t>(i)] = i;

  comm::World::run(1, [&](comm::Communicator& comm) {
    ThreadTeam team(cfg.fact_threads);
    PanelTaskT<T> task;
    task.j = 0;
    task.jb = jb;
    task.w = out.w.data();
    task.mw = m;
    task.ldw = m;
    task.glob = glob.data();
    task.top = out.top.data();
    task.ldtop = jb;
    task.ipiv = out.ipiv.data();
    task.is_curr = true;
    task.tile_rows = tile_rows;
    device::PoolAllocator scratch("pfact-test");
    task.scratch = &scratch;
    panel_factorize(comm, cfg, team, task);
  });
  return out;
}

SingleResult run_single(const std::vector<double>& a0, long m, int jb,
                        FactVariant v, int threads, int tile_rows,
                        PivotMode pivoting = PivotMode::Full) {
  return run_panel(a0, m, jb, make_cfg(v, threads, pivoting), tile_rows);
}

/// Check the factorization property: applying the pivot swaps to the
/// original panel must reproduce L·U assembled from (top, slots).
void check_factorization(const std::vector<double>& a0, long m, int jb,
                         const SingleResult& r, double tol) {
  // Swapped original.
  std::vector<double> pa = a0;
  for (int k = 0; k < jb; ++k) {
    const long p = r.ipiv[static_cast<std::size_t>(k)];
    ASSERT_GE(p, k);
    ASSERT_LT(p, m);
    if (p != k)
      for (int c = 0; c < jb; ++c)
        std::swap(pa[k + static_cast<long>(c) * m],
                  pa[p + static_cast<long>(c) * m]);
  }

  // L (M×jb unit-lower trapezoid) and U (jb×jb upper) from top + slots.
  std::vector<double> l(static_cast<std::size_t>(m) * jb, 0.0);
  std::vector<double> u(static_cast<std::size_t>(jb) * jb, 0.0);
  for (int c = 0; c < jb; ++c) {
    for (int i = 0; i < jb; ++i) {
      const double v = r.top[i + static_cast<long>(c) * jb];
      if (i > c) l[i + static_cast<long>(c) * m] = v;
      else u[i + static_cast<long>(c) * jb] = v;
    }
    l[c + static_cast<long>(c) * m] = 1.0;
    for (long i = jb; i < m; ++i)
      l[i + static_cast<long>(c) * m] = r.w[i + static_cast<long>(c) * m];
  }
  std::vector<double> lu(static_cast<std::size_t>(m) * jb, 0.0);
  testref::ref_gemm(blas::Trans::No, blas::Trans::No, static_cast<int>(m), jb,
                    jb, 1.0, l.data(), static_cast<int>(m), u.data(), jb, 0.0,
                    lu.data(), static_cast<int>(m));
  EXPECT_LT(testref::max_diff(static_cast<int>(m), jb, pa.data(),
                              static_cast<int>(m), lu.data(),
                              static_cast<int>(m)),
            tol);
}

using Param = std::tuple<FactVariant, int /*threads*/, long /*m*/, int /*jb*/>;

class PfactSingle : public ::testing::TestWithParam<Param> {};

TEST_P(PfactSingle, FactorizationPropertyHolds) {
  const auto [v, threads, m, jb] = GetParam();
  testref::Rand rng(static_cast<std::uint64_t>(m) * 31 + jb);
  const auto a0 = rng.matrix(static_cast<int>(m), jb, static_cast<int>(m));
  const auto r = run_single(a0, m, jb, v, threads, jb);
  check_factorization(a0, m, jb, r, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PfactSingle,
    ::testing::Values(
        Param{FactVariant::Right, 1, 8, 8},
        Param{FactVariant::Right, 1, 64, 16},
        Param{FactVariant::Right, 4, 64, 16},
        Param{FactVariant::Right, 3, 100, 8},
        Param{FactVariant::Crout, 1, 64, 16},
        Param{FactVariant::Crout, 4, 64, 16},
        Param{FactVariant::Left, 1, 64, 16},
        Param{FactVariant::Left, 4, 64, 16},
        Param{FactVariant::Left, 2, 40, 8},
        Param{FactVariant::RecursiveRight, 1, 64, 16},
        Param{FactVariant::RecursiveRight, 4, 64, 16},
        Param{FactVariant::RecursiveRight, 2, 96, 32},
        Param{FactVariant::Right, 2, 16, 16},  // square: no L2 rows
        Param{FactVariant::RecursiveRight, 2, 33, 16}));

TEST(Pfact, RightVariantMatchesReferenceExactly) {
  // Same kernel sequence → bitwise identical results and pivots.
  const long m = 72;
  const int jb = 24;
  testref::Rand rng(99);
  const auto a0 = rng.matrix(static_cast<int>(m), jb, static_cast<int>(m));

  auto ref = a0;
  const auto ref_ipiv = reference_lu(m, jb, ref.data(), m);

  const auto r = run_single(a0, m, jb, FactVariant::Right, 1, jb);
  for (int k = 0; k < jb; ++k)
    EXPECT_EQ(r.ipiv[static_cast<std::size_t>(k)],
              ref_ipiv[static_cast<std::size_t>(k)]);
  // Top block == reference rows [0, jb); slots >= jb == reference rows.
  for (int c = 0; c < jb; ++c) {
    for (int i = 0; i < jb; ++i)
      EXPECT_DOUBLE_EQ(r.top[i + static_cast<long>(c) * jb],
                       ref[i + static_cast<long>(c) * m]);
    for (long i = jb; i < m; ++i)
      EXPECT_DOUBLE_EQ(r.w[i + static_cast<long>(c) * m],
                       ref[i + static_cast<long>(c) * m]);
  }
}

TEST(Pfact, RequiresScratchArena) {
  // The panel's scratch has no process-wide fallback arena: a task
  // without one is refused before any work, and the panel is untouched.
  const long m = 16;
  const int jb = 4;
  testref::Rand rng(5);
  const auto a0 = rng.matrix(static_cast<int>(m), jb, static_cast<int>(m));
  auto w = a0;
  std::vector<double> top(static_cast<std::size_t>(jb) * jb, 0.0);
  std::vector<long> ipiv(static_cast<std::size_t>(jb), -1);
  std::vector<long> glob(static_cast<std::size_t>(m));
  for (long i = 0; i < m; ++i) glob[static_cast<std::size_t>(i)] = i;
  const HplConfig cfg = make_cfg(FactVariant::Right, 1);
  comm::World::run(1, [&](comm::Communicator& comm) {
    ThreadTeam team(1);
    PanelTaskT<double> task;
    task.j = 0;
    task.jb = jb;
    task.w = w.data();
    task.mw = m;
    task.ldw = m;
    task.glob = glob.data();
    task.top = top.data();
    task.ldtop = jb;
    task.ipiv = ipiv.data();
    task.is_curr = true;
    task.tile_rows = jb;
    EXPECT_THROW(panel_factorize(comm, cfg, team, task), Error);
  });
  EXPECT_EQ(w, a0);
  EXPECT_EQ(ipiv, std::vector<long>(static_cast<std::size_t>(jb), -1));
}

TEST(Pfact, ThreadCountDoesNotChangeBits) {
  // Tiles are owned by single threads, so the arithmetic order per row is
  // fixed: any T must give bitwise identical results.
  const long m = 120;
  const int jb = 24;
  testref::Rand rng(7);
  const auto a0 = rng.matrix(static_cast<int>(m), jb, static_cast<int>(m));
  const auto r1 = run_single(a0, m, jb, FactVariant::RecursiveRight, 1, jb);
  const auto r4 = run_single(a0, m, jb, FactVariant::RecursiveRight, 4, jb);
  const auto r7 = run_single(a0, m, jb, FactVariant::RecursiveRight, 7, jb);
  EXPECT_EQ(r1.ipiv, r4.ipiv);
  EXPECT_EQ(r1.ipiv, r7.ipiv);
  for (std::size_t i = 0; i < r1.w.size(); ++i) {
    ASSERT_EQ(r1.w[i], r4.w[i]);
    ASSERT_EQ(r1.w[i], r7.w[i]);
  }
  for (std::size_t i = 0; i < r1.top.size(); ++i)
    ASSERT_EQ(r1.top[i], r7.top[i]);
}

/// The right-looking base finds column k+1's candidates inside column k's
/// update pass. Every row of this panel has an exact twin (the same row,
/// or its negation, half the panel further down, in another thread's
/// tile): the update keeps twins exact, so every column's search meets a
/// tie across threads, which the lowest global row must win.
template <typename T>
void check_fused_search_ties() {
  // Five 24-row tiles apart: a twin is never on its row's thread.
  const long h = 120;
  const long m = 2 * h;
  const int jb = 64, tile_rows = 24;
  testref::Rand rng(11);
  std::vector<T> a0(static_cast<std::size_t>(m) * jb);
  for (int c = 0; c < jb; ++c) {
    for (long i = 0; i < h; ++i) {
      const T v = static_cast<T>(rng.next());
      a0[static_cast<std::size_t>(i + c * m)] = v;
      a0[static_cast<std::size_t>(i + h + c * m)] = i % 3 == 0 ? -v : v;
    }
  }
  std::vector<PanelResult<T>> runs;
  for (int threads = 1; threads <= 4; ++threads) {
    HplConfig cfg = make_cfg(FactVariant::RecursiveRight, threads);
    cfg.rfact_nbmin = 16;  // four base blocks
    runs.push_back(run_panel(a0, m, jb, cfg, tile_rows));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "fact_threads " << t + 1);
    EXPECT_EQ(runs[0].ipiv, runs[t].ipiv);
    EXPECT_EQ(std::memcmp(runs[0].w.data(), runs[t].w.data(),
                          runs[0].w.size() * sizeof(T)),
              0);
    EXPECT_EQ(std::memcmp(runs[0].top.data(), runs[t].top.data(),
                          runs[0].top.size() * sizeof(T)),
              0);
  }
  // Replay the row exchanges: content[r] is the original row now in w row
  // r. The pivot's twin is still an active row, and the pivot, sharing
  // its magnitude, must be the lower of the two.
  std::vector<long> content(static_cast<std::size_t>(m));
  for (long r = 0; r < m; ++r) content[static_cast<std::size_t>(r)] = r;
  for (int k = 0; k < jb; ++k) {
    const long p = runs[0].ipiv[static_cast<std::size_t>(k)];
    const long twin = (content[static_cast<std::size_t>(p)] + h) % m;
    const long q = static_cast<long>(
        std::find(content.begin(), content.end(), twin) - content.begin());
    ASSERT_GE(q, k) << "column " << k << ": twin was already a pivot";
    EXPECT_LT(p, q) << "column " << k << ": a tie went to the higher row";
    std::swap(content[static_cast<std::size_t>(k)],
              content[static_cast<std::size_t>(p)]);
  }
}

TEST(Pfact, FusedSearchKeepsBitsAndLowestRowTieBreak) {
  check_fused_search_ties<double>();
  check_fused_search_ties<float>();
}

TEST(Pfact, VariantsAgreeOnSamePivotSequence) {
  // Left/Crout defer the trailing update into gemv sweeps whose rank-k
  // accumulation order differs from Right's sequential gers, so the last
  // bits can move — but the pivot sequence must be identical on a
  // well-separated panel, and the factors must agree to rounding.
  const long m = 96;
  const int jb = 16;
  testref::Rand rng(42);
  const auto a0 = rng.matrix(static_cast<int>(m), jb, static_cast<int>(m));
  const double tol = 1e-12;

  const auto right = run_single(a0, m, jb, FactVariant::Right, 2, jb);
  for (FactVariant v : {FactVariant::Left, FactVariant::Crout,
                        FactVariant::RecursiveRight}) {
    const auto r = run_single(a0, m, jb, v, 2, jb);
    EXPECT_EQ(r.ipiv, right.ipiv) << to_string(v);
    for (std::size_t i = 0; i < right.top.size(); ++i)
      ASSERT_NEAR(r.top[i], right.top[i], tol)
          << to_string(v) << " top[" << i << "]";
    // Rows < jb of w are per-variant scratch (the factored top block lives
    // in r.top); only the below-top L2 slots carry the result.
    for (int c = 0; c < jb; ++c)
      for (long i = jb; i < m; ++i)
        ASSERT_NEAR(r.w[i + static_cast<long>(c) * m],
                    right.w[i + static_cast<long>(c) * m], tol)
            << to_string(v) << " w(" << i << "," << c << ")";
  }
}

/// a0 with `shift` added on the panel diagonal (rows 0..jb-1).
std::vector<double> diag_dominant_panel(const std::vector<double>& a0,
                                        long m, int jb, double shift) {
  std::vector<double> a = a0;
  for (int k = 0; k < jb; ++k) a[k + static_cast<long>(k) * m] += shift;
  return a;
}

TEST(Pfact, NopivFactorsDominantPanelWithIdentityPivots) {
  const long m = 80;
  const int jb = 16;
  testref::Rand rng(5);
  const auto a0 = diag_dominant_panel(
      rng.matrix(static_cast<int>(m), jb, static_cast<int>(m)), m, jb,
      static_cast<double>(m));

  for (int threads : {1, 3}) {
    const auto r = run_single(a0, m, jb, FactVariant::Right, threads, jb,
                              PivotMode::None);
    // ipiv entries are absolute global rows; no-pivot means identity.
    for (int k = 0; k < jb; ++k)
      EXPECT_EQ(r.ipiv[static_cast<std::size_t>(k)], k);
    check_factorization(a0, m, jb, r, 1e-8);
  }
}

TEST(Pfact, NopivTopBlockMatchesUnpivotedReference) {
  // The no-pivot top-block loop is the textbook unpivoted right-looking
  // elimination — same scal/ger sequence as a reference run, so the
  // factored jb×jb block must match bit for bit.
  const long m = 48;
  const int jb = 12;
  testref::Rand rng(17);
  const auto a0 = diag_dominant_panel(
      rng.matrix(static_cast<int>(m), jb, static_cast<int>(m)), m, jb,
      static_cast<double>(m));

  std::vector<double> ref(static_cast<std::size_t>(jb) * jb);
  for (int c = 0; c < jb; ++c)
    for (int i = 0; i < jb; ++i)
      ref[i + static_cast<long>(c) * jb] = a0[i + static_cast<long>(c) * m];
  for (int k = 0; k < jb; ++k) {
    blas::dscal(jb - k - 1, 1.0 / ref[k + static_cast<long>(k) * jb],
                ref.data() + k + 1 + static_cast<long>(k) * jb, 1);
    blas::dger(jb - k - 1, jb - k - 1, -1.0,
               ref.data() + k + 1 + static_cast<long>(k) * jb, 1,
               ref.data() + k + static_cast<long>(k + 1) * jb, jb,
               ref.data() + k + 1 + static_cast<long>(k + 1) * jb, jb);
  }

  const auto r = run_single(a0, m, jb, FactVariant::Right, 1, jb,
                            PivotMode::None);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(r.top[i], ref[i]) << "top[" << i << "]";
}

TEST(Pfact, NopivDistributedMatchesSerial) {
  // Block-cyclic rows over P ranks: the broadcast top block and the
  // per-tile trsm rows must reproduce the serial no-pivot run bit for bit
  // (each L2 row's back-substitution order is independent of the tiling).
  const int P = 3;
  const long gm = 96;
  const int jb = 16;
  const int nb = 16;
  testref::Rand rng(321);
  const auto a0 = diag_dominant_panel(
      rng.matrix(static_cast<int>(gm), jb, static_cast<int>(gm)), gm, jb,
      static_cast<double>(gm));

  const auto serial = run_single(a0, gm, jb, FactVariant::Right, 1, jb,
                                 PivotMode::None);

  std::vector<SingleResult> results(static_cast<std::size_t>(P));
  std::vector<std::vector<long>> globs(static_cast<std::size_t>(P));
  comm::World::run(P, [&](comm::Communicator& comm) {
    const int me = comm.rank();
    const grid::CyclicDim rows(gm, nb, comm.size());
    const long ml = rows.local_count(me);
    auto& mine = results[static_cast<std::size_t>(me)];
    auto& glob = globs[static_cast<std::size_t>(me)];
    glob.resize(static_cast<std::size_t>(ml));
    mine.w.resize(static_cast<std::size_t>(ml) * jb);
    for (long il = 0; il < ml; ++il) {
      glob[static_cast<std::size_t>(il)] = rows.to_global(il, me);
      for (int c = 0; c < jb; ++c)
        mine.w[il + static_cast<long>(c) * ml] =
            a0[glob[static_cast<std::size_t>(il)] +
               static_cast<long>(c) * gm];
    }
    mine.top.assign(static_cast<std::size_t>(jb) * jb, 0.0);
    mine.ipiv.assign(static_cast<std::size_t>(jb), -1);

    const HplConfig cfg = make_cfg(FactVariant::Right, 2, PivotMode::None);
    ThreadTeam team(2);
    PanelTask task;
    task.j = 0;
    task.jb = jb;
    task.w = mine.w.data();
    task.mw = ml;
    task.ldw = std::max<long>(ml, 1);
    task.glob = glob.data();
    task.top = mine.top.data();
    task.ldtop = jb;
    task.ipiv = mine.ipiv.data();
    task.is_curr = rows.owner(0) == me;
    task.tile_rows = nb;
    task.diag_root = rows.owner(0);
    device::PoolAllocator scratch("pfact-test");
    task.scratch = &scratch;
    panel_factorize(comm, cfg, team, task);
  });

  const grid::CyclicDim rows(gm, nb, P);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].ipiv, serial.ipiv);
    for (std::size_t i = 0; i < serial.top.size(); ++i)
      ASSERT_EQ(results[static_cast<std::size_t>(r)].top[i], serial.top[i])
          << "rank " << r << " top[" << i << "]";
    const long ml = rows.local_count(r);
    for (long il = 0; il < ml; ++il) {
      const long g = rows.to_global(il, r);
      if (g < jb) continue;
      for (int c = 0; c < jb; ++c)
        ASSERT_EQ(results[static_cast<std::size_t>(r)]
                      .w[il + static_cast<long>(c) * ml],
                  serial.w[g + static_cast<long>(c) * gm])
            << "rank " << r << " slot " << g << " col " << c;
    }
  }
}

/// Distributed: rows block-cyclic over P ranks must reproduce the serial
/// single-rank factorization slot for slot.
class PfactDistributed
    : public ::testing::TestWithParam<std::tuple<int, FactVariant, int>> {};

TEST_P(PfactDistributed, MatchesSingleRankFactorization) {
  const auto [P, v, threads] = GetParam();
  const long gm = 96;  // global rows in the panel (aligned blocks)
  const int jb = 16;
  const int nb = 16;  // row blocking
  testref::Rand rng(1234);
  const auto a0 = rng.matrix(static_cast<int>(gm), jb, static_cast<int>(gm));

  // Serial oracle.
  const auto serial = run_single(a0, gm, jb, v, 1, jb);

  // Distributed run: rank r owns the block-cyclic rows.
  std::vector<SingleResult> results(static_cast<std::size_t>(P));
  std::vector<std::vector<long>> globs(static_cast<std::size_t>(P));
  comm::World::run(P, [&, v = v, threads = threads](comm::Communicator& comm) {
    const int me = comm.rank();
    const grid::CyclicDim rows(gm, nb, comm.size());
    const long ml = rows.local_count(me);
    auto& mine = results[static_cast<std::size_t>(me)];
    auto& glob = globs[static_cast<std::size_t>(me)];
    glob.resize(static_cast<std::size_t>(ml));
    mine.w.resize(static_cast<std::size_t>(ml) * jb);
    for (long il = 0; il < ml; ++il) {
      glob[static_cast<std::size_t>(il)] = rows.to_global(il, me);
      for (int c = 0; c < jb; ++c)
        mine.w[il + static_cast<long>(c) * ml] =
            a0[glob[static_cast<std::size_t>(il)] + static_cast<long>(c) * gm];
    }
    mine.top.assign(static_cast<std::size_t>(jb) * jb, 0.0);
    mine.ipiv.assign(static_cast<std::size_t>(jb), -1);

    const HplConfig cfg = make_cfg(v, threads);
    ThreadTeam team(threads);
    PanelTask task;
    task.j = 0;
    task.jb = jb;
    task.w = mine.w.data();
    task.mw = ml;
    task.ldw = std::max<long>(ml, 1);
    task.glob = glob.data();
    task.top = mine.top.data();
    task.ldtop = jb;
    task.ipiv = mine.ipiv.data();
    task.is_curr = rows.owner(0) == me;
    task.tile_rows = nb;
    device::PoolAllocator scratch("pfact-test");
    task.scratch = &scratch;
    panel_factorize(comm, cfg, team, task);
  });

  const grid::CyclicDim rows(gm, nb, P);
  for (int r = 0; r < P; ++r) {
    // Identical pivots and top blocks everywhere.
    EXPECT_EQ(results[static_cast<std::size_t>(r)].ipiv, serial.ipiv);
    for (std::size_t i = 0; i < serial.top.size(); ++i)
      ASSERT_EQ(results[static_cast<std::size_t>(r)].top[i], serial.top[i])
          << "rank " << r << " top[" << i << "]";
    // Slot contents match the serial slots (skip the top block: its slots
    // are authoritative in `top`).
    const long ml = rows.local_count(r);
    for (long il = 0; il < ml; ++il) {
      const long g = rows.to_global(il, r);
      if (g < jb) continue;
      for (int c = 0; c < jb; ++c)
        ASSERT_EQ(results[static_cast<std::size_t>(r)]
                      .w[il + static_cast<long>(c) * ml],
                  serial.w[g + static_cast<long>(c) * gm])
            << "rank " << r << " slot " << g << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PfactDistributed,
    ::testing::Values(std::make_tuple(2, FactVariant::Right, 1),
                      std::make_tuple(2, FactVariant::Right, 3),
                      std::make_tuple(3, FactVariant::RecursiveRight, 1),
                      std::make_tuple(3, FactVariant::RecursiveRight, 2),
                      std::make_tuple(4, FactVariant::Crout, 2),
                      std::make_tuple(2, FactVariant::Left, 2),
                      std::make_tuple(6, FactVariant::Right, 1)));

}  // namespace
}  // namespace hplx::core
