/// Property tests for the packed BLAS-3 engine's threading and numerical
/// invariants: every team size must match the naive reference within
/// tolerance AND reproduce the single-thread result bitwise, the engine
/// choice (small vs packed vs teamed) must not depend on how a logical
/// update is sliced into calls (in both precisions, whichever micro-kernel
/// ISA clone runs), and beta == 0 must overwrite C without reading it even
/// when C starts as NaN/Inf.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "blas/pack.hpp"
#include "blas/threading.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::blas {
namespace {

using testref::Rand;

/// Restores sequential BLAS when a test exits, pass or fail.
struct TeamGuard {
  ~TeamGuard() { set_num_threads(1); }
};

const int kTeams[] = {1, 2, 4};

// ------------------------------------------------------------------ dgemm

struct ThreadedGemmCase {
  int m, n, k;
  double alpha, beta;
};

class ThreadedGemm : public ::testing::TestWithParam<ThreadedGemmCase> {};

TEST_P(ThreadedGemm, AllTransposesAndTeamSizesMatchReferenceBitwise) {
  TeamGuard guard;
  const auto c = GetParam();
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      Rand rng(static_cast<std::uint64_t>(c.m * 7919 + c.n * 104729 + c.k) +
               (ta == Trans::Yes ? 11 : 0) + (tb == Trans::Yes ? 23 : 0));
      const int lda = (ta == Trans::No ? c.m : c.k) + 3;
      const int ldb = (tb == Trans::No ? c.k : c.n) + 2;
      const int ldc = c.m + 1;
      auto a = rng.matrix(ta == Trans::No ? c.m : c.k,
                          ta == Trans::No ? c.k : c.m, lda);
      auto b = rng.matrix(tb == Trans::No ? c.k : c.n,
                          tb == Trans::No ? c.n : c.k, ldb);
      auto c0 = rng.matrix(c.m, c.n, ldc);

      auto want = c0;
      testref::ref_gemm(ta, tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                        b.data(), ldb, c.beta, want.data(), ldc);

      std::vector<double> single;
      for (int t : kTeams) {
        set_num_threads(t);
        auto got = c0;
        dgemm(ta, tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
              c.beta, got.data(), ldc);
        EXPECT_LT(
            testref::max_diff(c.m, c.n, got.data(), ldc, want.data(), ldc),
            1e-10 * (c.k + 1))
            << "T=" << t << " ta=" << (ta == Trans::Yes) << " tb="
            << (tb == Trans::Yes);
        if (t == 1) {
          single = got;
        } else {
          // Teaming partitions m and n but never k, and each C element is
          // written by exactly one thread — results must be identical to
          // the last bit, not merely close.
          for (int j = 0; j < c.n; ++j)
            for (int i = 0; i < c.m; ++i) {
              const std::size_t idx =
                  static_cast<std::size_t>(j) * ldc + static_cast<std::size_t>(i);
              ASSERT_EQ(single[idx], got[idx])
                  << "bitwise mismatch at (" << i << "," << j << ") T=" << t;
            }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndScalars, ThreadedGemm,
    ::testing::Values(
        // Tiny (small-path) shapes.
        ThreadedGemmCase{1, 1, 1, 1.0, 0.0},
        ThreadedGemmCase{13, 17, 9, -1.0, 1.0},
        // Shapes straddling the pack block sizes MC=128, KC=256, NC=512.
        ThreadedGemmCase{129, 65, 300, 1.0, 1.0},
        ThreadedGemmCase{257, 520, 80, -1.0, 1.0},
        ThreadedGemmCase{160, 130, 257, 1.0, 0.0},
        // Ragged micro-tiles (m % 4 != 0, n % 8 != 0).
        ThreadedGemmCase{131, 77, 64, 2.5, -0.5},
        // HPL trailing-update shape at team-eligible size.
        ThreadedGemmCase{512, 256, 32, -1.0, 1.0},
        // alpha == 0 degenerates to the beta sweep.
        ThreadedGemmCase{100, 90, 50, 0.0, 0.5},
        ThreadedGemmCase{100, 90, 50, 0.0, 0.0},
        ThreadedGemmCase{96, 88, 48, 1.0, -1.0}));

TEST(GemmDeterminism, ResultIndependentOfCallSlicing) {
  // The pipeline modes cut one logical trailing update C -= L·U into
  // differently shaped dgemm calls (full width, lookahead block + rest,
  // split-update halves). Those calls land on different engines depending
  // on their flop counts; all of them must produce the same bits.
  TeamGuard guard;
  const int m = 128, n = 112, k = 16;
  Rand rng(42);
  const int lda = m, ldb = k, ldc = m;
  auto a = rng.matrix(m, k, lda);
  auto b = rng.matrix(k, n, ldb);
  auto c0 = rng.matrix(m, n, ldc);

  auto whole = c0;
  dgemm(Trans::No, Trans::No, m, n, k, -1.0, a.data(), lda, b.data(), ldb,
        1.0, whole.data(), ldc);

  for (int t : kTeams) {
    set_num_threads(t);
    for (int first : {16, 40, 96}) {
      auto sliced = c0;
      dgemm(Trans::No, Trans::No, m, first, k, -1.0, a.data(), lda, b.data(),
            ldb, 1.0, sliced.data(), ldc);
      dgemm(Trans::No, Trans::No, m, n - first, k, -1.0, a.data(), lda,
            b.data() + static_cast<std::size_t>(first) * ldb, ldb, 1.0,
            sliced.data() + static_cast<std::size_t>(first) * ldc, ldc);
      for (std::size_t i = 0; i < sliced.size(); ++i)
        ASSERT_EQ(whole[i], sliced[i]) << "first=" << first << " T=" << t;
    }
  }
}

TEST(GemmBetaZero, OverwritesNanAndInfOnEveryPath) {
  TeamGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Small path, packed path, and teamed packed path.
  struct Shape {
    int m, n, k;
  };
  for (Shape s : {Shape{5, 4, 3}, Shape{200, 160, 64}, Shape{512, 256, 64}}) {
    Rand rng(7);
    auto a = rng.matrix(s.m, s.k, s.m);
    auto b = rng.matrix(s.k, s.n, s.k);
    std::vector<double> want(static_cast<std::size_t>(s.m) * s.n, 0.0);
    testref::ref_gemm(Trans::No, Trans::No, s.m, s.n, s.k, 1.0, a.data(), s.m,
                      b.data(), s.k, 0.0, want.data(), s.m);
    for (int t : kTeams) {
      set_num_threads(t);
      std::vector<double> got(static_cast<std::size_t>(s.m) * s.n);
      for (std::size_t i = 0; i < got.size(); ++i)
        got[i] = (i % 3 == 0) ? nan : (i % 3 == 1 ? inf : -inf);
      dgemm(Trans::No, Trans::No, s.m, s.n, s.k, 1.0, a.data(), s.m, b.data(),
            s.k, 0.0, got.data(), s.m);
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(std::isfinite(got[i]))
            << "m=" << s.m << " i=" << i << " T=" << t;
      EXPECT_LT(testref::max_diff(s.m, s.n, got.data(), s.m, want.data(), s.m),
                1e-10 * (s.k + 1));
    }
  }
  // alpha == 0, beta == 0 must produce exact zeros without reading C.
  std::vector<double> z(64, nan);
  dgemm(Trans::No, Trans::No, 8, 8, 4, 0.0, z.data(), 8, z.data(), 8, 0.0,
        z.data(), 8);
  for (double v : z) ASSERT_EQ(v, 0.0);
}

// --------------------------------------------- packed vs small engine

/// The pipeline modes slice one logical update into calls that land on
/// either side of the packed engine's flop cutoff (2*m*n*k = 65536), so the
/// packed micro-kernel — whichever ISA clone this host resolved — and the
/// small path must produce the same bits in both precisions. A fused
/// multiply-add in either path (a target that implies FMA under gcc's
/// default -ffp-contract=fast) shows up here as a last-bit mismatch.
template <typename T>
class PackedVsSmallGemm : public ::testing::Test {};
using ElementTypes = ::testing::Types<double, float>;
TYPED_TEST_SUITE(PackedVsSmallGemm, ElementTypes);

TYPED_TEST(PackedVsSmallGemm, WholeCallAndSubCutoffSlicesAgreeBitwise) {
  using T = TypeParam;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  // k crosses the type's KC block twice; m % 4 == 3 and n % 8 == 5 leave
  // ragged micro-tiles on both edges.
  const int m = 39, n = 45, k = 2 * block_sizes_for<T>().kc + 37;
  ASSERT_GE(2.0 * m * n * k, 65536.0) << "whole call must be packed";
  struct Scalars {
    T alpha, beta;
  };
  for (Scalars sc : {Scalars{T(-1), T(1)}, Scalars{T(2.5), T(-0.5)},
                     Scalars{T(0.75), T(0)}}) {
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        Rand rng(static_cast<std::uint64_t>(k) + (ta == Trans::Yes ? 5 : 0) +
                 (tb == Trans::Yes ? 9 : 0));
        const int lda = (ta == Trans::No ? m : k) + 1;
        const int ldb = (tb == Trans::No ? k : n) + 3;
        const int ldc = m + 2;
        auto to_t = [](const std::vector<double>& v) {
          return std::vector<T>(v.begin(), v.end());
        };
        const auto a = to_t(rng.matrix(ta == Trans::No ? m : k,
                                       ta == Trans::No ? k : m, lda));
        const auto b = to_t(rng.matrix(tb == Trans::No ? k : n,
                                       tb == Trans::No ? n : k, ldb));
        auto c0 = to_t(rng.matrix(m, n, ldc));
        // beta == 0 must overwrite C without reading it on both engines.
        if (sc.beta == T(0)) std::fill(c0.begin(), c0.end(), nan);

        auto whole = c0;
        gemm(ta, tb, m, n, k, sc.alpha, a.data(), lda, b.data(), ldb, sc.beta,
             whole.data(), ldc);
        // One call per element: 2*k flops, far below the cutoff.
        auto sliced = c0;
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < m; ++i) {
            const T* ai = a.data() + (ta == Trans::No
                                          ? i
                                          : static_cast<long>(i) * lda);
            const T* bj = b.data() + (tb == Trans::No
                                          ? static_cast<long>(j) * ldb
                                          : j);
            gemm(ta, tb, 1, 1, k, sc.alpha, ai, lda, bj, ldb, sc.beta,
                 sliced.data() + i + static_cast<long>(j) * ldc, ldc);
          }
        }
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < m; ++i) {
            const std::size_t idx = static_cast<std::size_t>(j) * ldc +
                                    static_cast<std::size_t>(i);
            ASSERT_TRUE(std::isfinite(whole[idx]));
            ASSERT_EQ(whole[idx], sliced[idx])
                << "(" << i << "," << j << ") ta=" << (ta == Trans::Yes)
                << " tb=" << (tb == Trans::Yes) << " alpha=" << sc.alpha
                << " beta=" << sc.beta;
          }
      }
    }
  }
}

TEST(KernelIsa, MirrorsTheResolversCpuTest) {
  // Same condition as level3.cpp: TSan builds carry no clones.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
  __builtin_cpu_init();
  EXPECT_STREQ(kernel_isa(),
               __builtin_cpu_supports("avx2") ? "avx2" : "default");
#else
  EXPECT_STREQ(kernel_isa(), "default");
#endif
}

// ------------------------------------------------------------------ dtrsm

struct ThreadedTrsmCase {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
  int m, n;
  double alpha;
};

class ThreadedTrsm : public ::testing::TestWithParam<ThreadedTrsmCase> {};

TEST_P(ThreadedTrsm, TeamSizesAgreeBitwiseAndSolveHolds) {
  TeamGuard guard;
  const auto c = GetParam();
  const int na = (c.side == Side::Left) ? c.m : c.n;
  Rand rng(static_cast<std::uint64_t>(na * 31 + c.m * 7 + c.n));
  const int lda = na + 2;
  const int ldb = c.m + 1;
  auto a = rng.matrix(na, na, lda);
  // Shrink off-diagonal mass so op(A)'s condition number stays O(1) even
  // at na = 256 — unit-diagonal triangles with O(1) entries are
  // exponentially ill-conditioned and would drown the check in legitimate
  // rounding error.
  for (int j = 0; j < na; ++j)
    for (int i = 0; i < na; ++i)
      if (i != j) a[static_cast<std::size_t>(j) * lda + i] /= na;
  testref::dominate_diagonal(na, a.data(), lda);
  auto b0 = rng.matrix(c.m, c.n, ldb);

  // Dense triangle for the multiply-back check.
  std::vector<double> tri(static_cast<std::size_t>(na) * na, 0.0);
  for (int j = 0; j < na; ++j)
    for (int i = 0; i < na; ++i) {
      const bool stored = (c.uplo == Uplo::Lower) ? i >= j : i <= j;
      double v = stored ? a[static_cast<std::size_t>(j) * lda + i] : 0.0;
      if (i == j) v = (c.diag == Diag::Unit) ? 1.0 : v;
      tri[static_cast<std::size_t>(j) * na + i] = v;
    }

  std::vector<double> single;
  for (int t : kTeams) {
    set_num_threads(t);
    auto x = b0;
    dtrsm(c.side, c.uplo, c.trans, c.diag, c.m, c.n, c.alpha, a.data(), lda,
          x.data(), ldb);
    if (t == 1) {
      single = x;
      // Multiply back: op(A)·X (Left) or X·op(A) (Right) == alpha·B.
      std::vector<double> prod(static_cast<std::size_t>(c.m) * c.n, 0.0);
      if (c.side == Side::Left) {
        testref::ref_gemm(c.trans, Trans::No, c.m, c.n, c.m, 1.0, tri.data(),
                          na, x.data(), ldb, 0.0, prod.data(), c.m);
      } else {
        testref::ref_gemm(Trans::No, c.trans, c.m, c.n, c.n, 1.0, x.data(),
                          ldb, tri.data(), na, 0.0, prod.data(), c.m);
      }
      double err = 0.0;
      for (int j = 0; j < c.n; ++j)
        for (int i = 0; i < c.m; ++i)
          err = std::max(err,
                         std::fabs(prod[static_cast<std::size_t>(j) * c.m + i] -
                                   c.alpha *
                                       b0[static_cast<std::size_t>(j) * ldb + i]));
      EXPECT_LT(err, 1e-9 * (na + 1));
    } else {
      for (int j = 0; j < c.n; ++j)
        for (int i = 0; i < c.m; ++i) {
          const std::size_t idx =
              static_cast<std::size_t>(j) * ldb + static_cast<std::size_t>(i);
          ASSERT_EQ(single[idx], x[idx])
              << "bitwise mismatch at (" << i << "," << j << ") T=" << t;
        }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SidesAndShapes, ThreadedTrsm,
    ::testing::Values(
        // HPL's U-solve shape: unit lower, team-eligible width, m past the
        // blocked-path cutoff.
        ThreadedTrsmCase{Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 256,
                         192, 1.0},
        ThreadedTrsmCase{Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit,
                         100, 96, -1.0},
        ThreadedTrsmCase{Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit,
                         96, 80, 1.0},
        ThreadedTrsmCase{Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit,
                         80, 64, 2.0},
        ThreadedTrsmCase{Side::Left, Uplo::Upper, Trans::Yes, Diag::Unit, 64,
                         96, 1.0},
        ThreadedTrsmCase{Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit,
                         96, 256, 1.0},
        ThreadedTrsmCase{Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit,
                         128, 72, -0.5},
        // Degenerate and tiny shapes stay on the serial path.
        ThreadedTrsmCase{Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1, 1,
                         1.0},
        ThreadedTrsmCase{Side::Right, Uplo::Upper, Trans::No, Diag::Unit, 7,
                         5, 0.0}));

TEST(ThreadedTrsmEdge, ExternalTeamInstallAndDetach) {
  // set_thread_team with a caller-owned team must behave like
  // set_num_threads, and detaching must return to sequential.
  ThreadTeam team(3);
  set_thread_team(&team);
  EXPECT_EQ(thread_count(), 3);

  Rand rng(11);
  const int m = 512, n = 256, k = 64;
  auto a = rng.matrix(m, k, m);
  auto b = rng.matrix(k, n, k);
  auto c0 = rng.matrix(m, n, m);

  auto teamed = c0;
  dgemm(Trans::No, Trans::No, m, n, k, -1.0, a.data(), m, b.data(), k, 1.0,
        teamed.data(), m);

  set_thread_team(nullptr);
  EXPECT_EQ(thread_count(), 1);
  auto serial = c0;
  dgemm(Trans::No, Trans::No, m, n, k, -1.0, a.data(), m, b.data(), k, 1.0,
        serial.data(), m);

  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], teamed[i]);
}

}  // namespace
}  // namespace hplx::blas
