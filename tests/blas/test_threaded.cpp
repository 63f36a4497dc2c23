/// Property tests for the packed BLAS-3 engine's threading and numerical
/// invariants: every team size must match the naive reference within
/// tolerance AND reproduce the single-thread result bitwise, the engine
/// choice (small vs m×1 column sweep vs packed vs teamed) must not depend
/// on how a logical update is sliced into calls (in both precisions, on
/// every micro-kernel ISA version the host can run), and beta == 0 must
/// overwrite C without reading it even when C starts as NaN/Inf.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
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
        // Ragged micro-tiles (131 is ragged against 16-, 6- and 2-row
        // tiles; n % 8 != 0).
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
/// packed micro-kernel — whichever ISA version this host resolved — and the
/// small path must produce the same bits in both precisions. Both take one
/// fused multiply-add per k step; an unfused step, or a k order changed,
/// in either path shows up here as a last-bit mismatch.
template <typename T>
class PackedVsSmallGemm : public ::testing::Test {
 protected:
  struct Scalars {
    T alpha, beta;
  };
  /// One packed-sized problem and its reference: every C element computed
  /// by its own 1×1×k gemm_small call.
  struct Case {
    Trans ta, tb;
    Scalars sc;
    int lda, ldb, ldc;
    std::vector<T> a, b, c0, sliced;
  };

  // k crosses the type's KC block twice; m = 39 (ragged against 16-, 6-
  // and 2-row tiles alike: 7, 3 and 1 rows past the last full one) and
  // n = 45 (13 past a 16-column float tile, 5 past an 8-column double
  // one) leave ragged micro-tiles on both edges.
  const int m = 39, n = 45, k = 2 * block_sizes_for<T>().kc + 37;

  /// Every transpose combination × three alpha/beta pairs; beta == 0
  /// starts C as NaN, which both engines must overwrite without reading.
  std::vector<Case> cases() const {
    std::vector<Case> out;
    const T nan = std::numeric_limits<T>::quiet_NaN();
    for (Scalars sc : {Scalars{T(-1), T(1)}, Scalars{T(2.5), T(-0.5)},
                       Scalars{T(0.75), T(0)}}) {
      for (Trans ta : {Trans::No, Trans::Yes}) {
        for (Trans tb : {Trans::No, Trans::Yes}) {
          Rand rng(static_cast<std::uint64_t>(k) +
                   (ta == Trans::Yes ? 5 : 0) + (tb == Trans::Yes ? 9 : 0));
          Case c{ta, tb, sc, (ta == Trans::No ? m : k) + 1,
                 (tb == Trans::No ? k : n) + 3, m + 2, {}, {}, {}, {}};
          auto to_t = [](const std::vector<double>& v) {
            return std::vector<T>(v.begin(), v.end());
          };
          c.a = to_t(rng.matrix(ta == Trans::No ? m : k,
                                ta == Trans::No ? k : m, c.lda));
          c.b = to_t(rng.matrix(tb == Trans::No ? k : n,
                                tb == Trans::No ? n : k, c.ldb));
          c.c0 = to_t(rng.matrix(m, n, c.ldc));
          if (sc.beta == T(0)) std::fill(c.c0.begin(), c.c0.end(), nan);
          // One call per element: 2*k flops, far below the cutoff.
          c.sliced = c.c0;
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < m; ++i) {
              const T* ai = c.a.data() + (ta == Trans::No
                                              ? i
                                              : static_cast<long>(i) * c.lda);
              const T* bj = c.b.data() + (tb == Trans::No
                                              ? static_cast<long>(j) * c.ldb
                                              : j);
              detail::gemm_small(
                  ta, tb, 1, 1, k, sc.alpha, ai, c.lda, bj, c.ldb, sc.beta,
                  c.sliced.data() + i + static_cast<long>(j) * c.ldc, c.ldc);
            }
          }
          out.push_back(std::move(c));
        }
      }
    }
    return out;
  }

  void expect_bitwise(const Case& c, const std::vector<T>& got,
                      const char* isa) const {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) {
        const std::size_t idx = static_cast<std::size_t>(j) * c.ldc +
                                static_cast<std::size_t>(i);
        ASSERT_TRUE(std::isfinite(got[idx]));
        ASSERT_EQ(got[idx], c.sliced[idx])
            << isa << " (" << i << "," << j << ") ta=" << (c.ta == Trans::Yes)
            << " tb=" << (c.tb == Trans::Yes) << " alpha=" << c.sc.alpha
            << " beta=" << c.sc.beta;
      }
  }
};
using ElementTypes = ::testing::Types<double, float>;
TYPED_TEST_SUITE(PackedVsSmallGemm, ElementTypes);

TYPED_TEST(PackedVsSmallGemm, WholeCallAndSubCutoffSlicesAgreeBitwise) {
  ASSERT_GE(2.0 * this->m * this->n * this->k, 65536.0)
      << "whole call must be packed";
  for (const auto& c : this->cases()) {
    auto whole = c.c0;
    gemm(c.ta, c.tb, this->m, this->n, this->k, c.sc.alpha, c.a.data(), c.lda,
         c.b.data(), c.ldb, c.sc.beta, whole.data(), c.ldc);
    this->expect_bitwise(c, whole, kernel_isa());
  }
}

/// The resolver runs one version per host, so the check above never
/// reaches the narrower ones on a wide host: run every version this CPU
/// supports through the packed engine directly.
TYPED_TEST(PackedVsSmallGemm, EveryKernelVersionTheCpuRunsAgreesBitwise) {
  using T = TypeParam;
  const auto cases = this->cases();
  int ran = 0;
  for (const auto& kv : detail::kernel_versions<T>()) {
    if (!kv.runs_here()) continue;
    ++ran;
    for (const auto& c : cases) {
      auto whole = c.c0;
      detail::gemm_packed(kv, c.ta, c.tb, this->m, this->n, this->k,
                          c.sc.alpha, c.a.data(), c.lda, c.b.data(), c.ldb,
                          c.sc.beta, whole.data(), c.ldc);
      this->expect_bitwise(c, whole, kv.isa);
    }
  }
  EXPECT_GE(ran, 1) << "the default version runs anywhere";
}

/// m×1 products with op(A) = A (refinement corrections, the single-RHS
/// backsolve) take a column sweep instead of gemm_small or the packed
/// engine, whatever their flop count; it must reproduce gemm_small's bits.
/// k crosses the KC block twice, so an accumulator that is not restarted
/// per block shows; m is ragged and lands on both sides of the cutoff.
template <typename T>
class ColumnGemm : public ::testing::Test {};
TYPED_TEST_SUITE(ColumnGemm, ElementTypes);

TYPED_TEST(ColumnGemm, MatchesGemmSmallBitwise) {
  using T = TypeParam;
  const int k = 2 * block_sizes_for<T>().kc + 37;
  const int m_cut = 32768 / k;  // 2*m*k = 65536, the pack cutoff
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (int m : {m_cut - 3, 4 * m_cut + 3}) {
    const int lda = m + 1;
    Rand rng(static_cast<std::uint64_t>(m));
    std::vector<T> a(static_cast<std::size_t>(lda) * k);
    for (auto& v : a) v = static_cast<T>(rng.next());
    for (Trans tb : {Trans::No, Trans::Yes}) {
      // op(B) is k×1: a contiguous column, or a strided row.
      const int ldb = tb == Trans::No ? k : 3;
      std::vector<T> b(static_cast<std::size_t>(tb == Trans::No ? k
                                                                : ldb * k));
      for (auto& v : b) v = static_cast<T>(rng.next());
      std::vector<T> c0(static_cast<std::size_t>(m));
      for (auto& v : c0) v = static_cast<T>(rng.next());
      for (T alpha : {T(1), T(-1)}) {
        for (T beta : {T(0), T(1), T(0.5)}) {
          auto want = c0, got = c0;
          if (beta == T(0)) {
            std::fill(want.begin(), want.end(), nan);
            std::fill(got.begin(), got.end(), nan);
          }
          detail::gemm_small(Trans::No, tb, m, 1, k, alpha, a.data(), lda,
                             b.data(), ldb, beta, want.data(), m);
          gemm(Trans::No, tb, m, 1, k, alpha, a.data(), lda, b.data(), ldb,
               beta, got.data(), m);
          for (int i = 0; i < m; ++i) {
            ASSERT_TRUE(std::isfinite(got[static_cast<std::size_t>(i)]));
            ASSERT_EQ(got[static_cast<std::size_t>(i)],
                      want[static_cast<std::size_t>(i)])
                << "m=" << m << " i=" << i << " tb=" << (tb == Trans::Yes)
                << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
}

/// Equal bits, told apart from == by the sign of zero.
template <typename T>
bool same_bits(T x, T y) {
  return x == y && std::signbit(x) == std::signbit(y);
}

/// Textbook substitution on one column of a tb×tb block: element i takes
/// x[i] -= a[i,p]·x[p] for every earlier row p of the sweep whose x[p] is
/// nonzero, in sweep order, then its diagonal division.
template <typename T>
void substitute(Uplo uplo, Diag diag, int tb, const T* a, int lda, T* x) {
  for (int s = 0; s < tb; ++s) {
    const int i = uplo == Uplo::Lower ? s : tb - 1 - s;
    for (int t = 0; t < s; ++t) {
      const int p = uplo == Uplo::Lower ? t : tb - 1 - t;
      if (x[p] != T(0)) x[i] -= a[static_cast<std::size_t>(p) * lda + i] * x[p];
    }
    if (diag == Diag::NonUnit) x[i] /= a[static_cast<std::size_t>(i) * lda + i];
  }
}

/// Every version's packed trsm leaf against textbook substitution, one
/// nr-column strip at a time as trsm packs them: both triangles, both
/// diagonals, a full and a ragged block, widths that give every version
/// two full strips and a ragged tail, padded lda/ldb. The first row the
/// sweep solves is zero in every even column while its column of A holds
/// an Inf on the side it updates: those lanes must skip it and stay
/// finite, next to odd lanes that take the Inf.
template <typename T>
class TrsmLeafVersions : public ::testing::Test {};
TYPED_TEST_SUITE(TrsmLeafVersions, ElementTypes);

TYPED_TEST(TrsmLeafVersions, EveryVersionTheCpuRunsMatchesSubstitution) {
  using T = TypeParam;
  constexpr int nr = Tile<T>::nr;
  std::vector<T> strip(static_cast<std::size_t>(64) * nr);
  for (int tb : {64, 37}) {
    for (int n : {1, 7, nr, 2 * nr + 3}) {
      const int lda = tb + 3, ldb = tb + 5;
      Rand rng(static_cast<std::uint64_t>(tb * 100 + n));
      std::vector<T> a(static_cast<std::size_t>(lda) * tb);
      for (auto& v : a) v = static_cast<T>(rng.next());
      for (int p = 0; p < tb; ++p)
        a[static_cast<std::size_t>(p) * lda + p] = static_cast<T>(tb) + T(1);
      std::vector<T> b0(static_cast<std::size_t>(ldb) * n);
      for (auto& v : b0) v = static_cast<T>(rng.next());
      for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
        const bool lower = uplo == Uplo::Lower;
        const int first = lower ? 0 : tb - 1;
        const int far = lower ? tb - 1 : 0;
        auto ai = a;
        ai[static_cast<std::size_t>(first) * lda + far] =
            std::numeric_limits<T>::infinity();
        auto bz = b0;
        for (int j = 0; j < n; j += 2)
          bz[static_cast<std::size_t>(j) * ldb + first] = T(0);
        for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
          auto want = bz;
          for (int j = 0; j < n; ++j)
            substitute(uplo, diag, tb, ai.data(), lda,
                       want.data() + static_cast<std::size_t>(j) * ldb);
          for (int j = 0; j < n; j += 2)
            for (int i = 0; i < tb; ++i)
              ASSERT_TRUE(std::isfinite(
                  want[static_cast<std::size_t>(j) * ldb + i]));
          int ran = 0;
          for (const auto& kv : detail::kernel_versions<T>()) {
            if (!kv.runs_here()) continue;
            ++ran;
            auto got = bz;
            for (int j0 = 0; j0 < n; j0 += nr) {
              const int nb = std::min(nr, n - j0);
              T* bj = got.data() + static_cast<std::size_t>(j0) * ldb;
              pack_b(Trans::No, tb, nb, bj, ldb, strip.data());
              kv.trsm_leaf(uplo, diag, tb, ai.data(), lda, strip.data());
              for (int j = 0; j < nb; ++j)
                for (int p = 0; p < tb; ++p)
                  bj[static_cast<std::size_t>(j) * ldb + p] =
                      strip[static_cast<std::size_t>(p) * nr + j];
            }
            for (std::size_t idx = 0; idx < got.size(); ++idx)
              ASSERT_TRUE(same_bits(got[idx], want[idx]))
                  << kv.isa << " tb=" << tb << " n=" << n << " idx=" << idx
                  << " lower=" << lower << " unit=" << (diag == Diag::Unit)
                  << " got=" << got[idx] << " want=" << want[idx];
          }
          EXPECT_GE(ran, 1);
        }
      }
    }
  }
}

/// The whole Left/NoTrans solve against the arithmetic it is defined by,
/// written out here: alpha scaling, then per 64-row diagonal block (top
/// down for lower, bottom up for upper) textbook substitution and a
/// gemm_small retiring the block from the rows it updates. Every version
/// the host runs goes through the detail seam, and the public entry point
/// through team sizes 1 and 3; both must match bit for bit, on shapes
/// around the block size, a KC smaller than the block, and widths with
/// ragged strips.
template <typename T>
class BlockedTrsm : public ::testing::Test {};
TYPED_TEST_SUITE(BlockedTrsm, ElementTypes);

template <typename T>
void blocked_reference(Uplo uplo, Diag diag, int m, int n, T alpha,
                       const T* a, int lda, T* b, int ldb) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) b[static_cast<std::size_t>(j) * ldb + i] *= alpha;
  constexpr int kBlock = 64;
  for (int done = 0; done < m; done += kBlock) {
    const int tb = std::min(kBlock, m - done);
    const int p0 = uplo == Uplo::Lower ? done : m - done - tb;
    const T* diag_a = a + p0 + static_cast<std::size_t>(p0) * lda;
    for (int j = 0; j < n; ++j)
      substitute(uplo, diag, tb, diag_a, lda,
                 b + p0 + static_cast<std::size_t>(j) * ldb);
    const int r0 = uplo == Uplo::Lower ? p0 + tb : 0;
    const int nrows = uplo == Uplo::Lower ? m - r0 : p0;
    if (nrows > 0)
      detail::gemm_small(Trans::No, Trans::No, nrows, n, tb, T(-1),
                         a + r0 + static_cast<std::size_t>(p0) * lda, lda,
                         b + p0, ldb, T(1), b + r0, ldb);
  }
}

/// Restores the pack block sizes of both engines when a test exits.
struct BlockSizeGuard {
  BlockSizes d = block_sizes(), f = block_sizes_f32();
  ~BlockSizeGuard() {
    set_block_sizes(d);
    set_block_sizes_f32(f);
  }
};

TYPED_TEST(BlockedTrsm, VersionsAndTeamSizesMatchTheBlockedReference) {
  using T = TypeParam;
  TeamGuard team_guard;
  BlockSizeGuard bs_guard;
  for (int kc : {0, 24}) {
    if (kc != 0) {
      set_block_sizes({bs_guard.d.mc, kc, bs_guard.d.nc});
      set_block_sizes_f32({bs_guard.f.mc, kc, bs_guard.f.nc});
    }
    for (int m : {1, 63, 64, 65, 256}) {
      if (kc != 0 && m != 256) continue;
      const int lda = m + 3;
      Rand rng(static_cast<std::uint64_t>(m));
      std::vector<T> a(static_cast<std::size_t>(lda) * m);
      // Off-diagonal mass O(1/m) keeps the unit triangles well enough
      // conditioned that nothing overflows at m = 256.
      for (auto& v : a) v = static_cast<T>(rng.next() / m);
      for (int p = 0; p < m; ++p)
        a[static_cast<std::size_t>(p) * lda + p] = T(2) + static_cast<T>(p % 3);
      for (int n : {1, 9, 300}) {
        const int ldb = m + 2;
        std::vector<T> b0(static_cast<std::size_t>(ldb) * n);
        for (auto& v : b0) v = static_cast<T>(rng.next());
        for (T alpha : {T(1), T(-0.5)}) {
          for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
            for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
              auto want = b0;
              blocked_reference(uplo, diag, m, n, alpha, a.data(), lda,
                                want.data(), ldb);
              auto check = [&](const std::vector<T>& got, const char* what) {
                for (std::size_t idx = 0; idx < got.size(); ++idx)
                  ASSERT_TRUE(same_bits(got[idx], want[idx]))
                      << what << " m=" << m << " n=" << n << " kc=" << kc
                      << " alpha=" << alpha << " lower="
                      << (uplo == Uplo::Lower)
                      << " unit=" << (diag == Diag::Unit) << " idx=" << idx;
              };
              for (const auto& kv : detail::kernel_versions<T>()) {
                if (!kv.runs_here()) continue;
                auto got = b0;
                for (int j = 0; j < n; ++j)
                  for (int i = 0; i < m; ++i)
                    got[static_cast<std::size_t>(j) * ldb + i] *= alpha;
                detail::trsm_left_notrans(kv, uplo, diag, m, n, a.data(),
                                          lda, got.data(), ldb);
                check(got, kv.isa);
              }
              for (int t : {1, 3}) {
                set_num_threads(t);
                auto got = b0;
                trsm(Side::Left, uplo, Trans::No, diag, m, n, alpha,
                     a.data(), lda, got.data(), ldb);
                check(got, t == 1 ? "team 1" : "team 3");
              }
            }
          }
        }
      }
    }
  }
}

/// Each version has its own tile rows (kv.mr), so each has its own row
/// edges: m = mr−1, mr, mr+1 and a ragged tail one tile past an MC block,
/// at the default MC and after set_block_sizes({mc = 100}), which must
/// read back as whole tiles of the version. The version is pinned
/// process-wide, so the public gemm at team sizes 1 and 3 runs it (the
/// ragged-tail shapes are big enough for the team) beside the packed
/// engine called directly, and the m×1 column sweep runs at the same m.
/// All must match per-element gemm_small calls on the resolver's own
/// version bit for bit.
template <typename T>
class TileEdges : public ::testing::Test {};
TYPED_TEST_SUITE(TileEdges, ElementTypes);

TYPED_TEST(TileEdges, EveryVersionMatchesGemmSmallAroundItsTile) {
  using T = TypeParam;
  TeamGuard team_guard;
  BlockSizeGuard bs_guard;
  const BlockSizes bs0 = block_sizes_for<T>();
  auto set_mc = [&](int mc) {
    if constexpr (std::is_same_v<T, double>)
      set_block_sizes({mc, bs0.kc, bs0.nc});
    else
      set_block_sizes_f32({mc, bs0.kc, bs0.nc});
  };
  const auto& ref = detail::resolved<T>();
  const int n = 133;  // ragged past an 8- and a 16-column tile
  const int k = bs0.kc + 37;
  for (const auto& kv : detail::kernel_versions<T>()) {
    if (!kv.runs_here()) continue;
    for (int mc_set : {0, 100}) {
      detail::PinKernelVersion pin(kv.isa);
      if (mc_set != 0) set_mc(mc_set);
      const int mc = block_sizes_for<T>().mc;
      EXPECT_EQ(mc % kv.mr, 0) << kv.isa << " mc=" << mc;
      if (mc_set != 0) {
        EXPECT_LE(mc, mc_set) << kv.isa;
      }
      for (int m : {kv.mr - 1, kv.mr, kv.mr + 1, mc + kv.mr + 1}) {
        if (m < 1) continue;
        for (Trans t : {Trans::No, Trans::Yes}) {
          const int lda = (t == Trans::No ? m : k) + 1;
          const int ldb = (t == Trans::No ? k : n) + 2;
          const int ldc = m + 3;
          Rand rng(static_cast<std::uint64_t>(m * 31 + kv.mr));
          auto to_t = [](const std::vector<double>& v) {
            return std::vector<T>(v.begin(), v.end());
          };
          const auto a = to_t(rng.matrix(t == Trans::No ? m : k,
                                         t == Trans::No ? k : m, lda));
          const auto b = to_t(rng.matrix(t == Trans::No ? k : n,
                                         t == Trans::No ? n : k, ldb));
          const auto c0 = to_t(rng.matrix(m, n, ldc));
          auto want = c0;
          for (int j = 0; j < n; ++j)
            for (int i = 0; i < m; ++i)
              ref.gemm_small(
                  t, t, 1, 1, k, T(-1),
                  a.data() + (t == Trans::No ? i : static_cast<long>(i) * lda),
                  lda,
                  b.data() + (t == Trans::No ? static_cast<long>(j) * ldb : j),
                  ldb, T(1), want.data() + i + static_cast<long>(j) * ldc,
                  ldc);
          auto check = [&](const std::vector<T>& got, const char* path,
                           int cols) {
            for (int j = 0; j < cols; ++j)
              for (int i = 0; i < m; ++i) {
                const std::size_t idx = static_cast<std::size_t>(j) * ldc +
                                        static_cast<std::size_t>(i);
                ASSERT_EQ(got[idx], want[idx])
                    << kv.isa << " " << path << " m=" << m << " mc=" << mc
                    << " trans=" << (t == Trans::Yes) << " (" << i << ","
                    << j << ")";
              }
          };
          auto packed = c0;
          detail::gemm_packed(kv, t, t, m, n, k, T(-1), a.data(), lda,
                              b.data(), ldb, T(1), packed.data(), ldc);
          check(packed, "gemm_packed", n);
          for (int team : {1, 3}) {
            set_num_threads(team);
            auto got = c0;
            gemm(t, t, m, n, k, T(-1), a.data(), lda, b.data(), ldb, T(1),
                 got.data(), ldc);
            check(got, team == 1 ? "gemm team 1" : "gemm team 3", n);
          }
          if (t == Trans::No) {  // the m×1 sweep: column 0 of the same C
            auto col = c0;
            gemm(t, t, m, 1, k, T(-1), a.data(), lda, b.data(), ldb, T(1),
                 col.data(), ldc);
            check(col, "column", 1);
          }
        }
      }
    }
  }
}

TEST(KernelIsa, MirrorsTheResolversCpuTest) {
  // Same condition as versions.cpp: the widest version the CPU supports.
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_STREQ(kernel_isa(),
               __builtin_cpu_supports("avx512f") ? "avx512f"
               : __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
                   ? "avx2"
                   : "default");
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
  // A three-member team and the sequential path after disbanding it must
  // give the same bits.
  set_num_threads(3);

  Rand rng(11);
  const int m = 512, n = 256, k = 64;
  auto a = rng.matrix(m, k, m);
  auto b = rng.matrix(k, n, k);
  auto c0 = rng.matrix(m, n, m);

  auto teamed = c0;
  dgemm(Trans::No, Trans::No, m, n, k, -1.0, a.data(), m, b.data(), k, 1.0,
        teamed.data(), m);

  set_num_threads(1);
  auto serial = c0;
  dgemm(Trans::No, Trans::No, m, n, k, -1.0, a.data(), m, b.data(), k, 1.0,
        serial.data(), m);

  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], teamed[i]);
}

TEST(ThreadedTrsmEdge, ResizingTheProcessTeamKeepsBits) {
  // set_num_threads owns the one process team: growing, shrinking and
  // regrowing it between calls must leave every result bit-identical to
  // the sequential one.
  Rand rng(12);
  const int m = 384, n = 192, k = 48;
  auto a = rng.matrix(m, k, m);
  auto b = rng.matrix(n, k, n);  // op(B) = Bᵀ
  auto c0 = rng.matrix(m, n, m);

  set_num_threads(1);
  auto serial = c0;
  dgemm(Trans::No, Trans::Yes, m, n, k, 0.5, a.data(), m, b.data(), n, 1.0,
        serial.data(), m);
  for (const int team : {3, 2, 4, 3}) {
    set_num_threads(team);
    auto teamed = c0;
    dgemm(Trans::No, Trans::Yes, m, n, k, 0.5, a.data(), m, b.data(), n, 1.0,
          teamed.data(), m);
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(serial[i], teamed[i]) << "team=" << team << " i=" << i;
  }
  set_num_threads(1);
}

}  // namespace
}  // namespace hplx::blas
