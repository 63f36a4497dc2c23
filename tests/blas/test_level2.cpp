#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::blas {
namespace {

using testref::Rand;

TEST(Dger, RankOneUpdate) {
  // A = zeros(2,3); A += 2 * x y^T.
  std::vector<double> a(6, 0.0);
  std::vector<double> x{1, 2};
  std::vector<double> y{3, 4, 5};
  dger(2, 3, 2.0, x.data(), 1, y.data(), 1, a.data(), 2);
  EXPECT_DOUBLE_EQ(a[0], 6.0);   // (0,0) = 2*1*3
  EXPECT_DOUBLE_EQ(a[1], 12.0);  // (1,0) = 2*2*3
  EXPECT_DOUBLE_EQ(a[4], 10.0);  // (0,2) = 2*1*5
  EXPECT_DOUBLE_EQ(a[5], 20.0);  // (1,2)
}

TEST(Dger, AlphaZeroNoop) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> x{9, 9};
  std::vector<double> y{9, 9};
  dger(2, 2, 0.0, x.data(), 1, y.data(), 1, a.data(), 2);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[3], 4.0);
}

TEST(Dgemv, NoTransMatchesManual) {
  // A = [1 3; 2 4] colmajor {1,2,3,4}; y = 1*A*x + 0*y.
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> x{5, 6};
  std::vector<double> y(2, -1.0);
  dgemv(Trans::No, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 1 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(y[1], 2 * 5 + 4 * 6);
}

TEST(Dgemv, TransMatchesManual) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> x{5, 6};
  std::vector<double> y(2, 0.0);
  dgemv(Trans::Yes, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 1 * 5 + 2 * 6);
  EXPECT_DOUBLE_EQ(y[1], 3 * 5 + 4 * 6);
}

TEST(Dgemv, BetaScalesExisting) {
  std::vector<double> a{1, 0, 0, 1};  // identity
  std::vector<double> x{2, 3};
  std::vector<double> y{10, 20};
  dgemv(Trans::No, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.5, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 7.0);   // 2 + 5
  EXPECT_DOUBLE_EQ(y[1], 13.0);  // 3 + 10
}

TEST(Dgemv, BetaZeroOverwritesGarbage) {
  std::vector<double> a{1, 0, 0, 1};
  std::vector<double> x{1, 1};
  std::vector<double> y{std::nan(""), std::nan("")};
  dgemv(Trans::No, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

/// Property: dtrsv really inverts the triangular multiply, for all
/// uplo/trans/diag combinations.
struct TrsvCase {
  Uplo uplo;
  Trans trans;
  Diag diag;
  int n;
};

class TrsvSweep : public ::testing::TestWithParam<TrsvCase> {};

TEST_P(TrsvSweep, SolveThenMultiplyRoundTrips) {
  const auto c = GetParam();
  Rand rng(static_cast<std::uint64_t>(c.n) * 131 + 7);
  auto a = rng.matrix(c.n, c.n, c.n);
  testref::dominate_diagonal(c.n, a.data(), c.n);

  std::vector<double> x(static_cast<std::size_t>(c.n));
  for (auto& v : x) v = rng.next();
  std::vector<double> b = x;

  dtrsv(c.uplo, c.trans, c.diag, c.n, a.data(), c.n, b.data(), 1);

  // Multiply back: y = op(T) * b where T is the triangle actually used.
  std::vector<double> y(static_cast<std::size_t>(c.n), 0.0);
  for (int i = 0; i < c.n; ++i) {
    for (int j = 0; j < c.n; ++j) {
      const bool in_lower = i >= j;
      const bool stored = (c.uplo == Uplo::Lower) ? in_lower : i <= j;
      if (!stored) continue;
      double t = a[static_cast<std::size_t>(j) * c.n + i];
      if (c.diag == Diag::Unit && i == j) t = 1.0;
      if (c.trans == Trans::No) {
        y[static_cast<std::size_t>(i)] += t * b[static_cast<std::size_t>(j)];
      } else {
        y[static_cast<std::size_t>(j)] += t * b[static_cast<std::size_t>(i)];
      }
    }
  }
  for (int i = 0; i < c.n; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)],
                1e-9)
        << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, TrsvSweep,
    ::testing::Values(
        TrsvCase{Uplo::Lower, Trans::No, Diag::NonUnit, 1},
        TrsvCase{Uplo::Lower, Trans::No, Diag::NonUnit, 17},
        TrsvCase{Uplo::Lower, Trans::No, Diag::Unit, 33},
        TrsvCase{Uplo::Upper, Trans::No, Diag::NonUnit, 17},
        TrsvCase{Uplo::Upper, Trans::No, Diag::Unit, 8},
        TrsvCase{Uplo::Lower, Trans::Yes, Diag::NonUnit, 17},
        TrsvCase{Uplo::Upper, Trans::Yes, Diag::NonUnit, 17},
        TrsvCase{Uplo::Upper, Trans::Yes, Diag::Unit, 21}));

// ------------------------------------------- per-ISA BLAS-1/2 leaves

/// The scalar loops every ISA version of ger, scal and iamax must
/// reproduce bit for bit (the bodies before they had vector versions).
template <typename T>
void scalar_ger(int m, int n, T alpha, const T* x, int incx, const T* y,
                int incy, T* a, int lda) {
  for (int j = 0; j < n; ++j) {
    const T t = alpha * y[static_cast<long>(j) * incy];
    if (t == T(0)) continue;
    T* acol = a + static_cast<long>(j) * lda;
    for (int i = 0; i < m; ++i) acol[i] += x[static_cast<long>(i) * incx] * t;
  }
}
template <typename T>
void scalar_scal(int n, T alpha, T* x, int incx) {
  for (int i = 0; i < n; ++i) x[static_cast<long>(i) * incx] *= alpha;
}
template <typename T>
int scalar_iamax(int n, const T* x, int incx) {
  T best = T(-1);
  int best_i = 0;
  for (int i = 0; i < n; ++i) {
    const T v = std::fabs(x[static_cast<long>(i) * incx]);
    if (v > best) {
      best = v;
      best_i = i;
    }
  }
  return best_i;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <typename T>
std::vector<T> random_vector(Rand& rng, std::size_t n) {
  std::vector<T> v(n);
  for (auto& e : v) e = static_cast<T>(rng.next());
  return v;
}

template <typename T>
class Blas2Leaves : public ::testing::Test {
 protected:
  /// Ragged lengths around every version's lane count (2..16 elements).
  static constexpr int kLengths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                                     67, 130};
  static constexpr int kIncs[] = {1, 3};
};
using LeafTypes = ::testing::Types<double, float>;
TYPED_TEST_SUITE(Blas2Leaves, LeafTypes);

TYPED_TEST(Blas2Leaves, EveryKernelVersionTheCpuRunsAgreesBitwise) {
  using T = TypeParam;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  Rand rng(23);
  int ran = 0;
  for (const auto& kv : detail::kernel_versions<T>()) {
    if (!kv.runs_here()) continue;
    ++ran;
    for (const int m : TestFixture::kLengths) {
      for (const int inc : TestFixture::kIncs) {
        SCOPED_TRACE(::testing::Message() << kv.isa << " m=" << m
                                          << " inc=" << inc);
        const std::size_t len = static_cast<std::size_t>(m) * inc;

        // ger: lda > m, n = 5. y[2] == 0 must skip its column entirely:
        // x carries an Inf, so a computed x·0 would leave a NaN behind.
        const int n = 5, lda = m + 3;
        auto x = random_vector<T>(rng, len);
        x[len - 1] = inf;
        auto y = random_vector<T>(rng, static_cast<std::size_t>(n) * 2);
        y[2 * 2] = T(0);
        const auto a0 =
            random_vector<T>(rng, static_cast<std::size_t>(lda) * n);
        auto want = a0, got = a0;
        scalar_ger(m, n, T(-0.75), x.data(), inc, y.data(), 2, want.data(),
                   lda);
        kv.ger(m, n, T(-0.75), x.data(), inc, y.data(), 2, got.data(), lda);
        EXPECT_TRUE(same_bits(want, got)) << "ger";
        EXPECT_EQ(std::memcmp(got.data() + 2 * lda, a0.data() + 2 * lda,
                              static_cast<std::size_t>(m) * sizeof(T)),
                  0)
            << "the y[j] == 0 column was touched";

        // scal.
        auto sw = random_vector<T>(rng, len), sg = sw;
        scalar_scal(m, T(1) / T(3), sw.data(), inc);
        kv.scal(m, T(1) / T(3), sg.data(), inc);
        EXPECT_TRUE(same_bits(sw, sg)) << "scal";

        // iamax on random data, then with planted ties and NaNs: the first
        // of equal magnitudes wins, and a NaN never does, wherever it sits.
        auto v = random_vector<T>(rng, len);
        auto at = [&](int i) -> T& {
          return v[static_cast<std::size_t>(i) * inc];
        };
        EXPECT_EQ(kv.iamax(m, v.data(), inc), scalar_iamax(m, v.data(), inc));
        const int p1 = m / 3, p2 = m - 1;
        at(p2) = T(4);
        at(p1) = T(-4);
        at(0) = nan;
        if (p1 + 1 < p2) at(p1 + 1) = nan;
        const int want_i = m == 1 ? 0 : p1 == 0 ? p2 : p1;
        EXPECT_EQ(scalar_iamax(m, v.data(), inc), want_i);
        EXPECT_EQ(kv.iamax(m, v.data(), inc), want_i) << "iamax ties/NaN";
        for (int i = 0; i < m; ++i) at(i) = nan;
        EXPECT_EQ(kv.iamax(m, v.data(), inc), 0) << "all NaN";
      }
    }
  }
  EXPECT_GE(ran, 1) << "the default version runs anywhere";
}

TEST(Idamax, NaNNeverWinsEvenFirst) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x{nan, 1.0, -3.0, nan, 3.0};
  EXPECT_EQ(idamax(5, x.data(), 1), 2);
  std::vector<float> xf{2.0f, std::numeric_limits<float>::quiet_NaN(), -2.0f};
  EXPECT_EQ(isamax(3, xf.data(), 1), 0);
}

}  // namespace
}  // namespace hplx::blas
