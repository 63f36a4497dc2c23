#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "device/kernels.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::device {
namespace {

Device& test_device() {
  static Device dev("gcd0", 1ull << 30);
  return dev;
}

TEST(Kernels, GemmComputesAndChargesTime) {
  Stream s(test_device());
  const long m = 17, n = 13, k = 9;
  testref::Rand rng;
  auto a = rng.matrix(static_cast<int>(m), static_cast<int>(k), static_cast<int>(m));
  auto b = rng.matrix(static_cast<int>(k), static_cast<int>(n), static_cast<int>(k));
  std::vector<double> c(static_cast<std::size_t>(m * n), 1.0);
  auto want = c;

  gemm(s, m, n, k, -1.0, a.data(), m, b.data(), k, 1.0, c.data(), m);
  s.synchronize();

  testref::ref_gemm(blas::Trans::No, blas::Trans::No, static_cast<int>(m),
                    static_cast<int>(n), static_cast<int>(k), -1.0, a.data(),
                    static_cast<int>(m), b.data(), static_cast<int>(k), 1.0,
                    want.data(), static_cast<int>(m));
  EXPECT_LT(testref::max_diff(static_cast<int>(m), static_cast<int>(n),
                              c.data(), static_cast<int>(m), want.data(),
                              static_cast<int>(m)),
            1e-12 * k);
  EXPECT_GT(s.busy_seconds(), 0.0);
}

TEST(Kernels, TrsmLeftLowerUnit) {
  Stream s(test_device());
  const long nb = 12, n = 7;
  testref::Rand rng(77);
  auto l = rng.matrix(static_cast<int>(nb), static_cast<int>(nb),
                      static_cast<int>(nb));
  auto u0 = rng.matrix(static_cast<int>(nb), static_cast<int>(n),
                       static_cast<int>(nb));
  auto u = u0;
  trsm_left_lower_unit(s, nb, n, l.data(), nb, u.data(), nb);
  s.synchronize();

  // Multiply back with the unit-lower triangle.
  std::vector<double> y(static_cast<std::size_t>(nb * n), 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < nb; ++i) {
      double acc = u[static_cast<std::size_t>(j * nb + i)];  // diagonal 1
      for (int p = 0; p < i; ++p)
        acc += l[static_cast<std::size_t>(p * nb + i)] *
               u[static_cast<std::size_t>(j * nb + p)];
      y[static_cast<std::size_t>(j * nb + i)] = acc;
    }
  EXPECT_LT(testref::max_diff(static_cast<int>(nb), static_cast<int>(n),
                              y.data(), static_cast<int>(nb), u0.data(),
                              static_cast<int>(nb)),
            1e-9);
}

/// n×n upper triangle with a dominant diagonal (strict lower part is
/// garbage the solver must not read) and an n×nrhs RHS in ld = ldx whose
/// padding rows hold a sentinel.
struct UpperSystem {
  long n, nrhs, ldx;
  std::vector<double> u, b;
  UpperSystem(long n_, long nrhs_, long ldx_, std::uint64_t seed)
      : n(n_), nrhs(nrhs_), ldx(ldx_) {
    testref::Rand rng(seed);
    u = rng.matrix(static_cast<int>(n), static_cast<int>(n),
                   static_cast<int>(n));
    for (long j = 0; j < n; ++j) {
      u[static_cast<std::size_t>(j * n + j)] += static_cast<double>(n);
      for (long i = j + 1; i < n; ++i)
        u[static_cast<std::size_t>(j * n + i)] = 1e300;
    }
    b.assign(static_cast<std::size_t>(ldx * nrhs), -5.0);
    for (long r = 0; r < nrhs; ++r)
      for (long i = 0; i < n; ++i)
        b[static_cast<std::size_t>(r * ldx + i)] = rng.next();
  }
};

TEST(Kernels, TrsmUpperSolvesUpperTriangular) {
  Stream s(test_device());
  // n spans three 64-wide diagonal blocks (the last one ragged), so both
  // the in-block substitution and the prefix update run.
  const UpperSystem sys(150, 3, 153, 31);
  auto x = sys.b;
  trsm_upper(s, sys.n, sys.nrhs, sys.u.data(), sys.n, x.data(), sys.ldx);
  s.synchronize();
  EXPECT_GT(s.busy_seconds(), 0.0);

  // Multiply back with the upper triangle: U·X must reproduce B.
  for (long r = 0; r < sys.nrhs; ++r) {
    const double* xr = x.data() + r * sys.ldx;
    for (long i = 0; i < sys.n; ++i) {
      double acc = 0.0;
      for (long j = i; j < sys.n; ++j)
        acc += sys.u[static_cast<std::size_t>(j * sys.n + i)] * xr[j];
      EXPECT_NEAR(acc, sys.b[static_cast<std::size_t>(r * sys.ldx + i)],
                  1e-13)
          << "i=" << i << " rhs=" << r;
    }
    // Padding rows past n are not part of X.
    for (long i = sys.n; i < sys.ldx; ++i) EXPECT_EQ(xr[i], -5.0);
  }
}

TEST(Kernels, TrsmUpperSingleRhsMatchesMultiRhsColumnsBitwise) {
  Stream s(test_device());
  // Backsolve with one RHS and refinement's backward sweep call
  // trsm_upper with nrhs = 1; each column must come out exactly as it
  // does inside a multi-RHS solve.
  const UpperSystem sys(137, 4, 140, 37);
  auto all = sys.b;
  trsm_upper(s, sys.n, sys.nrhs, sys.u.data(), sys.n, all.data(), sys.ldx);
  for (long r = 0; r < sys.nrhs; ++r) {
    std::vector<double> one(sys.b.begin() + r * sys.ldx,
                            sys.b.begin() + r * sys.ldx + sys.n);
    trsm_upper(s, sys.n, 1, sys.u.data(), sys.n, one.data(), sys.n);
    s.synchronize();
    EXPECT_EQ(std::memcmp(one.data(), all.data() + r * sys.ldx,
                          static_cast<std::size_t>(sys.n) * sizeof(double)),
              0)
        << "rhs=" << r;
  }
}

TEST(Kernels, CopyMatrixStrided) {
  Stream s(test_device());
  // 3x2 source in ld=4, dest ld=3.
  std::vector<double> src{1, 2, 3, 99, 4, 5, 6, 99};
  std::vector<double> dst(6, 0.0);
  copy_matrix_h2d(s, 3, 2, src.data(), 4, dst.data(), 3);
  s.synchronize();
  EXPECT_DOUBLE_EQ(dst[0], 1.0);
  EXPECT_DOUBLE_EQ(dst[2], 3.0);
  EXPECT_DOUBLE_EQ(dst[3], 4.0);
  EXPECT_DOUBLE_EQ(dst[5], 6.0);
}

TEST(Kernels, RowGatherScatterRoundTrip) {
  Stream s(test_device());
  const long m = 10, n = 4;
  testref::Rand rng(5);
  auto a = rng.matrix(static_cast<int>(m), static_cast<int>(n),
                      static_cast<int>(m));
  auto orig = a;
  const std::vector<long> rows{7, 2, 9};

  std::vector<double> packed(static_cast<std::size_t>(rows.size()) * n, 0.0);
  row_gather(s, a.data(), m, rows, n, packed.data(),
             static_cast<long>(rows.size()));
  s.synchronize();
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(packed[r + static_cast<std::size_t>(j) * rows.size()],
                       orig[static_cast<std::size_t>(rows[r] + j * m)]);

  // Scatter doubled values back.
  for (auto& v : packed) v *= 2.0;
  row_scatter(s, a.data(), m, rows, n, packed.data(),
              static_cast<long>(rows.size()));
  s.synchronize();
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(rows[r] + j * m)],
                       2.0 * orig[static_cast<std::size_t>(rows[r] + j * m)]);
  // Untouched rows intact.
  EXPECT_DOUBLE_EQ(a[0], orig[0]);
  EXPECT_DOUBLE_EQ(a[5], orig[5]);
}

TEST(Kernels, PackRowsCmProducesColumnMajorWire) {
  Stream s(test_device());
  // 5x3 matrix; pack rows {4, 0, 2} into a 3x3 column-major wire block
  // (ld = number of packed rows): out[c*nr + i] = a(rows[i], c).
  std::vector<double> a(15);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 5; ++i)
      a[static_cast<std::size_t>(j * 5 + i)] = i * 10 + j;
  std::vector<double> out(9, -1.0);
  pack_rows_cm(s, a.data(), 5, {4, 0, 2}, 3, out.data());
  s.synchronize();
  // Column 0 of the wire = column 0 of rows {4, 0, 2}: 40, 0, 20.
  EXPECT_DOUBLE_EQ(out[0], 40.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 20.0);
  // Column 1: 41, 1, 21.
  EXPECT_DOUBLE_EQ(out[3], 41.0);
  EXPECT_DOUBLE_EQ(out[4], 1.0);
  EXPECT_DOUBLE_EQ(out[5], 21.0);
  // Column 2: 42, 2, 22.
  EXPECT_DOUBLE_EQ(out[6], 42.0);
  EXPECT_DOUBLE_EQ(out[8], 22.0);
}

TEST(Kernels, PackUnpackRowsCmRoundTrip) {
  Stream s(test_device());
  const long m = 12, n = 6;
  testref::Rand rng(22);
  auto a = rng.matrix(static_cast<int>(m), static_cast<int>(n),
                      static_cast<int>(m));
  const auto orig = a;
  const std::vector<long> rows{1, 7, 11, 3};
  std::vector<double> packed(rows.size() * static_cast<std::size_t>(n));
  pack_rows_cm(s, a.data(), m, rows, n, packed.data());
  // Wipe the rows, then restore from the column-major wire buffer.
  s.enqueue(0.0, [&] {
    for (long r : rows)
      for (long j = 0; j < n; ++j) a[static_cast<std::size_t>(j * m + r)] = -9.0;
  });
  unpack_rows_cm(s, packed.data(), rows, n, a.data(), m);
  s.synchronize();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], orig[i]);
}

TEST(Kernels, UnpackRowsCmScattersToArbitraryTargets) {
  Stream s(test_device());
  // A 2x3 column-major wire block scattered to matrix rows 3, 0 of a 4x3
  // matrix: a(rows[i], c) = in[c*2 + i]; rows 1 and 2 stay untouched.
  std::vector<double> cm{1, 4, 2, 5, 3, 6};
  std::vector<double> a(12, 0.0);
  unpack_rows_cm(s, cm.data(), {3, 0}, 3, a.data(), 4);
  s.synchronize();
  EXPECT_DOUBLE_EQ(a[3], 1.0);   // (3,0)
  EXPECT_DOUBLE_EQ(a[7], 2.0);   // (3,1)
  EXPECT_DOUBLE_EQ(a[11], 3.0);  // (3,2)
  EXPECT_DOUBLE_EQ(a[0], 4.0);   // (0,0)
  EXPECT_DOUBLE_EQ(a[4], 5.0);   // (0,1)
  EXPECT_DOUBLE_EQ(a[8], 6.0);   // (0,2)
  for (long c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(c * 4 + 1)], 0.0);
    EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(c * 4 + 2)], 0.0);
  }
}

TEST(Kernels, PerOwnerCmSegmentsRoundTrip) {
  Stream s(test_device());
  // The displaced-row scatterv send buffer: one nd_r×n column-major
  // segment per destination owner, laid end to end. Each receiver lands
  // its own segment with one unpack_rows_cm, whatever the other segments
  // hold.
  const long m = 16, n = 5;
  testref::Rand rng(29);
  const auto src = rng.matrix(static_cast<int>(m), static_cast<int>(n),
                              static_cast<int>(m));
  const std::vector<std::vector<long>> owners{{9, 2, 14}, {}, {5}, {0, 11}};
  std::size_t total = 0;
  for (const auto& rows : owners) total += rows.size();
  std::vector<double> wire(total * static_cast<std::size_t>(n), -1.0);
  std::vector<std::size_t> offset;
  std::size_t at = 0;
  for (const auto& rows : owners) {
    offset.push_back(at);
    if (!rows.empty())
      pack_rows_cm(s, src.data(), m, rows, n, wire.data() + at);
    at += rows.size() * static_cast<std::size_t>(n);
  }
  s.synchronize();
  for (double v : wire) EXPECT_NE(v, -1.0);

  for (std::size_t o = 0; o < owners.size(); ++o) {
    const auto& rows = owners[o];
    std::vector<double> dst(static_cast<std::size_t>(m * n), 0.0);
    if (!rows.empty())
      unpack_rows_cm(s, wire.data() + offset[o], rows, n, dst.data(), m);
    s.synchronize();
    for (long i = 0; i < m; ++i) {
      const bool mine =
          std::find(rows.begin(), rows.end(), i) != rows.end();
      for (long c = 0; c < n; ++c) {
        const auto k = static_cast<std::size_t>(c * m + i);
        EXPECT_EQ(dst[k], mine ? src[k] : 0.0)
            << "owner=" << o << " i=" << i << " c=" << c;
      }
    }
  }
}

TEST(Kernels, UnpackRowsCmScattersColumnSubranges) {
  Stream s(test_device());
  // A chunked delivery unpacks a column subrange of the wire block: the
  // caller advances the input by c0*nr and the output by c0*lda.
  const long m = 6, n = 5;
  std::vector<double> a(static_cast<std::size_t>(m * n), 0.0);
  const std::vector<long> rows{4, 1};
  const auto nr = static_cast<long>(rows.size());
  std::vector<double> cm(static_cast<std::size_t>(nr * n));
  for (long c = 0; c < n; ++c)
    for (long i = 0; i < nr; ++i)
      cm[static_cast<std::size_t>(c * nr + i)] = 100.0 * c + i;
  // Deliver columns [2, 5) only.
  const long c0 = 2, nc = n - c0;
  unpack_rows_cm(s, cm.data() + c0 * nr, rows, nc, a.data() + c0 * m, m);
  s.synchronize();
  for (long c = 0; c < n; ++c)
    for (long i = 0; i < nr; ++i)
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(c * m + rows[static_cast<std::size_t>(i)])],
                       c < c0 ? 0.0 : 100.0 * c + i)
          << "i=" << i << " c=" << c;
}

TEST(Kernels, LaswpAppliesSequentialSwaps) {
  Stream s(test_device());
  // 4x2 matrix, pivots: row0<->row2, row1<->row1, row2<->row3.
  std::vector<double> a{0, 1, 2, 3, 10, 11, 12, 13};
  laswp(s, a.data(), 4, 2, {2, 1, 3});
  s.synchronize();
  // Sequential semantics: after k=0 swap(0,2): {2,1,0,3};
  // k=1 noop; k=2 swap(2,3): {2,1,3,0}.
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 3.0);
  EXPECT_DOUBLE_EQ(a[3], 0.0);
  EXPECT_DOUBLE_EQ(a[4], 12.0);
  EXPECT_DOUBLE_EQ(a[7], 10.0);
}

TEST(Kernels, EmptyOpsAreNoops) {
  Stream s(test_device());
  gemm<double>(s, 0, 5, 5, 1.0, nullptr, 1, nullptr, 1, 0.0, nullptr, 1);
  row_gather<double>(s, nullptr, 1, {}, 5, nullptr, 1);
  laswp<double>(s, nullptr, 1, 0, {1, 2});
  s.synchronize();
  EXPECT_DOUBLE_EQ(s.busy_seconds(), 0.0);
}

}  // namespace
}  // namespace hplx::device
