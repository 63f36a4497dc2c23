#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "util/error.hpp"

namespace hplx::blas {

namespace {

template <typename T>
void ger_impl(int m, int n, T alpha, const T* x, int incx, const T* y,
              int incy, T* a, int lda) {
  if (m <= 0 || n <= 0 || alpha == T(0)) return;
  HPLX_CHECK(lda >= m);
  detail::resolved<T>().ger(m, n, alpha, x, incx, y, incy, a, lda);
}

template <typename T>
void gemv_impl(Trans trans, int m, int n, T alpha, const T* a, int lda,
               const T* x, int incx, T beta, T* y, int incy) {
  if (m <= 0 || n <= 0) return;
  HPLX_CHECK(lda >= m);
  const int leny = (trans == Trans::No) ? m : n;
  if (beta == T(0)) {
    for (int i = 0; i < leny; ++i) y[static_cast<long>(i) * incy] = T(0);
  } else if (beta != T(1)) {
    for (int i = 0; i < leny; ++i) y[static_cast<long>(i) * incy] *= beta;
  }
  if (alpha == T(0)) return;

  if (trans == Trans::No) {
    // y += alpha * A * x : accumulate column by column (stride-1 in A).
    for (int j = 0; j < n; ++j) {
      const T t = alpha * x[static_cast<long>(j) * incx];
      if (t == T(0)) continue;
      const T* acol = a + static_cast<long>(j) * lda;
      for (int i = 0; i < m; ++i)
        y[static_cast<long>(i) * incy] += acol[i] * t;
    }
  } else {
    // y += alpha * A^T * x : each output element is a column dot product.
    for (int j = 0; j < n; ++j) {
      const T* acol = a + static_cast<long>(j) * lda;
      T acc = T(0);
      for (int i = 0; i < m; ++i)
        acc += acol[i] * x[static_cast<long>(i) * incx];
      y[static_cast<long>(j) * incy] += alpha * acc;
    }
  }
}

template <typename T>
void trsv_impl(Uplo uplo, Trans trans, Diag diag, int n, const T* a, int lda,
               T* x, int incx) {
  if (n <= 0) return;
  HPLX_CHECK(lda >= n);
  const bool unit = (diag == Diag::Unit);

  auto X = [&](int i) -> T& { return x[static_cast<long>(i) * incx]; };
  auto A = [&](int i, int j) -> T {
    return a[static_cast<long>(j) * lda + i];
  };

  if (trans == Trans::No) {
    if (uplo == Uplo::Lower) {
      // Forward substitution.
      for (int j = 0; j < n; ++j) {
        if (!unit) X(j) /= A(j, j);
        const T t = X(j);
        for (int i = j + 1; i < n; ++i) X(i) -= t * A(i, j);
      }
    } else {
      // Back substitution.
      for (int j = n - 1; j >= 0; --j) {
        if (!unit) X(j) /= A(j, j);
        const T t = X(j);
        for (int i = 0; i < j; ++i) X(i) -= t * A(i, j);
      }
    }
  } else {
    if (uplo == Uplo::Lower) {
      // Solve L^T x = b: back substitution over columns of L.
      for (int j = n - 1; j >= 0; --j) {
        T acc = X(j);
        for (int i = j + 1; i < n; ++i) acc -= A(i, j) * X(i);
        X(j) = unit ? acc : acc / A(j, j);
      }
    } else {
      // Solve U^T x = b: forward substitution over columns of U.
      for (int j = 0; j < n; ++j) {
        T acc = X(j);
        for (int i = 0; i < j; ++i) acc -= A(i, j) * X(i);
        X(j) = unit ? acc : acc / A(j, j);
      }
    }
  }
}

}  // namespace

void dger(int m, int n, double alpha, const double* x, int incx,
          const double* y, int incy, double* a, int lda) {
  ger_impl(m, n, alpha, x, incx, y, incy, a, lda);
}
void sger(int m, int n, float alpha, const float* x, int incx, const float* y,
          int incy, float* a, int lda) {
  ger_impl(m, n, alpha, x, incx, y, incy, a, lda);
}

void dgemv(Trans trans, int m, int n, double alpha, const double* a, int lda,
           const double* x, int incx, double beta, double* y, int incy) {
  gemv_impl(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}
void sgemv(Trans trans, int m, int n, float alpha, const float* a, int lda,
           const float* x, int incx, float beta, float* y, int incy) {
  gemv_impl(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}

void dtrsv(Uplo uplo, Trans trans, Diag diag, int n, const double* a, int lda,
           double* x, int incx) {
  trsv_impl(uplo, trans, diag, n, a, lda, x, incx);
}
void strsv(Uplo uplo, Trans trans, Diag diag, int n, const float* a, int lda,
           float* x, int incx) {
  trsv_impl(uplo, trans, diag, n, a, lda, x, incx);
}

}  // namespace hplx::blas
