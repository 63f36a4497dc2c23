#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "util/error.hpp"

namespace hplx::blas {

namespace {

template <typename T>
int iamax_impl(int n, const T* x, int incx) {
  if (n <= 0) return -1;
  HPLX_CHECK(incx != 0);
  return detail::resolved<T>().iamax(n, x, incx);
}

template <typename T>
void swap_impl(int n, T* x, int incx, T* y, int incy) {
  for (int i = 0; i < n; ++i) {
    T* xi = x + static_cast<long>(i) * incx;
    T* yi = y + static_cast<long>(i) * incy;
    const T t = *xi;
    *xi = *yi;
    *yi = t;
  }
}

template <typename T>
void axpy_impl(int n, T alpha, const T* x, int incx, T* y, int incy) {
  if (alpha == T(0)) return;
  for (int i = 0; i < n; ++i)
    y[static_cast<long>(i) * incy] += alpha * x[static_cast<long>(i) * incx];
}

template <typename T>
void copy_impl(int n, const T* x, int incx, T* y, int incy) {
  for (int i = 0; i < n; ++i)
    y[static_cast<long>(i) * incy] = x[static_cast<long>(i) * incx];
}

template <typename T>
T dot_impl(int n, const T* x, int incx, const T* y, int incy) {
  T acc = T(0);
  for (int i = 0; i < n; ++i)
    acc += x[static_cast<long>(i) * incx] * y[static_cast<long>(i) * incy];
  return acc;
}

}  // namespace

int idamax(int n, const double* x, int incx) { return iamax_impl(n, x, incx); }
int isamax(int n, const float* x, int incx) { return iamax_impl(n, x, incx); }

void dswap(int n, double* x, int incx, double* y, int incy) {
  swap_impl(n, x, incx, y, incy);
}
void sswap(int n, float* x, int incx, float* y, int incy) {
  swap_impl(n, x, incx, y, incy);
}

void dscal(int n, double alpha, double* x, int incx) {
  detail::resolved<double>().scal(n, alpha, x, incx);
}
void sscal(int n, float alpha, float* x, int incx) {
  detail::resolved<float>().scal(n, alpha, x, incx);
}

void daxpy(int n, double alpha, const double* x, int incx, double* y,
           int incy) {
  axpy_impl(n, alpha, x, incx, y, incy);
}
void saxpy(int n, float alpha, const float* x, int incx, float* y, int incy) {
  axpy_impl(n, alpha, x, incx, y, incy);
}

void dcopy(int n, const double* x, int incx, double* y, int incy) {
  copy_impl(n, x, incx, y, incy);
}
void scopy(int n, const float* x, int incx, float* y, int incy) {
  copy_impl(n, x, incx, y, incy);
}

double ddot(int n, const double* x, int incx, const double* y, int incy) {
  return dot_impl(n, x, incx, y, incy);
}
float sdot(int n, const float* x, int incx, const float* y, int incy) {
  return dot_impl(n, x, incx, y, incy);
}

}  // namespace hplx::blas
