#pragma once
/// \file blas.hpp
/// \brief hplx's from-scratch CPU BLAS subset (column-major).
///
/// This plays the role BLIS plays in the paper: the dense kernels invoked by
/// the CPU-side panel factorization (§III.A) and by reference checks. The
/// subset is exactly what HPL needs — nothing more. Semantics follow the
/// reference BLAS: column-major storage, explicit leading dimensions,
/// `inc` strides on vectors, alpha/beta scaling conventions (in particular
/// beta == 0 writes C without reading it, so NaNs in uninitialized output
/// do not propagate).
///
/// Every routine exists in a double (`d`/`i` prefix, the seed HPL path)
/// and a float (`s` prefix, the HPL-MxP mxp32 path) instantiation of one
/// shared template, plus an overload set under the precision-neutral name
/// (`gemm`, `trsm`, `iamax`, ...) so templated core code picks the right
/// engine by argument type.
///
/// The BLAS-3 routines run on a packed, register-blocked engine (see
/// pack.hpp / microkernel.hpp) and optionally parallelize over a
/// process-wide util::ThreadTeam — size it with blas::set_num_threads in
/// threading.hpp. Results are bitwise
/// identical for every team size, in both precisions.

namespace hplx::blas {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class Uplo { Upper, Lower };
enum class Diag { NonUnit, Unit };

// ---------------------------------------------------------------- level 1

/// Index of the first element of largest absolute value in x (0-based).
/// n == 0 returns -1. NaN-insensitive: comparisons use fabs and NaN never
/// wins, at any position; an all-NaN x returns 0. HPL's generated matrices
/// contain no NaNs by construction.
int idamax(int n, const double* x, int incx);
int isamax(int n, const float* x, int incx);

void dswap(int n, double* x, int incx, double* y, int incy);
void sswap(int n, float* x, int incx, float* y, int incy);
void dscal(int n, double alpha, double* x, int incx);
void sscal(int n, float alpha, float* x, int incx);
void daxpy(int n, double alpha, const double* x, int incx, double* y,
           int incy);
void saxpy(int n, float alpha, const float* x, int incx, float* y, int incy);
void dcopy(int n, const double* x, int incx, double* y, int incy);
void scopy(int n, const float* x, int incx, float* y, int incy);
double ddot(int n, const double* x, int incx, const double* y, int incy);
float sdot(int n, const float* x, int incx, const float* y, int incy);

// ---------------------------------------------------------------- level 2

/// A := A + alpha * x * y^T   (A is m×n, lda >= m)
void dger(int m, int n, double alpha, const double* x, int incx,
          const double* y, int incy, double* a, int lda);
void sger(int m, int n, float alpha, const float* x, int incx, const float* y,
          int incy, float* a, int lda);

/// y := alpha*op(A)*x + beta*y
void dgemv(Trans trans, int m, int n, double alpha, const double* a, int lda,
           const double* x, int incx, double beta, double* y, int incy);
void sgemv(Trans trans, int m, int n, float alpha, const float* a, int lda,
           const float* x, int incx, float beta, float* y, int incy);

/// Solve op(A)*x = b in place (x overwrites b). A is n×n triangular.
void dtrsv(Uplo uplo, Trans trans, Diag diag, int n, const double* a, int lda,
           double* x, int incx);
void strsv(Uplo uplo, Trans trans, Diag diag, int n, const float* a, int lda,
           float* x, int incx);

// ---------------------------------------------------------------- level 3

/// C := alpha*op(A)*op(B) + beta*C.  op(A) is m×k, op(B) is k×n.
void dgemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc);
void sgemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc);

/// Solve op(A)*X = alpha*B (Side::Left) or X*op(A) = alpha*B (Side::Right),
/// X overwrites B. A is triangular (m×m for Left, n×n for Right).
void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
           double alpha, const double* a, int lda, double* b, int ldb);
void strsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
           float alpha, const float* a, int lda, float* b, int ldb);

/// Which ISA version of the BLAS kernels (packed gemm micro-kernel, small
/// gemm, trsm diagonal leaf, FACT's BLAS-1/2 leaves) this host runs:
/// "avx512f", "avx2" (with FMA) or "default" (baseline x86-64; always on
/// non-x86). It is the resolver's own choice — the widest version
/// __builtin_cpu_supports allows — and never changes results: every
/// version takes one fused multiply-add per gemm k step.
const char* kernel_isa();

// -------------------------------------------- precision-neutral overloads
// Templated callers (pfact, backsolve, the device kernels) resolve these
// by element type; each forwards to the prefixed routine above.

inline int iamax(int n, const double* x, int incx) {
  return idamax(n, x, incx);
}
inline int iamax(int n, const float* x, int incx) {
  return isamax(n, x, incx);
}

inline void swap(int n, double* x, int incx, double* y, int incy) {
  dswap(n, x, incx, y, incy);
}
inline void swap(int n, float* x, int incx, float* y, int incy) {
  sswap(n, x, incx, y, incy);
}

inline void scal(int n, double alpha, double* x, int incx) {
  dscal(n, alpha, x, incx);
}
inline void scal(int n, float alpha, float* x, int incx) {
  sscal(n, alpha, x, incx);
}

inline void axpy(int n, double alpha, const double* x, int incx, double* y,
                 int incy) {
  daxpy(n, alpha, x, incx, y, incy);
}
inline void axpy(int n, float alpha, const float* x, int incx, float* y,
                 int incy) {
  saxpy(n, alpha, x, incx, y, incy);
}

inline void copy(int n, const double* x, int incx, double* y, int incy) {
  dcopy(n, x, incx, y, incy);
}
inline void copy(int n, const float* x, int incx, float* y, int incy) {
  scopy(n, x, incx, y, incy);
}

inline double dot(int n, const double* x, int incx, const double* y,
                  int incy) {
  return ddot(n, x, incx, y, incy);
}
inline float dot(int n, const float* x, int incx, const float* y, int incy) {
  return sdot(n, x, incx, y, incy);
}

inline void ger(int m, int n, double alpha, const double* x, int incx,
                const double* y, int incy, double* a, int lda) {
  dger(m, n, alpha, x, incx, y, incy, a, lda);
}
inline void ger(int m, int n, float alpha, const float* x, int incx,
                const float* y, int incy, float* a, int lda) {
  sger(m, n, alpha, x, incx, y, incy, a, lda);
}

inline void gemv(Trans trans, int m, int n, double alpha, const double* a,
                 int lda, const double* x, int incx, double beta, double* y,
                 int incy) {
  dgemv(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}
inline void gemv(Trans trans, int m, int n, float alpha, const float* a,
                 int lda, const float* x, int incx, float beta, float* y,
                 int incy) {
  sgemv(trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}

inline void trsv(Uplo uplo, Trans trans, Diag diag, int n, const double* a,
                 int lda, double* x, int incx) {
  dtrsv(uplo, trans, diag, n, a, lda, x, incx);
}
inline void trsv(Uplo uplo, Trans trans, Diag diag, int n, const float* a,
                 int lda, float* x, int incx) {
  strsv(uplo, trans, diag, n, a, lda, x, incx);
}

inline void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
                 const double* a, int lda, const double* b, int ldb,
                 double beta, double* c, int ldc) {
  dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}
inline void gemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
                 const float* a, int lda, const float* b, int ldb, float beta,
                 float* c, int ldc) {
  sgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

inline void trsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
                 double alpha, const double* a, int lda, double* b, int ldb) {
  dtrsm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
}
inline void trsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
                 float alpha, const float* a, int lda, float* b, int ldb) {
  strsm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
}

}  // namespace hplx::blas
