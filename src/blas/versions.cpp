#include <algorithm>
#include <iterator>
#include <span>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"

namespace hplx::blas {

namespace {

/// Every kernel body of microkernel.hpp for one ISA at its native vector
/// width VB, each as a function compiled for that target. TARGET is the
/// target attribute, empty for the baseline build.
#define HPLX_KERNEL_VERSION(ISA, TARGET, VB)                                  \
  template <typename T>                                                       \
  TARGET void gemm_##ISA(int kb, const T* ap, const T* bp, T* acc) {          \
    micro_kernel<T, VB>(kb, ap, bp, acc);                                     \
  }                                                                           \
  template <typename T>                                                       \
  TARGET void trsm_leaf_##ISA(Uplo uplo, Diag diag, int tb, const T* a,      \
                              int lda, T* bp) {                               \
    trsm_leaf<T, VB>(uplo, diag, tb, a, lda, bp);                             \
  }                                                                           \
  template <typename T>                                                       \
  TARGET void ger_##ISA(int m, int n, T alpha, const T* x, int incx,          \
                        const T* y, int incy, T* a, int lda) {                \
    ger_leaf<T, VB>(m, n, alpha, x, incx, y, incy, a, lda);                   \
  }                                                                           \
  template <typename T>                                                       \
  TARGET void scal_##ISA(int n, T alpha, T* x, int incx) {                    \
    scal_leaf<T, VB>(n, alpha, x, incx);                                      \
  }                                                                           \
  template <typename T>                                                       \
  TARGET int iamax_##ISA(int n, const T* x, int incx) {                       \
    return iamax_leaf<T, VB>(n, x, incx);                                     \
  }

#define HPLX_KERNEL_ENTRY(ISA, RUNS_HERE)                                     \
  {#ISA, RUNS_HERE, gemm_##ISA<T>, trsm_leaf_##ISA<T>, ger_##ISA<T>,          \
   scal_##ISA<T>, iamax_##ISA<T>}

/// The kernel bodies, compiled once per ISA at that ISA's native vector
/// width: avx512f 64 B, avx2 32 B, baseline x86-64 16 B. No target carries
/// FMA into the arithmetic — the build pins -ffp-contract=off — so every
/// version runs the same mul-then-add sequence as gemm_small and the
/// scalar BLAS-1/2 loops, and residuals do not depend on which one the
/// host resolves (DESIGN.md decision 12).
#if defined(__x86_64__)
HPLX_KERNEL_VERSION(avx512f, __attribute__((target("avx512f"))), 64)
HPLX_KERNEL_VERSION(avx2, __attribute__((target("avx2"))), 32)
bool has_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
bool has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif
HPLX_KERNEL_VERSION(default, , 16)
bool runs_anywhere() { return true; }

template <typename T>
constexpr detail::KernelVersion<T> kVersions[] = {
#if defined(__x86_64__)
    HPLX_KERNEL_ENTRY(avx512f, has_avx512f),
    HPLX_KERNEL_ENTRY(avx2, has_avx2),
#endif
    HPLX_KERNEL_ENTRY(default, runs_anywhere),
};

#undef HPLX_KERNEL_ENTRY
#undef HPLX_KERNEL_VERSION

}  // namespace

const char* kernel_isa() { return detail::resolved<double>().isa; }

namespace detail {

template <typename T>
std::span<const KernelVersion<T>> kernel_versions() {
  return kVersions<T>;
}

template <typename T>
const KernelVersion<T>& resolved() {
  static const KernelVersion<T>& kv = *std::find_if(
      std::begin(kVersions<T>), std::end(kVersions<T>),
      [](const KernelVersion<T>& v) { return v.runs_here(); });
  return kv;
}

template std::span<const KernelVersion<double>> kernel_versions();
template std::span<const KernelVersion<float>> kernel_versions();
template const KernelVersion<double>& resolved();
template const KernelVersion<float>& resolved();

}  // namespace detail

}  // namespace hplx::blas
