#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <span>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "util/error.hpp"

namespace hplx::blas {

namespace {

/// Every kernel body of microkernel.hpp for one ISA at its native vector
/// width VB with MR tile rows, each as a function compiled for that
/// target. TARGET is the target attribute, empty for the baseline build.
#define HPLX_KERNEL_VERSION(ISA, TARGET, VB, MR)                              \
  constexpr int mr_##ISA = MR;                                                \
  template <typename T>                                                       \
  TARGET void gemm_##ISA(int kb, const T* ap, const T* bp, T* acc) {          \
    micro_kernel<T, VB, MR>(kb, ap, bp, acc);                                 \
  }                                                                           \
  template <typename T>                                                       \
  TARGET void gemm_small_##ISA(Trans ta, Trans tb, int m, int n, int k,       \
                               T alpha, const T* a, int lda, const T* b,      \
                               int ldb, T beta, T* c, int ldc) {              \
    gemm_small_body<T>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc); \
    clear_upper<VB>();                                                        \
  }                                                                           \
  template <typename T>                                                       \
  TARGET void column_##ISA(int m, T b, const T* a, T* acc) {                  \
    column_step<T>(m, b, a, acc);                                             \
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
  {#ISA,          RUNS_HERE,       mr_##ISA,           gemm_##ISA<T>,         \
   gemm_small_##ISA<T>, column_##ISA<T>, trsm_leaf_##ISA<T>, ger_##ISA<T>,    \
   scal_##ISA<T>, iamax_##ISA<T>}

/// The kernel bodies, compiled once per ISA at that ISA's native vector
/// width, with a register tile sized to its register file (the tile row
/// is one 64-byte Tile<T>::nr row in every version; EXPERIMENTS.md K-FMA
/// measures the row counts):
///   - avx512f: 64 B vectors, 16 rows — 16 of the 32 zmm accumulate, one
///     per row, in either type.
///   - avx2,fma: 32 B vectors, 6 rows — 12 of the 16 ymm accumulate, two
///     per row, leaving room for the B row and a broadcast.
///   - default (baseline x86-64): 16 B vectors, 2 rows — 8 of the 16 xmm
///     accumulate, four per row. Without FMA in the ISA each fused step is
///     a libm fma per lane: exact, and slow, on hosts that have neither
///     AVX2 nor FMA.
/// Every gemm k step is one fused multiply-add in every version, so the
/// versions agree with each other and with gemm_small bit for bit, and
/// residuals do not depend on which one the host resolves (DESIGN.md
/// decision 12).
#if defined(__x86_64__)
HPLX_KERNEL_VERSION(avx512f, __attribute__((target("avx512f"))), 64, 16)
HPLX_KERNEL_VERSION(avx2, __attribute__((target("avx2,fma"))), 32, 6)
bool has_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
bool has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif
HPLX_KERNEL_VERSION(default, , 16, 2)
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

/// Index into kVersions of the version a PinKernelVersion scope holds, or
/// -1. One index serves both element types: their tables list the same
/// versions in the same order.
std::atomic<int> g_pinned{-1};

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
  const int pin = g_pinned.load(std::memory_order_acquire);
  return pin < 0 ? kv : kVersions<T>[pin];
}

PinKernelVersion::PinKernelVersion(const char* isa) {
  const auto& versions = kVersions<double>;
  const auto* it = std::find_if(
      std::begin(versions), std::end(versions),
      [&](const KernelVersion<double>& v) {
        return std::strcmp(v.isa, isa) == 0;
      });
  HPLX_CHECK_MSG(it != std::end(versions),
                 "no kernel version '" << isa << "' in this build");
  HPLX_CHECK_MSG(it->runs_here(),
                 "kernel version '" << isa << "' does not run on this CPU");
  previous_ = g_pinned.exchange(static_cast<int>(it - std::begin(versions)),
                                std::memory_order_acq_rel);
}

PinKernelVersion::~PinKernelVersion() {
  g_pinned.store(previous_, std::memory_order_release);
}

template std::span<const KernelVersion<double>> kernel_versions();
template std::span<const KernelVersion<float>> kernel_versions();
template const KernelVersion<double>& resolved();
template const KernelVersion<float>& resolved();

}  // namespace detail

}  // namespace hplx::blas
