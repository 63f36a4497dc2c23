#pragma once
/// \file microkernel.hpp
/// \brief Register-blocked mr×nr gemm micro-kernel over packed panels, the
/// small-problem and m×1 column gemms, the packed trsm diagonal leaf, the
/// BLAS-1/2 leaves of the panel factorization (ger, scal, iamax), and the
/// per-ISA table that versions.cpp builds them into.
///
/// The hot loop of the engine: one packed A row-panel (mr elements per k
/// step) against one packed B column-panel (Tile<T>::nr per k step),
/// accumulating into an mr×nr register block that never touches memory
/// until the write-back, so C traffic is one load/store pair per KC
/// k-steps instead of one per tile row (the pre-pack kernel's ratio).
///
/// The bodies are written once on GCC vector extensions and templated on
/// the vector width VB in bytes. Each accumulator row is nr·sizeof(T)/VB
/// vectors, and a[i] multiplies a whole B vector as one broadcast load, so
/// the k loop issues no lane shuffles (gcc's auto-vectorized broadcasts of
/// a[i] are shuffle-bound; DESIGN.md decision 12). versions.cpp compiles
/// the bodies once per ISA at that ISA's native width (avx512f 64 B, avx2
/// 32 B, baseline 16 B; every tile row is 64 B, so each row is one, two or
/// four vectors) with that ISA's row count mr, and a resolver picks one
/// version per process.
///
/// Accumulation order is fixed: k runs sequentially within a KC block and
/// KC blocks are visited in order, and every C tile is written by exactly
/// one thread — so results are bitwise identical for every team size T.
/// Every gemm k step is one fused multiply-add, acc = fma(a, b, acc),
/// rounded once, in every version and in gemm_small and the column sweep,
/// so all of them give the same bits whatever the tile shape or the
/// version the host resolves (tests/blas/test_threaded.cpp). The fusion is
/// written out (fma_step); the build pins -ffp-contract=off, so no other
/// product and sum is ever fused — the trsm leaf, the alpha/beta
/// write-back and the BLAS-1/2 leaves keep them separate.

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>  // declares the vfmadd builtins for the target bodies
#endif

#include "blas/pack.hpp"

namespace hplx::blas {

/// Rows of the tallest register tile any version uses: the bound for
/// stack accumulators sized before the version is known.
inline constexpr int kMaxMr = 16;

/// c = a·b + c per lane, rounded once. On the 64- and 32-byte x86 widths
/// this is one vfmadd (the builtins compile only inside the avx512f and
/// avx2,fma bodies that inline it); elsewhere each lane calls std::fma,
/// which is exact everywhere and a libm call on a baseline x86-64 target.
/// -Wpsabi would flag the builtins' wide vector results as an ABI change,
/// but this function is always inlined into a body built for their
/// target, so no value of that width ever crosses a call.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
template <typename T, typename V>
[[gnu::always_inline]] inline void fma_step(V& c, const V& a, const V& b) {
  constexpr int lanes = sizeof(V) / sizeof(T);
#if defined(__x86_64__)
  if constexpr (sizeof(V) == 64 && sizeof(T) == 8) {
    c = __builtin_ia32_vfmaddpd512_mask(a, b, c, -1,
                                        _MM_FROUND_CUR_DIRECTION);
    return;
  } else if constexpr (sizeof(V) == 64) {
    c = __builtin_ia32_vfmaddps512_mask(a, b, c, -1,
                                        _MM_FROUND_CUR_DIRECTION);
    return;
  } else if constexpr (sizeof(V) == 32 && sizeof(T) == 8) {
    c = __builtin_ia32_vfmaddpd256(a, b, c);
    return;
  } else if constexpr (sizeof(V) == 32) {
    c = __builtin_ia32_vfmaddps256(a, b, c);
    return;
  }
#endif
  for (int l = 0; l < lanes; ++l) c[l] = std::fma(a[l], b[l], c[l]);
}
#pragma GCC diagnostic pop

/// acc[i*nr + j] = fma-sum_k ap[k*MR + i] * bp[k*nr + j] over kb steps, k
/// in order, on VB-byte vectors, nr·sizeof(T)/VB per tile row. Packed
/// panels and `acc` are only element-aligned, so memory is read and
/// written through VM, an element-aligned, may_alias vector type; the
/// accumulators are V and stay in registers. Always inlined, so each ISA
/// version compiles the body for its own target.
template <typename T, int VB, int MR>
[[gnu::always_inline]] inline void micro_kernel(int kb, const T* ap,
                                                const T* bp, T* acc) {
  constexpr int nr = Tile<T>::nr;
  constexpr int lanes = VB / sizeof(T);
  constexpr int nv = nr / lanes;
  static_assert(nv * lanes == nr, "a tile row is whole VB-byte vectors");
  static_assert(MR <= kMaxMr);
  typedef T V __attribute__((vector_size(VB)));
  typedef T VM
      __attribute__((vector_size(VB), aligned(alignof(T)), may_alias));
  V c[MR][nv] = {};
  for (int p = 0; p < kb; ++p) {
    const T* a = ap + static_cast<long>(p) * MR;
    const auto* b = reinterpret_cast<const VM*>(bp + static_cast<long>(p) * nr);
    for (int i = 0; i < MR; ++i) {
      const V ai = a[i] - V{};  // a broadcast: x − (+0) is x, −0 included
      for (int v = 0; v < nv; ++v) fma_step<T>(c[i][v], ai, V(b[v]));
    }
  }
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < nv; ++v)
      *reinterpret_cast<VM*>(acc + i * nr + v * lanes) = c[i][v];
}

/// The small-problem gemm, C = alpha·op(A)·op(B) + beta·C: per element, a
/// register dot product over each KC block of k, one std::fma per step in
/// k order, then alpha/beta at write-back as in write_back — the arithmetic
/// the packed engine reproduces. Built per ISA so that std::fma is one
/// instruction wherever the target has it.
template <typename T>
[[gnu::always_inline]] inline void gemm_small_body(Trans ta, Trans tb, int m,
                                                   int n, int k, T alpha,
                                                   const T* a, int lda,
                                                   const T* b, int ldb,
                                                   T beta, T* c, int ldc) {
  auto A = [&](int i, int p) -> T {
    return ta == Trans::No ? a[static_cast<long>(p) * lda + i]
                           : a[static_cast<long>(i) * lda + p];
  };
  auto B = [&](int p, int j) -> T {
    return tb == Trans::No ? b[static_cast<long>(j) * ldb + p]
                           : b[static_cast<long>(p) * ldb + j];
  };
  const int kc = block_sizes_for<T>().kc;
  for (int p0 = 0; p0 < k; p0 += kc) {
    const int pe = std::min(k, p0 + kc);
    const bool first_k = p0 == 0;
    for (int j = 0; j < n; ++j) {
      T* ccol = c + static_cast<long>(j) * ldc;
      for (int i = 0; i < m; ++i) {
        T acc = T(0);
        for (int p = p0; p < pe; ++p) acc = std::fma(A(i, p), B(p, j), acc);
        if (!first_k) {
          ccol[i] += alpha * acc;
        } else if (beta == T(0)) {
          // Overwrite without reading C (NaN/Inf in uninitialized output
          // must not propagate).
          ccol[i] = alpha * acc;
        } else {
          ccol[i] = alpha * acc + beta * ccol[i];
        }
      }
    }
  }
}

/// Ends a body built for a VB-byte target with vzeroupper when VB is wider
/// than 16 bytes. gcc adds one itself wherever a body computes on ymm/zmm
/// values, but not where it only spills scalars through zmm16–31 (what it
/// does in gemm_small_body under avx512f without avx512vl); left dirty,
/// the upper halves slow every legacy-SSE instruction of the baseline code
/// that runs next — the default version's kernels ran ~60× slower after
/// one avx512f small gemm. tests/blas/fma_rule.cmake checks every wide
/// body for it.
template <int VB>
[[gnu::always_inline]] inline void clear_upper() {
#if defined(__x86_64__)
  if constexpr (VB > 16) __builtin_ia32_vzeroupper();
#endif
}

/// One k step of the m×1 column sweep: acc[i] = fma(a[i], b, acc[i]).
template <typename T>
[[gnu::always_inline]] inline void column_step(int m, T b, const T* a,
                                               T* acc) {
  for (int i = 0; i < m; ++i) acc[i] = std::fma(a[i], b, acc[i]);
}

/// Unblocked triangular solve op(A)(tb×tb)·X = B in place on one packed
/// tb×nr row panel of B — pack_b's layout, row p a whole nr-element tile
/// row at bp + p·nr — A lower (forward substitution) or upper (back
/// substitution), not transposed. The solve runs across the nr right-hand
/// sides at once, nr·sizeof(T)/VB vectors per row, and each element sees
/// the column substitution's sequence: x[i] -= a[i,p]·x[p] in p order,
/// with x[p] divided by a[p,p] before its first use when the diagonal is
/// not unit. A lane whose x[p] is zero skips row p's subtractions through
/// a select, so a zero right-hand side never meets an Inf below it in L
/// (and a −0 stays −0); the zero-padded lanes of a ragged strip stay
/// inside their own lanes.
template <typename T, int VB>
[[gnu::always_inline]] inline void trsm_leaf(Uplo uplo, Diag diag, int tb,
                                             const T* a, int lda, T* bp) {
  constexpr int nr = Tile<T>::nr;
  constexpr int lanes = VB / sizeof(T);
  constexpr int nv = nr / lanes;
  using I = std::conditional_t<sizeof(T) == 8, long long, int>;
  static_assert(sizeof(I) == sizeof(T));
  typedef T V __attribute__((vector_size(VB)));
  typedef I VI __attribute__((vector_size(VB)));
  typedef T VM
      __attribute__((vector_size(VB), aligned(alignof(T)), may_alias));
  const bool lower = uplo == Uplo::Lower;
  for (int s = 0; s < tb; ++s) {
    const int p = lower ? s : tb - 1 - s;
    const T* acol = a + static_cast<long>(p) * lda;
    auto* xp = reinterpret_cast<VM*>(bp + static_cast<long>(p) * nr);
    V x[nv];
    VI live[nv];
    for (int v = 0; v < nv; ++v) {
      x[v] = xp[v];
      if (diag == Diag::NonUnit) {
        x[v] /= acol[p];
        xp[v] = x[v];
      }
      live[v] = x[v] != T(0);
    }
    const int i1 = lower ? tb : p;
    for (int i = lower ? p + 1 : 0; i < i1; ++i) {
      auto* xi = reinterpret_cast<VM*>(bp + static_cast<long>(i) * nr);
      for (int v = 0; v < nv; ++v) {
        const V old = xi[v];
        xi[v] = live[v] ? old - acol[i] * x[v] : old;
      }
    }
  }
}

/// A(m×n) += x·(alpha·y)ᵀ, column by column: a column whose alpha·y[j] is
/// zero is skipped, and every element gets x[i]·t added in one multiply
/// and one add, so each version matches the scalar loop bit for bit.
/// Unit-stride x runs on VB-byte vectors; other strides stay scalar.
template <typename T, int VB>
[[gnu::always_inline]] inline void ger_leaf(int m, int n, T alpha, const T* x,
                                            int incx, const T* y, int incy,
                                            T* a, int lda) {
  constexpr int lanes = VB / sizeof(T);
  typedef T VM
      __attribute__((vector_size(VB), aligned(alignof(T)), may_alias));
  for (int j = 0; j < n; ++j) {
    const T t = alpha * y[static_cast<long>(j) * incy];
    if (t == T(0)) continue;
    T* acol = a + static_cast<long>(j) * lda;
    if (incx != 1) {
      for (int i = 0; i < m; ++i)
        acol[i] += x[static_cast<long>(i) * incx] * t;
      continue;
    }
    int i = 0;
    for (; i + lanes <= m; i += lanes) {
      *reinterpret_cast<VM*>(acol + i) +=
          *reinterpret_cast<const VM*>(x + i) * t;
    }
    for (; i < m; ++i) acol[i] += x[i] * t;
  }
}

/// x[i] *= alpha for i < n; VB-byte vectors when incx == 1.
template <typename T, int VB>
[[gnu::always_inline]] inline void scal_leaf(int n, T alpha, T* x, int incx) {
  constexpr int lanes = VB / sizeof(T);
  typedef T VM
      __attribute__((vector_size(VB), aligned(alignof(T)), may_alias));
  if (incx != 1) {
    for (int i = 0; i < n; ++i) x[static_cast<long>(i) * incx] *= alpha;
    return;
  }
  int i = 0;
  for (; i + lanes <= n; i += lanes) *reinterpret_cast<VM*>(x + i) *= alpha;
  for (; i < n; ++i) x[i] *= alpha;
}

/// Index of the first element of largest |x| among n >= 1 elements. NaN
/// never wins: every comparison is a strict `>` against a running best
/// that starts at -1, so an all-NaN x returns 0. With incx == 1 each lane
/// of a VB-byte vector keeps its own first maximum, and the lanes merge
/// by value, then by lowest index — the scalar scan's answer.
template <typename T, int VB>
[[gnu::always_inline]] inline int iamax_leaf(int n, const T* x, int incx) {
  T best = T(-1);
  int best_i = -1;
  int i = 0;
  if (incx == 1) {
    constexpr int lanes = VB / sizeof(T);
    using I = std::conditional_t<sizeof(T) == 8, long long, int>;
    static_assert(sizeof(I) == sizeof(T));
    typedef T V __attribute__((vector_size(VB)));
    typedef I VI __attribute__((vector_size(VB)));
    typedef I VMI
        __attribute__((vector_size(VB), aligned(alignof(T)), may_alias));
    constexpr I kAbs = std::numeric_limits<I>::max();  // all but the sign
    V vbest = V{} - T(1);
    VI ibest = VI{};
    VI idx;
    for (int l = 0; l < lanes; ++l) idx[l] = l;
    for (; i + lanes <= n; i += lanes, idx += lanes) {
      const V v = (V)(*reinterpret_cast<const VMI*>(x + i) & kAbs);
      const VI gt = v > vbest;
      vbest = gt ? v : vbest;
      ibest = gt ? idx : ibest;
    }
    for (int l = 0; l < lanes; ++l) {
      if (vbest[l] > best ||
          (vbest[l] == best && best_i >= 0 && ibest[l] < best_i)) {
        best = vbest[l];
        best_i = static_cast<int>(ibest[l]);
      }
    }
  }
  for (; i < n; ++i) {
    const T v = std::fabs(x[static_cast<long>(i) * incx]);
    if (v > best) {
      best = v;
      best_i = i;
    }
  }
  return best_i < 0 ? 0 : best_i;
}

/// Write an mr×nr corner of the accumulator into C.
///
/// `first_k` marks the first KC block of the k loop: it applies the
/// alpha/beta update C = alpha*acc + beta*C exactly once (beta == 0
/// overwrites without reading C, so NaN/Inf in uninitialized output never
/// propagate — the reference-BLAS beta semantics). Later KC blocks only
/// accumulate C += alpha*acc. This is what replaces the old standalone
/// beta-scaling sweep over all of C. The alpha/beta step stays unfused,
/// exactly as in gemm_small_body.
template <typename T>
inline void write_back(int mr, int nr, T alpha, const T* acc, T* c, int ldc,
                       bool first_k, T beta) {
  constexpr int tile_nr = Tile<T>::nr;
  if (!first_k) {
    for (int j = 0; j < nr; ++j) {
      T* ccol = c + static_cast<long>(j) * ldc;
      for (int i = 0; i < mr; ++i) ccol[i] += alpha * acc[i * tile_nr + j];
    }
  } else if (beta == T(0)) {
    for (int j = 0; j < nr; ++j) {
      T* ccol = c + static_cast<long>(j) * ldc;
      for (int i = 0; i < mr; ++i) ccol[i] = alpha * acc[i * tile_nr + j];
    }
  } else {
    for (int j = 0; j < nr; ++j) {
      T* ccol = c + static_cast<long>(j) * ldc;
      for (int i = 0; i < mr; ++i)
        ccol[i] = alpha * acc[i * tile_nr + j] + beta * ccol[i];
    }
  }
}

namespace detail {

/// One ISA version of the kernels: micro_kernel with that version's tile
/// rows, gemm_small, the column sweep, the packed trsm_leaf and the
/// BLAS-1/2 leaves compiled for one target at that target's vector width.
template <typename T>
struct KernelVersion {
  const char* isa;     ///< "avx512f", "avx2" or "default"
  bool (*runs_here)(); ///< the resolver's CPU test for this version
  int mr;              ///< rows of the gemm register tile, <= kMaxMr
  void (*gemm)(int kb, const T* ap, const T* bp, T* acc);
  void (*gemm_small)(Trans ta, Trans tb, int m, int n, int k, T alpha,
                     const T* a, int lda, const T* b, int ldb, T beta, T* c,
                     int ldc);
  void (*column)(int m, T b, const T* a, T* acc);
  void (*trsm_leaf)(Uplo uplo, Diag diag, int tb, const T* a, int lda,
                    T* bp);
  void (*ger)(int m, int n, T alpha, const T* x, int incx, const T* y,
              int incy, T* a, int lda);
  void (*scal)(int n, T alpha, T* x, int incx);
  int (*iamax)(int n, const T* x, int incx);
};

/// Every version this build carries, widest first. The last is "default"
/// (baseline ISA) and runs anywhere; the resolver takes the first entry
/// whose runs_here() holds, once per process.
template <typename T>
std::span<const KernelVersion<T>> kernel_versions();

/// The version this process runs: the one a PinKernelVersion scope names
/// while one is open, else the first, widest, that the CPU supports
/// (decided once). Callers fetch it once per BLAS call, outside their tile
/// loops.
template <typename T>
const KernelVersion<T>& resolved();

/// Test seam: while an instance is alive, resolved<T>() returns the version
/// named `isa` for both element types, in every thread of the process —
/// every rank and team member of a solve — so a whole run (the oracle, a
/// determinism sweep) executes on one chosen version. The version must
/// exist in this build and run on this CPU (checked). Open one only while
/// no BLAS call is in flight; scopes restore the previous pin on exit, so
/// they nest.
class PinKernelVersion {
 public:
  explicit PinKernelVersion(const char* isa);
  ~PinKernelVersion();
  PinKernelVersion(const PinKernelVersion&) = delete;
  PinKernelVersion& operator=(const PinKernelVersion&) = delete;

 private:
  int previous_;
};

/// The resolved version's gemm_small: per element, a register dot product
/// of fused steps over each KC block of k in order, alpha/beta applied at
/// write-back. Every other gemm path reproduces its bits; tests use it as
/// the reference.
template <typename T>
void gemm_small(Trans ta, Trans tb, int m, int n, int k, T alpha, const T* a,
                int lda, const T* b, int ldb, T beta, T* c, int ldc);

/// The packed engine on the calling thread alone (no team), on a given
/// version and its tile rows. dgemm/sgemm and trsm's updates pass the
/// resolved version; tests pass every version the host supports. Requires
/// m, n, k >= 1 and alpha != 0 (dgemm/sgemm handle the rest).
template <typename T>
void gemm_packed(const KernelVersion<T>& kv, Trans ta, Trans tb, int m, int n,
                 int k, T alpha, const T* a, int lda, const T* b, int ldb,
                 T beta, T* c, int ldc);

/// The blocked Side::Left, Trans::No triangular solve op(A)·X = B on the
/// calling thread alone, on a given version: dtrsm/strsm pass the
/// resolved version (after their alpha scaling), tests pass every version
/// the host supports. Requires m, n >= 1.
template <typename T>
void trsm_left_notrans(const KernelVersion<T>& kv, Uplo uplo, Diag diag,
                       int m, int n, const T* a, int lda, T* b, int ldb);

}  // namespace detail

}  // namespace hplx::blas
