#include <algorithm>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "blas/pack.hpp"
#include "blas/threading.hpp"
#include "util/error.hpp"

namespace hplx::blas {

namespace {

constexpr int ceil_div(int a, int b) { return (a + b - 1) / b; }
constexpr long round_up(long v, long unit) {
  return (v + unit - 1) / unit * unit;
}

/// Below this flop count the packing overhead is not worth it and the
/// register-folded naive loop wins.
constexpr double kPackFlopCutoff = 2.0 * 32768;
/// Below this flop count a thread team costs more in wakeups/barriers
/// than it saves.
constexpr double kTeamFlopCutoff = 2.0 * 4e6;
/// Right-looking block size for the trsm diagonal solves.
constexpr int kTrsmBlock = 64;
/// Minimum per-member slice (columns for Left, rows for Right) before a
/// teamed trsm is worthwhile.
constexpr int kTrsmSliceMin = 16;

/// Per-thread packing scratch, one instance per element type. Team
/// workers are persistent threads, so these survive across calls and
/// packing never allocates in steady state.
struct Scratch {
  AlignedBuffer a;  // one MC×KC block, mr-padded
  AlignedBuffer b;  // one KC×NC panel, nr-padded (sequential path only)
};
template <typename T>
Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

/// Shared B panel for teamed calls, one per element type. Guarded by the
/// team lease: only one teamed kernel runs at a time, so a single
/// process-wide buffer per type suffices.
template <typename T>
AlignedBuffer& team_b() {
  static AlignedBuffer b;
  return b;
}

/// Address of op(A)(i, p) in stored coordinates.
template <typename T>
const T* op_a_ptr(Trans ta, const T* a, int lda, int i, int p) {
  return ta == Trans::No ? a + i + static_cast<long>(p) * lda
                         : a + p + static_cast<long>(i) * lda;
}
/// Address of op(B)(p, j) in stored coordinates.
template <typename T>
const T* op_b_ptr(Trans tb, const T* b, int ldb, int p, int j) {
  return tb == Trans::No ? b + p + static_cast<long>(j) * ldb
                         : b + j + static_cast<long>(p) * ldb;
}

/// Small-problem path. Must be bitwise-compatible with the packed engine:
/// HPL's pipeline modes slice one logical update into differently shaped
/// gemm calls and still expect identical results, and which engine runs
/// depends on the call's flop count. So this path mirrors the packed
/// engine's arithmetic exactly — per element, a register dot product over
/// each KC block of k in order, beta applied with the first block only,
/// alpha applied once per block at write-back (never folded into terms).
template <typename T>
void gemm_small(Trans ta, Trans tb, int m, int n, int k, T alpha, const T* a,
                int lda, const T* b, int ldb, T beta, T* c, int ldc) {
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
        for (int p = p0; p < pe; ++p) acc += A(i, p) * B(p, j);
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

/// The micro-kernel's one generic body, compiled twice and picked once at
/// load time by an ifunc resolver: an AVX2 clone (32-byte vectors) and the
/// baseline x86-64 clone (16-byte SSE2) for hosts without AVX2. The avx2
/// target carries no FMA and the build pins -ffp-contract=off, so each
/// accumulator sees the same mul-then-add sequence in either clone as in
/// gemm_small — residuals do not depend on which clone the host runs
/// (DESIGN.md decision 12).
/// ThreadSanitizer instruments the resolver, which runs during relocation,
/// before its runtime exists, so TSan builds compile the default body only.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define HPLX_ISA_CLONES 1
#define HPLX_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define HPLX_ISA_CLONES 0
#define HPLX_KERNEL_CLONES
#endif

HPLX_KERNEL_CLONES void micro_kernel_isa(int kb, const double* ap,
                                         const double* bp, double* acc) {
  micro_kernel(kb, ap, bp, acc);
}
HPLX_KERNEL_CLONES void micro_kernel_isa(int kb, const float* ap,
                                         const float* bp, float* acc) {
  micro_kernel(kb, ap, bp, acc);
}

/// Macro-kernel: one packed A block against one packed B panel.
template <typename T>
void macro_kernel(int mb, int nb, int kb, T alpha, const T* ap, const T* bp,
                  T* c, int ldc, bool first_k, T beta) {
  constexpr int mr_t = Tile<T>::mr;
  constexpr int nr_t = Tile<T>::nr;
  for (int jr = 0, jt = 0; jr < nb; jr += nr_t, ++jt) {
    const int nr = std::min(nr_t, nb - jr);
    const T* bpp = bp + static_cast<long>(jt) * kb * nr_t;
    for (int ir = 0, it = 0; ir < mb; ir += mr_t, ++it) {
      const int mr = std::min(mr_t, mb - ir);
      const T* app = ap + static_cast<long>(it) * kb * mr_t;
      T acc[mr_t * nr_t];
      micro_kernel_isa(kb, app, bpp, acc);
      write_back(mr, nr, alpha, acc, c + ir + static_cast<long>(jr) * ldc,
                 ldc, first_k, beta);
    }
  }
}

/// The Goto loop nest, parameterized over a team slice. Member `tid` of
/// `nthreads` cooperatively packs the shared B panel (tile-interleaved),
/// then takes every nthreads-th MC block of A, packing it privately. Two
/// barriers per (jc, pc) step keep the shared panel coherent. With
/// nthreads == 1 and a no-op barrier this is the sequential path.
template <typename T, typename BarrierFn>
void gemm_packed_region(Trans ta, Trans tb, int m, int n, int k, T alpha,
                        const T* a, int lda, const T* b, int ldb, T beta,
                        T* c, int ldc, const BlockSizes& bs, int tid,
                        int nthreads, T* bp_shared, BarrierFn&& barrier) {
  constexpr int mr_t = Tile<T>::mr;
  constexpr int nr_t = Tile<T>::nr;
  T* ap = scratch<T>().a.template ensure<T>(
      static_cast<std::size_t>(round_up(bs.mc, mr_t)) * bs.kc);
  const int mc_blocks = ceil_div(m, bs.mc);
  for (int jc = 0; jc < n; jc += bs.nc) {
    const int nb = std::min(bs.nc, n - jc);
    const int nb_tiles = ceil_div(nb, nr_t);
    for (int pc = 0; pc < k; pc += bs.kc) {
      const int kb = std::min(bs.kc, k - pc);
      const bool first_k = pc == 0;
      for (int t = tid; t < nb_tiles; t += nthreads) {
        const int j0 = t * nr_t;
        pack_b(tb, kb, std::min(nr_t, nb - j0),
               op_b_ptr(tb, b, ldb, pc, jc + j0), ldb,
               bp_shared + static_cast<long>(t) * kb * nr_t);
      }
      barrier();
      for (int blk = tid; blk < mc_blocks; blk += nthreads) {
        const int ic = blk * bs.mc;
        const int mb = std::min(bs.mc, m - ic);
        pack_a(ta, mb, kb, op_a_ptr(ta, a, lda, ic, pc), lda, ap);
        macro_kernel(mb, nb, kb, alpha, ap, bp_shared,
                     c + ic + static_cast<long>(jc) * ldc, ldc, first_k,
                     beta);
      }
      barrier();
    }
  }
}

/// Internal gemm used by trsm's trailing updates: never tries to take
/// the team (the caller may already hold the lease).
template <typename T>
void gemm_sequential(Trans ta, Trans tb, int m, int n, int k, T alpha,
                     const T* a, int lda, const T* b, int ldb, T beta, T* c,
                     int ldc) {
  if (2.0 * m * n * k < kPackFlopCutoff) {
    gemm_small(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  const BlockSizes bs = block_sizes_for<T>();
  T* bp = scratch<T>().b.template ensure<T>(
      static_cast<std::size_t>(round_up(bs.nc, Tile<T>::nr)) * bs.kc);
  gemm_packed_region(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                     bs, 0, 1, bp, [] {});
}

template <typename T>
void gemm_impl(Trans ta, Trans tb, int m, int n, int k, T alpha, const T* a,
               int lda, const T* b, int ldb, T beta, T* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  HPLX_CHECK(ldc >= m);
  HPLX_CHECK(lda >= ((ta == Trans::No) ? std::max(1, m) : std::max(1, k)));
  HPLX_CHECK(ldb >= ((tb == Trans::No) ? std::max(1, k) : std::max(1, n)));

  if (k <= 0 || alpha == T(0)) {
    // Degenerate multiply: only the beta scaling of C remains.
    for (int j = 0; j < n; ++j) {
      T* ccol = c + static_cast<long>(j) * ldc;
      if (beta == T(0)) {
        for (int i = 0; i < m; ++i) ccol[i] = T(0);
      } else if (beta != T(1)) {
        for (int i = 0; i < m; ++i) ccol[i] *= beta;
      }
    }
    return;
  }

  const double flops = 2.0 * m * n * k;
  if (flops < kPackFlopCutoff) {
    gemm_small(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  const BlockSizes bs = block_sizes_for<T>();
  if (flops >= kTeamFlopCutoff) {
    detail::TeamLease lease;
    if (ThreadTeam* team = lease.team()) {
      const int nthreads = team->size();
      T* bp = team_b<T>().template ensure<T>(
          static_cast<std::size_t>(round_up(bs.nc, Tile<T>::nr)) * bs.kc);
      team->run([&](int tid) {
        gemm_packed_region(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                           ldc, bs, tid, nthreads, bp,
                           [&] { team->barrier(); });
      });
      return;
    }
  }
  T* bp = scratch<T>().b.template ensure<T>(
      static_cast<std::size_t>(round_up(bs.nc, Tile<T>::nr)) * bs.kc);
  gemm_packed_region(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                     bs, 0, 1, bp, [] {});
}

/// Unblocked forward substitution: L(tb×tb) * X = B on the block's rows,
/// vectorized across the n right-hand sides.
template <typename T>
void trsm_unblocked_lower(Diag diag, int tb, int n, const T* a, int lda,
                          T* b, int ldb) {
  const bool unit = diag == Diag::Unit;
  for (int p = 0; p < tb; ++p) {
    if (!unit) {
      const T d = a[static_cast<long>(p) * lda + p];
      for (int j = 0; j < n; ++j) b[static_cast<long>(j) * ldb + p] /= d;
    }
    const T* acol = a + static_cast<long>(p) * lda;
    for (int j = 0; j < n; ++j) {
      T* bcol = b + static_cast<long>(j) * ldb;
      const T t = bcol[p];
      if (t == T(0)) continue;
      for (int i = p + 1; i < tb; ++i) bcol[i] -= acol[i] * t;
    }
  }
}

/// Unblocked back substitution: U(tb×tb) * X = B on the block's rows.
template <typename T>
void trsm_unblocked_upper(Diag diag, int tb, int n, const T* a, int lda,
                          T* b, int ldb) {
  const bool unit = diag == Diag::Unit;
  for (int p = tb - 1; p >= 0; --p) {
    if (!unit) {
      const T d = a[static_cast<long>(p) * lda + p];
      for (int j = 0; j < n; ++j) b[static_cast<long>(j) * ldb + p] /= d;
    }
    const T* acol = a + static_cast<long>(p) * lda;
    for (int j = 0; j < n; ++j) {
      T* bcol = b + static_cast<long>(j) * ldb;
      const T t = bcol[p];
      if (t == T(0)) continue;
      for (int i = 0; i < p; ++i) bcol[i] -= acol[i] * t;
    }
  }
}

/// Right-looking blocked solve for the Side::Left, Trans::No cases: solve
/// a kTrsmBlock diagonal block unblocked, then fold its rows into the
/// remaining RHS rows with one packed gemm — the bulk of the flops runs
/// at gemm speed instead of scalar-substitution speed.
template <typename T>
void trsm_left_notrans_blocked(Uplo uplo, Diag diag, int m, int n, const T* a,
                               int lda, T* b, int ldb) {
  if (uplo == Uplo::Lower) {
    for (int p0 = 0; p0 < m; p0 += kTrsmBlock) {
      const int tb = std::min(kTrsmBlock, m - p0);
      trsm_unblocked_lower(diag, tb, n, a + p0 + static_cast<long>(p0) * lda,
                           lda, b + p0, ldb);
      const int rem = m - p0 - tb;
      if (rem > 0) {
        gemm_sequential(Trans::No, Trans::No, rem, n, tb, T(-1),
                        a + p0 + tb + static_cast<long>(p0) * lda, lda,
                        b + p0, ldb, T(1), b + p0 + tb, ldb);
      }
    }
  } else {
    for (int p1 = m; p1 > 0;) {
      const int tb = std::min(kTrsmBlock, p1);
      const int p0 = p1 - tb;
      trsm_unblocked_upper(diag, tb, n, a + p0 + static_cast<long>(p0) * lda,
                           lda, b + p0, ldb);
      if (p0 > 0) {
        gemm_sequential(Trans::No, Trans::No, p0, n, tb, T(-1),
                        a + static_cast<long>(p0) * lda, lda, b + p0, ldb,
                        T(1), b, ldb);
      }
      p1 = p0;
    }
  }
}

/// Sequential trsm over one slice of B: alpha scaling plus the solve.
/// Side::Left slices are column ranges of B; Side::Right slices are row
/// ranges — both are independent across the slicing dimension, which is
/// what makes the team split embarrassingly parallel.
template <typename T>
void trsm_serial(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
                 T alpha, const T* a, int lda, T* b, int ldb) {
  auto A = [&](int i, int j) -> T {
    return a[static_cast<long>(j) * lda + i];
  };
  auto Bv = [&](int i, int j) -> T& {
    return b[static_cast<long>(j) * ldb + i];
  };

  if (alpha != T(1)) {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) Bv(i, j) *= alpha;
  }

  if (side == Side::Left) {
    if (trans == Trans::No) {
      trsm_left_notrans_blocked(uplo, diag, m, n, a, lda, b, ldb);
    } else {
      // op(A) = A^T. Solving A^T X = B with A lower is the same as solving
      // an upper system with A's transpose.
      const bool unit = diag == Diag::Unit;
      if (uplo == Uplo::Lower) {
        for (int p = m - 1; p >= 0; --p) {
          for (int j = 0; j < n; ++j) {
            T acc = Bv(p, j);
            for (int i = p + 1; i < m; ++i) acc -= A(i, p) * Bv(i, j);
            Bv(p, j) = unit ? acc : acc / A(p, p);
          }
        }
      } else {
        for (int p = 0; p < m; ++p) {
          for (int j = 0; j < n; ++j) {
            T acc = Bv(p, j);
            for (int i = 0; i < p; ++i) acc -= A(i, p) * Bv(i, j);
            Bv(p, j) = unit ? acc : acc / A(p, p);
          }
        }
      }
    }
  } else {  // Side::Right: X * op(A) = B
    const bool unit = diag == Diag::Unit;
    if (trans == Trans::No) {
      if (uplo == Uplo::Upper) {
        // X * U = B: columns solved left to right.
        for (int p = 0; p < n; ++p) {
          for (int q = 0; q < p; ++q) {
            const T t = A(q, p);
            if (t == T(0)) continue;
            for (int i = 0; i < m; ++i) Bv(i, p) -= Bv(i, q) * t;
          }
          if (!unit) {
            const T d = A(p, p);
            for (int i = 0; i < m; ++i) Bv(i, p) /= d;
          }
        }
      } else {
        // X * L = B: columns solved right to left.
        for (int p = n - 1; p >= 0; --p) {
          for (int q = p + 1; q < n; ++q) {
            const T t = A(q, p);
            if (t == T(0)) continue;
            for (int i = 0; i < m; ++i) Bv(i, p) -= Bv(i, q) * t;
          }
          if (!unit) {
            const T d = A(p, p);
            for (int i = 0; i < m; ++i) Bv(i, p) /= d;
          }
        }
      }
    } else {
      if (uplo == Uplo::Upper) {
        // X * U^T = B: right to left.
        for (int p = n - 1; p >= 0; --p) {
          for (int q = p + 1; q < n; ++q) {
            const T t = A(p, q);
            if (t == T(0)) continue;
            for (int i = 0; i < m; ++i) Bv(i, p) -= Bv(i, q) * t;
          }
          if (!unit) {
            const T d = A(p, p);
            for (int i = 0; i < m; ++i) Bv(i, p) /= d;
          }
        }
      } else {
        // X * L^T = B: left to right.
        for (int p = 0; p < n; ++p) {
          for (int q = 0; q < p; ++q) {
            const T t = A(p, q);
            if (t == T(0)) continue;
            for (int i = 0; i < m; ++i) Bv(i, p) -= Bv(i, q) * t;
          }
          if (!unit) {
            const T d = A(p, p);
            for (int i = 0; i < m; ++i) Bv(i, p) /= d;
          }
        }
      }
    }
  }
}

template <typename T>
void trsm_impl(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
               T alpha, const T* a, int lda, T* b, int ldb) {
  if (m <= 0 || n <= 0) return;
  HPLX_CHECK(ldb >= m);
  const int na = (side == Side::Left) ? m : n;
  HPLX_CHECK(lda >= std::max(1, na));

  // Independent-slice team split: columns of B for Left (each RHS column
  // solves alone), rows of B for Right (each X row solves alone). Every
  // member runs the full serial solve on its slice — no barriers, no
  // shared writes, and results match the serial order bit-for-bit.
  const int splittable = (side == Side::Left) ? n : m;
  const double work = static_cast<double>(na) * na * ((side == Side::Left)
                                                         ? n
                                                         : m);
  if (work >= kTeamFlopCutoff && splittable >= 2 * kTrsmSliceMin) {
    detail::TeamLease lease;
    if (ThreadTeam* team = lease.team()) {
      const int nthreads = team->size();
      team->run([&](int tid) {
        const int chunk = ceil_div(splittable, nthreads);
        const int lo = std::min(splittable, tid * chunk);
        const int hi = std::min(splittable, lo + chunk);
        if (lo >= hi) return;
        if (side == Side::Left) {
          trsm_serial(side, uplo, trans, diag, m, hi - lo, alpha, a, lda,
                      b + static_cast<long>(lo) * ldb, ldb);
        } else {
          trsm_serial(side, uplo, trans, diag, hi - lo, n, alpha, a, lda,
                      b + lo, ldb);
        }
      });
      return;
    }
  }
  trsm_serial(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
}

}  // namespace

const char* kernel_isa() {
#if HPLX_ISA_CLONES
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "default";
}

void dgemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc) {
  gemm_impl<double>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void sgemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc) {
  gemm_impl<float>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
           double alpha, const double* a, int lda, double* b, int ldb) {
  trsm_impl<double>(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
}

void strsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
           float alpha, const float* a, int lda, float* b, int ldb) {
  trsm_impl<float>(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
}

}  // namespace hplx::blas
