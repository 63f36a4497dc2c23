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
/// Right-looking block size for the trsm diagonal solves. Part of the
/// arithmetic: the block boundaries decide which subtractions run one at a
/// time in the leaf and which are summed first by a micro-kernel, so a
/// different size moves bits.
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

}  // namespace

/// Small-problem path. Must be bitwise-compatible with the packed engine:
/// HPL's pipeline modes slice one logical update into differently shaped
/// gemm calls and still expect identical results, and which engine runs
/// depends on the call's flop count. So this path mirrors the packed
/// engine's arithmetic exactly — per element, a register dot product of
/// fused steps over each KC block of k in order, beta applied with the
/// first block only, alpha applied once per block at write-back (never
/// folded into terms). Each kernel version carries its own build of the
/// body (microkernel.hpp's gemm_small_body), so the fused step is one
/// instruction wherever the ISA has it.
template <typename T>
void detail::gemm_small(Trans ta, Trans tb, int m, int n, int k, T alpha,
                        const T* a, int lda, const T* b, int ldb, T beta,
                        T* c, int ldc) {
  resolved<T>().gemm_small(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                           ldc);
}

namespace {

/// The m×1 product with op(A) = A (refinement corrections, single-RHS
/// backsolve): a column-axpy sweep, acc = fma(A(:, p), op(B)(p), acc) for
/// p in order, that streams A once instead of packing it into mr-row
/// panels and computing nr−1 zero-padded columns per tile. Per KC block
/// each acc[i] starts from zero and takes its fused steps in k order, and
/// alpha/beta apply at write-back exactly as in gemm_small, so the bits
/// match it. The accumulator is the calling thread's A-packing scratch,
/// idle on this path.
template <typename T>
void gemm_column(const detail::KernelVersion<T>& kv, Trans tb, int m, int k,
                 T alpha, const T* a, int lda, const T* b, int ldb, T beta,
                 T* c) {
  const long bstride = tb == Trans::No ? 1 : ldb;
  const int kc = block_sizes_for<T>().kc;
  T* acc = scratch<T>().a.template ensure<T>(static_cast<std::size_t>(m));
  for (int p0 = 0; p0 < k; p0 += kc) {
    const int pe = std::min(k, p0 + kc);
    std::fill(acc, acc + m, T(0));
    for (int p = p0; p < pe; ++p)
      kv.column(m, b[p * bstride], a + static_cast<long>(p) * lda, acc);
    if (p0 > 0) {
      for (int i = 0; i < m; ++i) c[i] += alpha * acc[i];
    } else if (beta == T(0)) {
      for (int i = 0; i < m; ++i) c[i] = alpha * acc[i];
    } else {
      for (int i = 0; i < m; ++i) c[i] = alpha * acc[i] + beta * c[i];
    }
  }
}

/// Macro-kernel: one packed A block, in kv.mr-row panels, against one
/// packed B panel.
template <typename T>
void macro_kernel(const detail::KernelVersion<T>& kv, int mb, int nb, int kb,
                  T alpha, const T* ap, const T* bp, T* c, int ldc,
                  bool first_k, T beta) {
  const int mr_t = kv.mr;
  constexpr int nr_t = Tile<T>::nr;
  for (int jr = 0, jt = 0; jr < nb; jr += nr_t, ++jt) {
    const int nr = std::min(nr_t, nb - jr);
    const T* bpp = bp + static_cast<long>(jt) * kb * nr_t;
    for (int ir = 0, it = 0; ir < mb; ir += mr_t, ++it) {
      const int mr = std::min(mr_t, mb - ir);
      const T* app = ap + static_cast<long>(it) * kb * mr_t;
      T acc[kMaxMr * nr_t];
      kv.gemm(kb, app, bpp, acc);
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
void gemm_packed_region(const detail::KernelVersion<T>& kv, Trans ta,
                        Trans tb, int m, int n, int k, T alpha, const T* a,
                        int lda, const T* b, int ldb, T beta, T* c, int ldc,
                        const BlockSizes& bs, int tid, int nthreads,
                        T* bp_shared, BarrierFn&& barrier) {
  constexpr int nr_t = Tile<T>::nr;
  T* ap = scratch<T>().a.template ensure<T>(
      static_cast<std::size_t>(round_up(bs.mc, kv.mr)) * bs.kc);
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
        pack_a(ta, kv.mr, mb, kb, op_a_ptr(ta, a, lda, ic, pc), lda, ap);
        macro_kernel(kv, mb, nb, kb, alpha, ap, bp_shared,
                     c + ic + static_cast<long>(jc) * ldc, ldc, first_k,
                     beta);
      }
      barrier();
    }
  }
}

}  // namespace

/// The packed engine on the calling thread alone, with its own B panel.
template <typename T>
void detail::gemm_packed(const KernelVersion<T>& kv, Trans ta, Trans tb,
                         int m, int n, int k, T alpha, const T* a, int lda,
                         const T* b, int ldb, T beta, T* c, int ldc) {
  const BlockSizes bs = block_sizes_for<T>();
  T* bp = scratch<T>().b.template ensure<T>(
      static_cast<std::size_t>(round_up(bs.nc, Tile<T>::nr)) * bs.kc);
  gemm_packed_region(kv, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                     bs, 0, 1, bp, [] {});
}

/// Right-looking blocked solve, one kTrsmBlock diagonal block at a time
/// (top-down for lower, bottom-up for upper; the block boundaries fix the
/// rounding). Per block the rows it updates — L21 below it, or U01 above
/// — are packed once with pack_a. Then each nr-wide strip of B is packed,
/// solved in place by the version's packed leaf, copied back, and retired
/// from those rows by micro-kernels against the same packed strip, with
/// gemm's write-back C = alpha·acc + beta·C at alpha = −1, beta = 1 over
/// KC blocks in order — each row gets the bits gemm(−1, L21, X1, 1, B2)
/// would give it.
template <typename T>
void detail::trsm_left_notrans(const KernelVersion<T>& kv, Uplo uplo,
                               Diag diag, int m, int n, const T* a, int lda,
                               T* b, int ldb) {
  const int mr_t = kv.mr;
  constexpr int nr_t = Tile<T>::nr;
  const int kc = block_sizes_for<T>().kc;
  const bool lower = uplo == Uplo::Lower;
  Scratch& s = scratch<T>();
  T* bp = s.b.template ensure<T>(static_cast<std::size_t>(kTrsmBlock) * nr_t);
  for (int done = 0; done < m; done += kTrsmBlock) {
    const int tb = std::min(kTrsmBlock, m - done);
    const int p0 = lower ? done : m - done - tb;
    const int r0 = lower ? p0 + tb : 0;  // the rows this block updates
    const int nrows = lower ? m - r0 : p0;
    T* ap = s.a.template ensure<T>(
        static_cast<std::size_t>(round_up(nrows, mr_t)) * tb);
    pack_a(Trans::No, mr_t, nrows, tb, a + r0 + static_cast<long>(p0) * lda,
           lda, ap);
    for (int j0 = 0; j0 < n; j0 += nr_t) {
      const int nb = std::min(nr_t, n - j0);
      T* bj = b + static_cast<long>(j0) * ldb;
      pack_b(Trans::No, tb, nb, bj + p0, ldb, bp);
      kv.trsm_leaf(uplo, diag, tb, a + p0 + static_cast<long>(p0) * lda, lda,
                   bp);
      for (int j = 0; j < nb; ++j) {
        T* bcol = bj + p0 + static_cast<long>(j) * ldb;
        for (int p = 0; p < tb; ++p) bcol[p] = bp[p * nr_t + j];
      }
      for (int ir = 0; ir < nrows; ir += mr_t) {
        for (int pc = 0; pc < tb; pc += kc) {
          T acc[kMaxMr * nr_t];
          kv.gemm(std::min(kc, tb - pc), ap + static_cast<long>(ir) * tb +
                                             static_cast<long>(pc) * mr_t,
                  bp + static_cast<long>(pc) * nr_t, acc);
          write_back(std::min(mr_t, nrows - ir), nb, T(-1), acc,
                     bj + r0 + ir, ldb, pc == 0, T(1));
        }
      }
    }
  }
}

namespace {

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

  const detail::KernelVersion<T>& kv = detail::resolved<T>();
  if (n == 1 && ta == Trans::No) {
    gemm_column(kv, tb, m, k, alpha, a, lda, b, ldb, beta, c);
    return;
  }
  const double flops = 2.0 * m * n * k;
  if (flops < kPackFlopCutoff) {
    kv.gemm_small(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  if (flops >= kTeamFlopCutoff) {
    detail::TeamLease lease;
    if (ThreadTeam* team = lease.team()) {
      const BlockSizes bs = block_sizes_for<T>();
      const int nthreads = team->size();
      T* bp = team_b<T>().template ensure<T>(
          static_cast<std::size_t>(round_up(bs.nc, Tile<T>::nr)) * bs.kc);
      team->run([&](int tid) {
        gemm_packed_region(kv, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                           c, ldc, bs, tid, nthreads, bp,
                           [&] { team->barrier(); });
      });
      return;
    }
  }
  detail::gemm_packed(kv, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                      ldc);
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
      detail::trsm_left_notrans(detail::resolved<T>(), uplo, diag, m, n, a,
                                lda, b, ldb);
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

namespace detail {

template void gemm_small(Trans, Trans, int, int, int, double, const double*,
                         int, const double*, int, double, double*, int);
template void gemm_small(Trans, Trans, int, int, int, float, const float*, int,
                         const float*, int, float, float*, int);
template void gemm_packed(const KernelVersion<double>&, Trans, Trans, int,
                          int, int, double, const double*, int, const double*,
                          int, double, double*, int);
template void gemm_packed(const KernelVersion<float>&, Trans, Trans, int, int,
                          int, float, const float*, int, const float*, int,
                          float, float*, int);
template void trsm_left_notrans(const KernelVersion<double>&, Uplo, Diag, int,
                                int, const double*, int, double*, int);
template void trsm_left_notrans(const KernelVersion<float>&, Uplo, Diag, int,
                                int, const float*, int, float*, int);

}  // namespace detail

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
