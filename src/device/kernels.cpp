#include "device/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "blas/blas.hpp"
#include "device/engine.hpp"
#include "util/error.hpp"

namespace hplx::device {

namespace {
int as_int(long v) {
  HPLX_CHECK_MSG(v >= 0 && v <= 0x7fffffffL, "dimension too large: " << v);
  return static_cast<int>(v);
}
}  // namespace

template <typename T>
void gemm(Stream& s, long m, long n, long k, T alpha, const T* a, long lda,
          const T* b, long ldb, T beta, T* c, long ldc) {
  if (m <= 0 || n <= 0) return;
  const Precision prec = DeviceModel::precision_for_elem(sizeof(T));
  const double modeled = s.device().model().gemm_seconds(m, n, k, prec);
  // The stream worker thread runs the same process-global packed BLAS-3
  // engine as host code: large updates lease the shared thread team
  // (blas::set_num_threads / HplConfig::blas_threads) when it is free, and
  // fall back to the sequential packed path when FACT holds it.
  s.enqueue_annotated(
      modeled, "gemm",
      {span_matrix(a, m, k, lda, false), span_matrix(b, k, n, ldb, false),
       span_matrix(c, m, n, ldc, true)},
      [=] {
        blas::gemm(blas::Trans::No, blas::Trans::No, as_int(m), as_int(n),
                   as_int(k), alpha, a, as_int(lda), b, as_int(ldb), beta, c,
                   as_int(ldc));
      });
}

template <typename T>
void trsm_left_lower_unit(Stream& s, long nb, long n, const T* l1, long ldl,
                          T* u, long ldu) {
  if (nb <= 0 || n <= 0) return;
  const Precision prec = DeviceModel::precision_for_elem(sizeof(T));
  const double modeled = s.device().model().trsm_seconds(nb, n, prec);
  s.enqueue_annotated(
      modeled, "trsm",
      {span_matrix(l1, nb, nb, ldl, false), span_matrix(u, nb, n, ldu, true)},
      [=] {
        blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
                   blas::Diag::Unit, as_int(nb), as_int(n), T(1), l1,
                   as_int(ldl), u, as_int(ldu));
      });
}

template <typename T>
void trsm_upper(Stream& s, long n, long nrhs, const T* u, long ldu, T* x,
                long ldx) {
  if (n <= 0 || nrhs <= 0) return;
  const Precision prec = DeviceModel::precision_for_elem(sizeof(T));
  const double modeled = s.device().model().trsm_seconds(n, nrhs, prec);
  s.enqueue_annotated(
      modeled, "trsm_upper",
      {span_matrix(u, n, n, ldu, false), span_matrix(x, n, nrhs, ldx, true)},
      [=] {
        // Right-to-left over diagonal blocks: back-substitute the block
        // sequentially in every RHS column, then retire its contribution
        // to every row above it. The prefix update is the engine-parallel
        // part — disjoint row ranges of X never alias, so they tile like
        // columns do in the data-motion kernels, and the per-element
        // accumulation order (j ascending within the block, blocks
        // right-to-left) is fixed regardless of tiling.
        constexpr long kBlock = 64;
        for (long j1 = n; j1 > 0; j1 -= kBlock) {
          const long j0 = std::max<long>(0, j1 - kBlock);
          for (long rhs = 0; rhs < nrhs; ++rhs) {
            T* xcol = x + rhs * ldx;
            for (long j = j1 - 1; j >= j0; --j) {
              const T* ucol = u + j * ldu;
              xcol[j] /= ucol[j];
              const T t = xcol[j];
              for (long i = j0; i < j; ++i) xcol[i] -= t * ucol[i];
            }
          }
          if (j0 > 0) {
            run_column_tiles(j0, [&](long r0, long r1) {
              for (long rhs = 0; rhs < nrhs; ++rhs) {
                T* xcol = x + rhs * ldx;
                for (long j = j0; j < j1; ++j) {
                  const T* ucol = u + j * ldu;
                  const T t = xcol[j];
                  for (long i = r0; i < r1; ++i) xcol[i] -= t * ucol[i];
                }
              }
            });
          }
        }
      });
}

namespace {
/// Shared body of the strided m×n column-major copies: one memcpy per
/// column, column tiles fanned out over the engine. When both sides are
/// gap-free the whole tile collapses into a single memcpy.
template <typename T>
void tiled_matrix_copy(long m, long n, const T* src, long lds, T* dst,
                       long ldd) {
  run_column_tiles(n, [&](long c0, long c1) {
    if (lds == m && ldd == m) {
      std::memcpy(dst + c0 * m, src + c0 * m,
                  static_cast<std::size_t>(m) * (c1 - c0) * sizeof(T));
      return;
    }
    for (long j = c0; j < c1; ++j)
      std::memcpy(dst + j * ldd, src + j * lds,
                  static_cast<std::size_t>(m) * sizeof(T));
  });
}

template <typename T>
void strided_hcopy(Stream& s, const char* what, long m, long n, const T* src,
                   long lds, T* dst, long ldd) {
  if (m <= 0 || n <= 0) return;
  const std::size_t bytes =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n) * sizeof(T);
  const double modeled = s.device().model().hcopy_seconds(bytes);
  s.enqueue_annotated(
      modeled, what,
      {span_matrix(src, m, n, lds, false), span_matrix(dst, m, n, ldd, true)},
      [=] { tiled_matrix_copy(m, n, src, lds, dst, ldd); });
}
}  // namespace

template <typename T>
void copy_matrix_h2d(Stream& s, long m, long n, const T* src, long lds,
                     T* dst, long ldd) {
  strided_hcopy(s, "copy_matrix_h2d", m, n, src, lds, dst, ldd);
}

template <typename T>
void copy_matrix_d2h(Stream& s, long m, long n, const T* src, long lds,
                     T* dst, long ldd) {
  strided_hcopy(s, "copy_matrix_d2h", m, n, src, lds, dst, ldd);
}

// The row-swap kernels below all iterate column-by-column inside a tile,
// with the row list in the inner loop: every inner iteration touches a
// single column of the column-major matrix (one contiguous lda-spaced
// region, so nearby pivot rows share cache lines) and the packed side is
// walked within one cache-resident column. The seed kernels iterated rows
// outermost with columns inside — one cache line touched per element at
// HPL trailing-window widths. Both bodies visit the matrix rows in
// ascending address order (the row list is sorted once per call) so each
// column is a monotone sweep the hardware prefetcher can follow instead
// of a random walk.

namespace {
/// (sorted matrix row, original slot) pairs for a row list.
std::vector<std::pair<long, long>> sorted_rows(const std::vector<long>& rows) {
  std::vector<std::pair<long, long>> order(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    order[i] = {rows[i], static_cast<long>(i)};
  std::sort(order.begin(), order.end());
  return order;
}

/// Prefetch distance for the scattered per-column row walks: far enough to
/// cover a memory round-trip, short enough to stay inside the column.
constexpr long kPrefetchAhead = 24;

template <typename T>
inline void prefetch_row(const T* acol, const std::pair<long, long>* op,
                         long i, long nr) {
  if (i + kPrefetchAhead < nr)
    __builtin_prefetch(acol + op[i + kPrefetchAhead].first, 0, 3);
}

template <typename T>
inline void prefetch_row_w(T* acol, const std::pair<long, long>* op, long i,
                           long nr) {
  if (i + kPrefetchAhead < nr)
    __builtin_prefetch(acol + op[i + kPrefetchAhead].first, 1, 3);
}

/// Shared body of row_gather and pack_rows_cm: out(r, :) := a(rows[r], :).
template <typename T>
void gather_rows(Stream& s, const char* what, const T* a, long lda,
                 std::vector<long> rows, long n, T* out, long ldo) {
  if (rows.empty() || n <= 0) return;
  const double modeled = s.device().model().rowswap_seconds(
      static_cast<long>(rows.size()), n, sizeof(T));
  auto order = sorted_rows(rows);
  // Conservative row-band envelope: rows [rmin, rmax] of every column.
  const long rmin = order.front().first;
  const long rmax = order.back().first;
  const long nr0 = static_cast<long>(order.size());
  s.enqueue_annotated(
      modeled, what,
      {span_matrix(a + rmin, rmax - rmin + 1, n, lda, false),
       span_matrix(out, nr0, n, ldo, true)},
      [=, order = std::move(order)] {
    const long nr = static_cast<long>(order.size());
    const std::pair<long, long>* op = order.data();
    run_column_tiles(n, [&](long c0, long c1) {
      for (long c = c0; c < c1; ++c) {
        const T* acol = a + c * lda;
        T* ocol = out + c * ldo;
        // Reads sweep the column upward; the shuffled writes stay inside
        // one nr-length output column (a few KB, cache-resident).
        for (long r = 0; r < nr; ++r) {
          prefetch_row(acol, op, r, nr);
          ocol[op[r].second] = acol[op[r].first];
        }
      }
    });
  });
}

/// Shared body of row_scatter and unpack_rows_cm: a(rows[r], :) := in(r, :).
template <typename T>
void scatter_rows(Stream& s, const char* what, T* a, long lda,
                  std::vector<long> rows, long n, const T* in, long ldi) {
  if (rows.empty() || n <= 0) return;
  const double modeled = s.device().model().rowswap_seconds(
      static_cast<long>(rows.size()), n, sizeof(T));
  auto order = sorted_rows(rows);
  const long rmin = order.front().first;
  const long rmax = order.back().first;
  const long nr0 = static_cast<long>(order.size());
  s.enqueue_annotated(
      modeled, what,
      {span_matrix(a + rmin, rmax - rmin + 1, n, lda, true),
       span_matrix(in, nr0, n, ldi, false)},
      [=, order = std::move(order)] {
    const long nr = static_cast<long>(order.size());
    const std::pair<long, long>* op = order.data();
    run_column_tiles(n, [&](long c0, long c1) {
      for (long c = c0; c < c1; ++c) {
        T* acol = a + c * lda;
        const T* icol = in + c * ldi;
        // Destinations sweep the column upward (rows are distinct, so the
        // reorder cannot change which write wins); the shuffled reads stay
        // inside one cache-resident input column.
        for (long r = 0; r < nr; ++r) {
          prefetch_row_w(acol, op, r, nr);
          acol[op[r].first] = icol[op[r].second];
        }
      }
    });
  });
}
}  // namespace

template <typename T>
void row_gather(Stream& s, const T* a, long lda, std::vector<long> rows,
                long n, T* out, long ldo) {
  gather_rows(s, "row_gather", a, lda, std::move(rows), n, out, ldo);
}

template <typename T>
void row_scatter(Stream& s, T* a, long lda, std::vector<long> rows, long n,
                 const T* in, long ldi) {
  scatter_rows(s, "row_scatter", a, lda, std::move(rows), n, in, ldi);
}

template <typename T>
void pack_rows_cm(Stream& s, const T* a, long lda, std::vector<long> rows,
                  long n, T* out_colmajor) {
  const long nr = static_cast<long>(rows.size());
  gather_rows(s, "pack_rows_cm", a, lda, std::move(rows), n, out_colmajor, nr);
}

template <typename T>
void unpack_rows_cm(Stream& s, const T* in_colmajor, std::vector<long> rows,
                    long n, T* a, long lda) {
  const long nr = static_cast<long>(rows.size());
  scatter_rows(s, "unpack_rows_cm", a, lda, std::move(rows), n, in_colmajor,
               nr);
}

template <typename T>
void laswp(Stream& s, T* a, long lda, long n, std::vector<long> ipiv) {
  if (ipiv.empty() || n <= 0) return;
  const double modeled = s.device().model().rowswap_seconds(
      static_cast<long>(ipiv.size()), n, sizeof(T));
  // Swaps touch rows [0, max(np-1, max ipiv)] of every column.
  long rmax = static_cast<long>(ipiv.size()) - 1;
  for (long p : ipiv) rmax = std::max(rmax, p);
  s.enqueue_annotated(modeled, "laswp",
                      {span_matrix(a, rmax + 1, n, lda, true)},
                      [=, ipiv = std::move(ipiv)] {
    const std::size_t np = ipiv.size();
    const long* pp = ipiv.data();
    // Swaps alias *rows*, so the sequential pivot order must be preserved
    // within every column — but columns never interact, which makes the
    // column tile the dependency-safe parallel unit: each tile replays the
    // full pivot sequence in order over its own columns.
    run_column_tiles(n, [&](long c0, long c1) {
      for (long c = c0; c < c1; ++c) {
        T* col = a + c * lda;
        for (std::size_t k = 0; k < np; ++k) {
          const long other = pp[k];
          if (other == static_cast<long>(k)) continue;
          std::swap(col[static_cast<long>(k)], col[other]);
        }
      }
    });
  });
}

// Explicit instantiations: double (classic HPL) and float (HPL-MxP).
#define HPLX_INSTANTIATE_KERNELS(T)                                           \
  template void gemm<T>(Stream&, long, long, long, T, const T*, long,         \
                        const T*, long, T, T*, long);                         \
  template void trsm_left_lower_unit<T>(Stream&, long, long, const T*, long,  \
                                        T*, long);                            \
  template void trsm_upper<T>(Stream&, long, long, const T*, long, T*, long); \
  template void copy_matrix_h2d<T>(Stream&, long, long, const T*, long, T*,   \
                                   long);                                     \
  template void copy_matrix_d2h<T>(Stream&, long, long, const T*, long, T*,   \
                                   long);                                     \
  template void row_gather<T>(Stream&, const T*, long, std::vector<long>,     \
                              long, T*, long);                                \
  template void row_scatter<T>(Stream&, T*, long, std::vector<long>, long,    \
                               const T*, long);                               \
  template void laswp<T>(Stream&, T*, long, long, std::vector<long>);         \
  template void pack_rows_cm<T>(Stream&, const T*, long, std::vector<long>,   \
                                long, T*);                                    \
  template void unpack_rows_cm<T>(Stream&, const T*, std::vector<long>,       \
                                  long, T*, long)

HPLX_INSTANTIATE_KERNELS(double);
HPLX_INSTANTIATE_KERNELS(float);

#undef HPLX_INSTANTIATE_KERNELS

}  // namespace hplx::device
