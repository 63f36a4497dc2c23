#pragma once
/// \file kernels.hpp
/// \brief Device kernels: asynchronous operations enqueued on a Stream.
///
/// The set mirrors what rocHPL launches on each GCD: rocBLAS dgemm/dtrsm
/// for the trailing update, host<->device panel copies for FACT, and the
/// row gather/scatter kernels used by the row-swapping phase (§II, Fig 2c:
/// "a GPU kernel to gather the rows to be communicated, followed by MPI
/// communication, and a GPU kernel to scatter the received rows back").
///
/// Every kernel is a template over the element type T, instantiated for
/// double (the classic HPL path) and float (the HPL-MxP mxp32 engine).
/// Compute kernels bill their modeled time at
/// `DeviceModel::precision_for_elem(sizeof(T))` — FP64 for double, FP32
/// for float — and data-motion kernels charge bytes via sizeof(T), so the
/// float pipeline's wire and copy traffic is naturally half the fp64
/// pipeline's.
///
/// All matrix pointers refer to device buffers (column-major, leading
/// dimension in elements). Host-side index vectors are captured by value
/// at enqueue time, so callers may reuse them immediately.
///
/// The data-motion kernels (row gather/scatter and their packed-wire
/// forms, laswp, and the strided matrix copies) execute on the
/// column-tiled engine of engine.hpp: column tiles fan out over the leased BLAS thread team with
/// a sequential fallback, and inner loops run down contiguous columns.
/// Results are bitwise identical for every tile width and team size. The
/// *modeled* durations still come from DeviceModel (they describe the
/// simulated accelerator, whose kernels are parallel either way); the
/// stream's real_busy_seconds wall clock naturally reflects the teamed
/// execution, since the tiles run inside the enqueued op.

#include <cstddef>
#include <vector>

#include "device/stream.hpp"

namespace hplx::device {

/// C := alpha·A·B + beta·C on the stream's device (no-transpose form, the
/// only one HPL's update needs).
template <typename T>
void gemm(Stream& s, long m, long n, long k, T alpha, const T* a, long lda,
          const T* b, long ldb, T beta, T* c, long ldc);

/// U := L1^{-1}·U where L1 is nb×nb unit lower triangular: the U update of
/// HPL's trailing phase (dtrsm Left/Lower/NoTrans/Unit).
template <typename T>
void trsm_left_lower_unit(Stream& s, long nb, long n, const T* l1, long ldl,
                          T* u, long ldu);

/// Solve U·X = B in place over an n×nrhs column-major RHS panel X
/// (ld = ldx), U an n×n non-unit upper triangle read directly from device
/// memory: backsolve's diagonal-block stage without the d2h staging copy,
/// and (nrhs = 1) refinement's backward sweep. Blocked right-to-left: each
/// diagonal block back-substitutes every RHS column sequentially, then the
/// prefix update X[0..j0, :] -= U(0..j0, j0..j1)·X(j0..j1, :) fans its
/// disjoint row ranges out over the column-tiled engine. Bitwise identical
/// for every tile width and team size (each X element is written by
/// exactly one tile, inner accumulation order fixed), and each RHS column
/// is solved with the same per-element order whatever nrhs is.
template <typename T>
void trsm_upper(Stream& s, long n, long nrhs, const T* u, long ldu, T* x,
                long ldx);

/// Strided matrix copies across the host link (charged at host<->device
/// bandwidth): the panel staging transfers of the FACT phase, and the
/// no-pivot U broadcast's staging. U needs no device-to-device copy: it
/// is assembled where the update reads it (core/update.hpp).
template <typename T>
void copy_matrix_h2d(Stream& s, long m, long n, const T* src, long lds,
                     T* dst, long ldd);
template <typename T>
void copy_matrix_d2h(Stream& s, long m, long n, const T* src, long lds,
                     T* dst, long ldd);

/// out(r, :) := a(rows[r], :) for r = 0..rows.size()-1, over n columns.
template <typename T>
void row_gather(Stream& s, const T* a, long lda, std::vector<long> rows,
                long n, T* out, long ldo);

/// a(rows[r], :) := in(r, :) — the inverse scatter. `rows` must be
/// distinct (every caller scatters into disjoint slots); the kernel
/// reorders the writes by ascending destination row.
template <typename T>
void row_scatter(Stream& s, T* a, long lda, std::vector<long> rows, long n,
                 const T* in, long ldi);

/// Local row interchanges: for k = 0..ipiv.size()-1 swap rows k and
/// ipiv[k] of the m×n matrix (both indices local). Used when all pivot
/// rows are on one process.
template <typename T>
void laswp(Stream& s, T* a, long lda, long n, std::vector<long> ipiv);

/// Column-major wire format: out[c*nr + i] = a(rows[i], c), i.e. the
/// packed buffer is an nr×n column-major matrix (ld = nr = rows.size()).
/// This is row_gather with ldo = nr: both sides walk contiguous columns,
/// and the receive side can unpack any sub-range of wire columns
/// independently (the per-chunk delivery path of the pipelined row swap).
/// It packs both halves of the swap traffic — each rank's U rows for the
/// allgatherv, and the diagonal row's displaced rows, one segment per
/// destination owner, for the scatterv.
template <typename T>
void pack_rows_cm(Stream& s, const T* a, long lda, std::vector<long> rows,
                  long n, T* out_colmajor);

/// Inverse of pack_rows_cm: a(rows[i], c) = in[c*nr + i], i.e. row_scatter
/// with ldi = nr. `rows` must be distinct.
template <typename T>
void unpack_rows_cm(Stream& s, const T* in_colmajor, std::vector<long> rows,
                    long n, T* a, long lda);

}  // namespace hplx::device
