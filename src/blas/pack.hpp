#pragma once
/// \file pack.hpp
/// \brief Panel packing for the blocked BLAS-3 engine (GotoBLAS layout).
///
/// gemm streams A and B through cache-resident packed tiles instead of
/// walking the caller's (possibly strided, possibly transposed) storage in
/// the inner loop:
///
///   - A blocks (MC×KC) are packed into row panels of Tile<T>::mr rows
///     each, laid out so the micro-kernel reads mr contiguous elements per
///     k step.
///   - B panels (KC×NC) are packed into column panels of Tile<T>::nr
///     columns each, nr contiguous elements per k step.
///
/// Both packers read through op(·), so every transpose combination funnels
/// into the same contiguous micro-kernel — there are no strided inner
/// loops left on the compute path. Ragged edges are zero-padded to full
/// mr/nr tiles; the micro-kernel always runs full tiles and the
/// write-back masks the padding.
///
/// The engine is instantiated per element type: `double` (the seed dgemm
/// path) and `float` (the HPL-MxP mxp32 path). Both use the same 4×8
/// micro-tile (see Tile below for why float does not go wider); the float
/// cache-blocking defaults double every MC/KC/NC count so the packed
/// panels hold twice the elements in comparable cache space, and fp32
/// moves twice the elements per cache line and vector op.

#include <cstddef>
#include <new>

#include "blas/blas.hpp"

namespace hplx::blas {

/// Per-element-type micro-tile shape. Both engines use a 4×8 tile: in the
/// AVX2 micro-kernel clone each accumulator row is two 32-byte vectors for
/// double and one for float, and the 4-row unroll keeps the whole block in
/// registers for either element type (the baseline SSE2 clone splits each
/// row into 16-byte halves). An 8×8 float tile — byte-parity with the
/// double tile — defeats gcc's vectorizer cost model and runs scalar, ~5x
/// slower; the narrower tile is what realizes fp32's 2x flop-density win.
template <typename T>
struct Tile;
template <>
struct Tile<double> {
  static constexpr int mr = 4;
  static constexpr int nr = 8;
};
template <>
struct Tile<float> {
  static constexpr int mr = 4;
  static constexpr int nr = 8;
};

/// Micro-tile rows/columns of the double engine (compat aliases; the
/// templated engine uses Tile<T>).
inline constexpr int kMR = Tile<double>::mr;
inline constexpr int kNR = Tile<double>::nr;

/// Runtime cache-blocking parameters (the MC/KC/NC of the Goto loop
/// ordering). Defaults keep one packed A block (MC×KC = 256 KiB) plus the
/// B stripe inside L2. Settable at runtime for experiments; values are
/// snapshotted at the top of each gemm call.
struct BlockSizes {
  int mc = 128;
  int kc = 256;
  int nc = 512;
};

/// Install new pack block sizes for the double engine (clamped to
/// multiples of kMR/kNR, minimum one tile). Not thread-safe against
/// in-flight dgemm calls; intended for configuration time.
void set_block_sizes(const BlockSizes& bs);
BlockSizes block_sizes();

/// Same knobs for the float engine. Defaults are 2x the double counts
/// (mc=256, kc=512, nc=1024): identical byte footprint, twice the
/// elements.
void set_block_sizes_f32(const BlockSizes& bs);
BlockSizes block_sizes_f32();

/// Per-type dispatch used by the templated engine.
template <typename T>
inline BlockSizes block_sizes_for();
template <>
inline BlockSizes block_sizes_for<double>() { return block_sizes(); }
template <>
inline BlockSizes block_sizes_for<float>() { return block_sizes_f32(); }

/// 64-byte-aligned, lazily grown scratch buffer. Packed tiles live here;
/// alignment keeps tile rows on cache-line boundaries so the vectorizer
/// can use aligned loads. Capacity is tracked in bytes so one buffer can
/// serve either element type (the templated engine keeps per-type
/// instances anyway; this just makes reuse safe).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { ::operator delete[](data_, std::align_val_t{64}); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grow (never shrink) to at least `count` elements of T and return the
  /// base. Defaults to double for the pre-template call sites.
  template <typename T = double>
  T* ensure(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (bytes > capacity_) {
      ::operator delete[](data_, std::align_val_t{64});
      data_ = ::operator new[](bytes, std::align_val_t{64});
      capacity_ = bytes;
    }
    return static_cast<T*>(data_);
  }

  double* data() { return static_cast<double*>(data_); }

 private:
  void* data_ = nullptr;
  std::size_t capacity_ = 0;  ///< bytes
};

/// Pack op(A)(ic:ic+mb, pc:pc+kb) into Tile<T>::mr-row panels at `ap`.
/// `a`/`lda` address the stored matrix; `trans` selects which axis is
/// rows of op(A). Rows past mb within the last tile are zero-filled.
/// Destination size: round_up(mb, mr) * kb elements.
template <typename T>
void pack_a(Trans trans, int mb, int kb, const T* a, int lda, T* ap) {
  constexpr int mr_t = Tile<T>::mr;
  if (trans == Trans::No) {
    // op(A)(i, p) = a[p*lda + i]: each tile column is a contiguous slice.
    for (int i0 = 0; i0 < mb; i0 += mr_t) {
      const int mr = (mb - i0 < mr_t) ? mb - i0 : mr_t;
      for (int p = 0; p < kb; ++p) {
        const T* acol = a + static_cast<long>(p) * lda + i0;
        T* dst = ap + static_cast<long>(p) * mr_t;
        for (int i = 0; i < mr; ++i) dst[i] = acol[i];
        for (int i = mr; i < mr_t; ++i) dst[i] = T(0);
      }
      ap += static_cast<long>(kb) * mr_t;
    }
  } else {
    // op(A)(i, p) = a[i*lda + p]: walk p down each stored column so the
    // reads stay stride-1 in the source.
    for (int i0 = 0; i0 < mb; i0 += mr_t) {
      const int mr = (mb - i0 < mr_t) ? mb - i0 : mr_t;
      for (int i = 0; i < mr; ++i) {
        const T* acol = a + static_cast<long>(i0 + i) * lda;
        for (int p = 0; p < kb; ++p)
          ap[static_cast<long>(p) * mr_t + i] = acol[p];
      }
      for (int i = mr; i < mr_t; ++i)
        for (int p = 0; p < kb; ++p)
          ap[static_cast<long>(p) * mr_t + i] = T(0);
      ap += static_cast<long>(kb) * mr_t;
    }
  }
}

/// Pack op(B)(pc:pc+kb, jc:jc+nb) into Tile<T>::nr-column panels at `bp`.
/// Columns past nb within the last tile are zero-filled.
/// Destination size: round_up(nb, nr) * kb elements.
template <typename T>
void pack_b(Trans trans, int kb, int nb, const T* b, int ldb, T* bp) {
  constexpr int nr_t = Tile<T>::nr;
  if (trans == Trans::No) {
    // op(B)(p, j) = b[j*ldb + p]: walk p down each stored column.
    for (int j0 = 0; j0 < nb; j0 += nr_t) {
      const int nr = (nb - j0 < nr_t) ? nb - j0 : nr_t;
      for (int j = 0; j < nr; ++j) {
        const T* bcol = b + static_cast<long>(j0 + j) * ldb;
        for (int p = 0; p < kb; ++p)
          bp[static_cast<long>(p) * nr_t + j] = bcol[p];
      }
      for (int j = nr; j < nr_t; ++j)
        for (int p = 0; p < kb; ++p)
          bp[static_cast<long>(p) * nr_t + j] = T(0);
      bp += static_cast<long>(kb) * nr_t;
    }
  } else {
    // op(B)(p, j) = b[p*ldb + j]: each tile row is a contiguous slice.
    for (int j0 = 0; j0 < nb; j0 += nr_t) {
      const int nr = (nb - j0 < nr_t) ? nb - j0 : nr_t;
      for (int p = 0; p < kb; ++p) {
        const T* brow = b + static_cast<long>(p) * ldb + j0;
        T* dst = bp + static_cast<long>(p) * nr_t;
        for (int j = 0; j < nr; ++j) dst[j] = brow[j];
        for (int j = nr; j < nr_t; ++j) dst[j] = T(0);
      }
      bp += static_cast<long>(kb) * nr_t;
    }
  }
}

}  // namespace hplx::blas
