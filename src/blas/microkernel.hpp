#pragma once
/// \file microkernel.hpp
/// \brief Register-blocked mr×nr gemm micro-kernel over packed panels.
///
/// The hot loop of the engine: one packed A row-panel (Tile<T>::mr
/// elements per k step) against one packed B column-panel (Tile<T>::nr per
/// k step), accumulating into an mr×nr register block that never touches
/// memory until the write-back, so C traffic is one load/store pair per KC
/// k-steps instead of one per tile row (the pre-pack kernel's ratio).
///
/// The body is plain C++ with no intrinsics; gcc vectorizes it across the
/// tile's nr columns. level3.cpp compiles it twice as load-time ISA clones
/// (`micro_kernel_isa`): on AVX2 hosts each 8-wide accumulator row is two
/// 32-byte ymm vectors for double and one for float (8 and 4 registers for
/// the block); the baseline x86-64 clone uses 16-byte SSE2 vectors, twice
/// as many per row. Both element types use the 4×8 tile because wider float
/// tiles trip gcc's vectorizer cost model and run scalar. Each float row is
/// half the bytes of a double row, so fp32 retires twice the elements per
/// vector op — the mxp32 mode's 2x flop-density win.
///
/// Accumulation order is fixed: k runs sequentially within a KC block and
/// KC blocks are visited in order, and every C tile is written by exactly
/// one thread — so results are bitwise identical for every team size T.
/// Products and sums stay separate instructions in every clone (no FMA
/// target, -ffp-contract=off), which keeps them bitwise identical to
/// gemm_small's per-element dot products too (tests/blas/test_threaded.cpp).

#include <algorithm>

#include "blas/pack.hpp"

namespace hplx::blas {

/// acc[i*nr + j] = sum_k ap[k*mr + i] * bp[k*nr + j] over kb steps.
/// Always inlined, so each ISA clone compiles the body for its own target.
template <typename T>
[[gnu::always_inline]] inline void micro_kernel(int kb, const T* ap,
                                                const T* bp, T* acc) {
  constexpr int mr = Tile<T>::mr;
  constexpr int nr = Tile<T>::nr;
  T c[mr * nr] = {};
  for (int p = 0; p < kb; ++p) {
    const T* a = ap + static_cast<long>(p) * mr;
    const T* b = bp + static_cast<long>(p) * nr;
    for (int i = 0; i < mr; ++i)
      for (int j = 0; j < nr; ++j) c[i * nr + j] += a[i] * b[j];
  }
  for (int v = 0; v < mr * nr; ++v) acc[v] = c[v];
}

/// Write an mr×nr corner of the accumulator into C.
///
/// `first_k` marks the first KC block of the k loop: it applies the
/// alpha/beta update C = alpha*acc + beta*C exactly once (beta == 0
/// overwrites without reading C, so NaN/Inf in uninitialized output never
/// propagate — the reference-BLAS beta semantics). Later KC blocks only
/// accumulate C += alpha*acc. This is what replaces the old standalone
/// beta-scaling sweep over all of C.
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

}  // namespace hplx::blas
