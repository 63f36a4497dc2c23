#pragma once
/// \file matgen.hpp
/// \brief Distributed random matrix generation (HPL_pdmatgen).
///
/// Element (i, j) of the gm×gn global matrix is the value at sequence
/// position j·gm + i of the Lcg stream seeded with `seed` (column-major
/// sweep). Each rank jumps directly to the positions of its own
/// block-cyclic pieces, so the distributed matrix is bit-identical to the
/// serial one for any grid shape — the property HPL relies on both for
/// generation and for the residual check (the verifier regenerates A
/// rather than keeping a copy).

#include <cstdint>

#include "grid/block_cyclic.hpp"

namespace hplx::rng {

/// Value of global element (i, j); uniform on [-0.5, 0.5), plus
/// `diag_shift` on the diagonal (i == j). A shift of gm makes the matrix
/// strictly diagonally dominant — every off-diagonal row sum is below
/// (gm−1)/2 while the diagonal magnitude is at least gm − 0.5, a margin
/// of gm/2 — which is the input family where no-pivot LU is safe.
double element(std::uint64_t seed, long gm, long i, long j,
               double diag_shift = 0.0);

/// Fill a dense gm×gn matrix serially (tests, reference checks).
void generate_serial(std::uint64_t seed, long gm, long gn, double* a,
                     long lda, double diag_shift = 0.0);

/// Fill this rank's local part of the gm×gn global matrix distributed
/// block-cyclically with blocking nb over a P×Q grid; (myrow, mycol) are
/// this rank's grid coordinates. `a` is the local column-major buffer with
/// leading dimension lda >= numroc(gm, nb, myrow, P). `diag_shift` is
/// added where the global indices coincide (i == j), identically to the
/// serial generator, so distributed-vs-serial bit-identity holds for any
/// shift.
void generate_local(std::uint64_t seed, long gm, long gn, int nb, int myrow,
                    int mycol, int nprow, int npcol, double* a, long lda,
                    double diag_shift = 0.0);

/// generate_local restricted to local rows [il_begin, il_end) of local
/// columns [jl_begin, jl_end); every other element of `a` is left as it
/// is. An element's value does not depend on the ranges it is generated
/// in, so threads that fill disjoint row ranges of the same buffer write
/// the same bits as one generate_local call.
void generate_local_rows(std::uint64_t seed, long gm, long gn, int nb,
                         int myrow, int mycol, int nprow, int npcol,
                         long il_begin, long il_end, long jl_begin,
                         long jl_end, double* a, long lda,
                         double diag_shift = 0.0);

}  // namespace hplx::rng
