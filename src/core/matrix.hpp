#pragma once
/// \file matrix.hpp
/// \brief The distributed augmented matrix [A | b] in device memory.
///
/// HPL appends the right-hand side b as column N of an N×(N+1) augmented
/// system (§II), distributes the whole thing 2D block-cyclically, and keeps
/// it resident in the accelerators' HBM for the entire benchmark (§III).
/// DistMatrix owns this rank's local tile and the index arithmetic around
/// it.
///
/// The matrix is a template over the element type T. `DistMatrixT<double>`
/// is classic HPL; `DistMatrixT<float>` is the HPL-MxP low-precision
/// working matrix, filled with the *exact float casts* of the same seeded
/// fp64 values — so the fp32 system is the rounded image of the fp64 one
/// and iterative refinement against that fp64 operator converges. The
/// float matrix keeps the fp64 values it was cast from in host memory
/// (fp64_source()): they are generated once per solve and refinement
/// measures its residuals against them. Device storage is half the bytes,
/// which is where MxP's capacity and bandwidth headroom comes from.

#include <cstdint>

#include "device/device.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/process_grid.hpp"
#include "util/large_alloc.hpp"

namespace hplx::core {

template <typename T>
class DistMatrixT {
 public:
  /// Allocates the local piece on `dev` (throws if it exceeds HBM) and
  /// fills it with the seeded random augmented system (cast to T). The
  /// augmented width is N+nrhs — columns N..N+nrhs-1 are the RHS panel —
  /// and `diag_shift` is added to the diagonal of A (the diagonally-
  /// dominant generator mode; see rng::generate_local).
  DistMatrixT(device::Device& dev, const grid::ProcessGrid& g, long n, int nb,
              std::uint64_t seed, int nrhs = 1, double diag_shift = 0.0);

  long n() const { return n_; }
  int nb() const { return nb_; }
  int nrhs() const { return nrhs_; }
  double diag_shift() const { return diag_shift_; }
  std::uint64_t seed() const { return seed_; }

  const grid::CyclicDim& rows() const { return rows_; }
  const grid::CyclicDim& cols() const { return cols_; }

  long mloc() const { return mloc_; }   ///< local rows (of N)
  long nloc() const { return nloc_; }   ///< local cols (of N+nrhs, incl. b)
  long lda() const { return lda_; }

  T* local() { return buf_.template data_as<T>(); }
  const T* local() const { return buf_.template data_as<T>(); }

  /// Number of local rows with global index < grow (i.e. the local row
  /// where the trailing window starting at global row `grow` begins).
  long row_offset(long grow) const;

  /// Number of local cols with global index < gcol.
  long col_offset(long gcol) const;

  /// Device pointer to local element (il, jl).
  T* at(long il, long jl) { return local() + jl * lda_ + il; }

  /// The fp64 local [A|B] this matrix was cast from (lda()-strided, same
  /// shape as local()), or null for a double matrix, which is its own
  /// source. A host allocation outside every pool (huge-page backed,
  /// util/large_alloc.hpp), alive until release_fp64_source() or the
  /// matrix's end.
  const double* fp64_source() const { return fp64_source_.get(); }
  /// Free the fp64 source once nothing will read it again.
  void release_fp64_source() { fp64_source_.reset(); }

  device::Device& dev() const { return dev_; }

 private:
  device::Device& dev_;
  long n_;
  int nb_;
  int nrhs_;
  double diag_shift_;
  std::uint64_t seed_;
  int myrow_, mycol_, nprow_, npcol_;
  grid::CyclicDim rows_;
  grid::CyclicDim cols_;
  long mloc_, nloc_, lda_;
  device::Buffer buf_;
  LargeArray<double> fp64_source_;
};

using DistMatrix = DistMatrixT<double>;

}  // namespace hplx::core
