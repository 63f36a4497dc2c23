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
///
/// Construction runs on the rank's thread team, each member owning the
/// whole local row blocks member_rows() gives it. For a float matrix one
/// pass per member walks every local column in order: it generates its
/// rows of the column into the fp64 source, casts them into A while they
/// are still in cache, and adds their magnitudes into its rows of the
/// ‖A‖∞ row sums (row_abs_sums()), which refinement then reads instead of
/// passing over the source again. Every element and every row sum gets
/// the same operations in the same order at any team size.

#include <cstdint>
#include <utility>

#include "device/device.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/process_grid.hpp"
#include "util/large_alloc.hpp"
#include "util/thread_team.hpp"

namespace hplx::core {

template <typename T>
class DistMatrixT {
 public:
  /// Allocates the local piece on `dev` (throws if it exceeds HBM) and
  /// fills it on `team` with the seeded random augmented system (cast to
  /// T). The augmented width is N+nrhs — columns N..N+nrhs-1 are the RHS
  /// panel — and `diag_shift` is added to the diagonal of A (the
  /// diagonally-dominant generator mode; see rng::generate_local).
  DistMatrixT(device::Device& dev, const grid::ProcessGrid& g,
              ThreadTeam& team, long n, int nb, std::uint64_t seed,
              int nrhs = 1, double diag_shift = 0.0);

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

  /// The local rows [first, second) that member `member` of a team of
  /// `team_size` owns in the rank-local host passes over A and its fp64
  /// source: a contiguous share of the whole local row blocks (nb rows
  /// each, the last one possibly short), empty when the team has more
  /// members than the rank has row blocks.
  std::pair<long, long> member_rows(int member, int team_size) const;

  /// The fp64 local [A|B] this matrix was cast from (lda()-strided, same
  /// shape as local()), or null for a double matrix, which is its own
  /// source. A host allocation outside every pool (huge-page backed,
  /// util/large_alloc.hpp), alive until release_fp64_source() or the
  /// matrix's end.
  const double* fp64_source() const { return fp64_source_.get(); }
  /// ‖A‖∞ partial row sums of the fp64 source: for each local row, the
  /// sum of |a| over this rank's columns of A (global columns < N, after
  /// the diagonal shift), added in column order. mloc() values, or null
  /// for a double matrix; released with the fp64 source.
  const double* row_abs_sums() const { return row_abs_sums_.get(); }
  /// Free the fp64 source and its row sums once nothing will read them
  /// again.
  void release_fp64_source() {
    fp64_source_.reset();
    row_abs_sums_.reset();
  }

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
  LargeArray<double> row_abs_sums_;
};

using DistMatrix = DistMatrixT<double>;

}  // namespace hplx::core
