#pragma once
/// \file backsolve.hpp
/// \brief Distributed block-triangular solves (HPL_pdtrsv) over the
/// factored matrix.
///
/// After the factorization the augmented system has become U·x = b̂: U
/// lives in the distributed matrix and b̂ — the original b carried along
/// as column N, swapped and updated like any trailing column — lives on
/// the process column owning global column N, b's *home column*. One sweep
/// body solves either block triangle of the factors over a vector panel
/// kept in the home column's local rows. Per diagonal block the segment
/// travels from its home rows to the diagonal owner, which solves its
/// triangle on the device (no host staging copy) and broadcasts it down
/// its process column; every rank there applies its local contribution
/// with a device GEMM and sends it to its home rank, which subtracts it
/// and stores the solved segment. backsolve() is the upper sweep over b̂;
/// refinement (refine.hpp) runs the unit-lower sweep, then the upper one.
///
/// Everything is a template over the element type: the fp32 instantiation
/// is the MxP solve, run entirely in low precision (its rounding error is
/// what iterative refinement then cleans up).

#include <vector>

#include "core/matrix.hpp"
#include "device/stream.hpp"
#include "grid/process_grid.hpp"
#include "trace/phase_ledger.hpp"

namespace hplx::core {

/// The block triangle of the factored matrix a sweep solves.
enum class Triangle {
  Upper,      ///< U with its diagonal, blocks bottom-up
  UnitLower,  ///< L below the diagonal (unit diagonal), blocks top-down
};

/// Collective over the grid. Solves the `tri` triangle of the factored
/// `a` in place over `bh`: ldb × nrhs column-major (ldb >= max(mloc(), 1)),
/// read and written on the home column only. Triangle::UnitLower takes
/// `pivots` (panel k's global pivot rows at [k]) and replays panel k's
/// swaps just before block k, as the factorization interleaved them;
/// Upper takes nullptr. Charges communication time to `ledger`'s
/// Phase::Mpi (when non-null).
template <typename T>
void triangular_sweep(grid::ProcessGrid& g, DistMatrixT<T>& a,
                      device::Stream& stream, Triangle tri, T* bh, long ldb,
                      long nrhs, const std::vector<std::vector<long>>* pivots,
                      trace::PhaseLedger* ledger);

/// Collective over the grid. Replicates the home panel `bh` into `out`
/// (n×nrhs column-major) on every rank with one grid allreduce, to which
/// only the home column contributes nonzeros.
template <typename T>
void replicate_panel(grid::ProcessGrid& g, const DistMatrixT<T>& a,
                     const T* bh, long ldb, long nrhs, T* out,
                     trace::PhaseLedger* ledger);

/// Collective over the grid. Returns the full solution panel — n×nrhs
/// column-major (length n·a.nrhs(), solution of RHS column r at
/// [r·n, (r+1)·n)) — replicated on every rank, widened to double. For
/// nrhs == 1 this is the classic length-n solution vector.
template <typename T>
std::vector<double> backsolve(grid::ProcessGrid& g, DistMatrixT<T>& a,
                              device::Stream& stream,
                              trace::PhaseLedger* ledger);

}  // namespace hplx::core
