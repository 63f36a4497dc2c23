#pragma once
/// \file refine.hpp
/// \brief Iterative refinement to fp64 residuals (the HPL-MxP loop).
///
/// The mixed-precision benchmark factors the system in low precision and
/// recovers fp64 accuracy afterwards with classic iterative refinement:
///
///   r     = b − A·x          (fp64, the A the factors were cast from)
///   L U d = P r              (low precision, reusing the factors in HBM)
///   x    += d                (fp64)
///
/// repeated until the HPL scaled residual passes. The residual uses the
/// *original* fp64 operator: the host copy the low-precision matrix keeps
/// of the values it was cast from (DistMatrixT::fp64_source), generated
/// once per solve. The residual stays replicated; the correction solve
/// keeps d in b's home-column rows and runs backsolve.hpp's two sweeps
/// over the factors still resident in device memory: unit-lower with the
/// factorization's row swaps replayed before each panel's block, then
/// upper. One grid allreduce replicates d at the end.
///
/// Convergence is guarded: if the scaled residual stops decreasing (or
/// goes non-finite) before it passes, `converged` comes back false and the
/// driver falls back to a full fp64 factorization.

#include <vector>

#include "core/matrix.hpp"
#include "device/stream.hpp"
#include "grid/process_grid.hpp"
#include "trace/phase_ledger.hpp"
#include "util/thread_team.hpp"

namespace hplx::core {

struct RefineResult {
  std::vector<double> x;   ///< refined n×nrhs panel, replicated everywhere
  int iters = 0;           ///< correction steps (worst RHS column)
  bool converged = false;  ///< every RHS column's residual < tol at exit
  double residual = 0.0;   ///< final HPL scaled residual (worst column)
};

/// Collective over the grid. `a` holds the low-precision LU factors (the
/// matrix after the factorization); `pivots[k]` is panel k's global pivot
/// row list (length = that panel's jb); `x0` is the low-precision solve's
/// solution panel — n×nrhs column-major, replicated and widened to double.
/// Each RHS column is refined independently against its own fp64 b column,
/// sharing one fp64 operator. `tol` is the HPL residual threshold the
/// refined solution must pass; `max_iters` bounds the correction count per
/// column. The residual's pass over the fp64 source runs on `team`, its
/// rows split by DistMatrixT::member_rows. Communication time is charged
/// to `ledger`'s Phase::Mpi (when non-null).
template <typename T>
RefineResult iterative_refine(grid::ProcessGrid& g, DistMatrixT<T>& a,
                              ThreadTeam& team, device::Stream& stream,
                              const std::vector<std::vector<long>>& pivots,
                              std::vector<double> x0, int max_iters,
                              double tol, trace::PhaseLedger* ledger);

}  // namespace hplx::core
