#pragma once
/// \file backsolve.hpp
/// \brief Distributed upper-triangular solve (HPL_pdtrsv).
///
/// After the factorization the augmented system has become U·x = b̂: the
/// upper triangle U lives in the distributed matrix and b̂ — the original
/// b carried along as column N, swapped and updated like any trailing
/// column — lives on the process column owning global column N. The solve
/// walks diagonal blocks bottom-up: the diagonal owner solves its NB×NB
/// triangle directly on the device (device::trsm_upper — no host staging
/// copy), broadcasts the x segment down its process column, every rank in
/// that column applies its local U·x_k contribution on the device, and the
/// partial results flow back to b̂'s owners.
///
/// The solve is a template over the element type: the fp32 instantiation
/// is the MxP backsolve, run entirely in low precision (its rounding error
/// is what iterative refinement then cleans up). The returned solution is
/// widened to double on every path.

#include <vector>

#include "core/matrix.hpp"
#include "device/stream.hpp"
#include "grid/process_grid.hpp"
#include "trace/phase_ledger.hpp"

namespace hplx::core {

/// Collective over the grid. Returns the full solution panel — n×nrhs
/// column-major (length n·a.nrhs(), solution of RHS column r at
/// [r·n, (r+1)·n)) — replicated on every rank, widened to double. For
/// nrhs == 1 this is the classic length-n solution vector. Multi-RHS runs
/// the same bottom-up sweep with every per-block stage blocked over the
/// RHS panel: one device trsm (device::trsm_upper) per diagonal block, one
/// m×nrhs GEMM per column contribution, one (jbk·nrhs)-element broadcast
/// per segment. Charges communication time to `ledger`'s Phase::Mpi
/// (when non-null).
template <typename T>
std::vector<double> backsolve(grid::ProcessGrid& g, DistMatrixT<T>& a,
                              device::Stream& stream,
                              trace::PhaseLedger* ledger);

}  // namespace hplx::core
