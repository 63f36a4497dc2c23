#pragma once
/// \file pfact.hpp
/// \brief Multi-threaded distributed panel factorization (§III.A).
///
/// The tall-skinny mw×jb panel (this rank's rows with global index >= j,
/// in local storage order) is LU-factored with partial pivoting across the
/// P ranks of the panel's process column. The paper's design is reproduced
/// exactly:
///
///  - the panel is blocked into NB-row *tiles* round-robined over T
///    threads (Fig. 4); tile 0 — which on the diagonal-owning rank holds
///    the upper-triangular factor and all pivot source rows — always
///    belongs to the main thread;
///  - pivot determination is a parallel reduction over threads, after
///    which only the main thread talks to the communicator (one combined
///    max-loc + pivot-row + current-row exchange per column, the
///    equivalent of HPL_pdmxswp);
///  - the main thread applies the row writes, synchronizes, and all
///    threads apply their tiles' scale/update in parallel;
///  - blocked variants let the main thread DTRSM the replicated top block
///    while worker threads DGEMM their own tiles (PCA-style cache
///    residency: a tile is touched by one thread only).
///
/// Every rank in the process column keeps a replicated jb×jb `top` buffer
/// that accumulates the chosen pivot rows; it ends as L1 (unit-lower
/// multipliers) + U1 (upper factor) — the block every other phase needs.
///
/// The factorization is a template over the element type: the fp32 (MxP)
/// panel runs the identical algorithm on float data, and the pivot
/// exchange's row payload shrinks to half the wire bytes. The pivot
/// *magnitude* is always compared as double so the max-loc combine is one
/// code path at every precision.

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "device/alloc.hpp"
#include "trace/phase_ledger.hpp"
#include "util/thread_team.hpp"

namespace hplx::core {

/// Inputs/outputs of one panel factorization on one rank.
template <typename T>
struct PanelTaskT {
  long j = 0;   ///< global column of the panel's first column
  int jb = 0;   ///< panel width (min(NB, N - j))

  T* w = nullptr;       ///< mw×jb local panel rows, column-major
  long mw = 0;          ///< local rows with global index >= j
  long ldw = 0;
  const long* glob = nullptr;  ///< global row index of each w row (ascending)

  T* top = nullptr;  ///< jb×jb replicated factored block (output)
  long ldtop = 0;
  long* ipiv = nullptr;  ///< jb global pivot row indices (output)

  bool is_curr = false;  ///< true on the rank owning the diagonal block row
  int tile_rows = 0;     ///< tile height for the round-robin (0 => jb)
  /// Rank (within col_comm) of the diagonal-block owner — only read by the
  /// no-pivot path, which broadcasts the factored top block from it
  /// instead of accumulating pivot rows via allreduce.
  int diag_root = 0;
  /// Arena the per-panel scratch (pivot message, candidate lists, no-pivot
  /// broadcast stage) is leased from; required. The driver passes its
  /// device's host arena so panel scratch recycles through the same
  /// freelists as every other subsystem.
  device::PoolAllocator* scratch = nullptr;
};

using PanelTask = PanelTaskT<double>;

/// Collective over `col_comm` (all ranks of the panel's process column
/// call with their local task). `team` supplies the T threads of §III.A;
/// pass a 1-thread team for serial factorization. When `ledger` is
/// non-null, time in column-communicator calls is charged to Phase::Mpi
/// and its Pivot part, and the rest of the factorization to Phase::Fact.
template <typename T>
void panel_factorize(comm::Communicator& col_comm, const HplConfig& cfg,
                     ThreadTeam& team, const PanelTaskT<T>& task,
                     trace::PhaseLedger* ledger = nullptr);

}  // namespace hplx::core
