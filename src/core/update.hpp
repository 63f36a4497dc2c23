#pragma once
/// \file update.hpp
/// \brief Trailing-update enqueue helpers (UPDATE, §II / Fig. 2d).
///
/// Given a factored panel (replicated L1/top block + this rank's L2 rows)
/// and an assembled U strip, enqueue on the compute stream:
///   1. U := L1^{-1}·U (DTRSM with the unit-lower triangle of the top
///      block — performed redundantly per rank, as in HPL), in place;
///   2. the rank-NB update A(tail, window) -= L2·U (the big DGEMM).
///
/// U is a jb-row strip whose column c belongs to local column c of A
/// (DESIGN.md decision 3): on the diagonal process row it *is* A's top
/// block (ld = lda), so the in-place solve leaves the finished U rows
/// where backsolve reads them and nothing is written back; elsewhere it
/// is the driver's shared strip (ld = NB).
///
/// The helpers operate on a *column window* [jl0, jl0+njl) of A and of
/// the strip, so the driver can compose the look-ahead / left / right
/// sections of the split-update schedule from the same pieces. All
/// helpers are templates over the element type; the float instantiation
/// is the MxP trailing update, whose gemm/trsm time is billed at the
/// device's low-precision throughput curve.

#include "core/matrix.hpp"
#include "core/panel_bcast.hpp"
#include "device/stream.hpp"

namespace hplx::core {

/// Enqueue stage 1: DTRSM on columns [jl0, jl0+njl) of the U strip `u`.
template <typename T>
void enqueue_u_update(device::Stream& s, const PanelDataT<T>& panel, T* u,
                      long ldu, long jl0, long njl);

/// Enqueue stage 2: A(tail, window) -= L2 · U, U read from columns
/// [jl0, jl0+njl) of the strip `u`. `tail_off` is the local row
/// where the trailing rows (global >= j+jb) begin; panel.l2 supplies the
/// matching ml2 = mloc - tail_off rows of L.
template <typename T>
void enqueue_tail_gemm(device::Stream& s, DistMatrixT<T>& a,
                       const PanelDataT<T>& panel, const T* u, long ldu,
                       long jl0, long njl, long tail_off);

/// Which pool streams a banded section may use. The split/lookahead
/// schedules need the *placement* degree of freedom: the look-ahead band
/// must stay on the primary stream so its completion event fires the
/// moment it finishes (releasing FACT), while the big right-section bands
/// should avoid the primary so the row-swap scatter chain queued there is
/// never stuck behind them.
enum class BandPlacement {
  Spread,        ///< round-robin over every pool stream
  SparePrimary,  ///< streams 1..N-1 only (primary if the pool has one stream)
  PrimaryOnly,   ///< primary stream only (the seed single-stream schedule)
};

/// Completion handle for one banded section: one event per pool stream
/// that received bands, each recorded after that stream's last band.
struct BandSection {
  std::vector<device::Event> done;

  /// Make subsequently enqueued work on `s` wait for every band (the
  /// fan-in edge; call on the primary before enqueueing anything that
  /// reads the section's output).
  void join(device::Stream& s) const {
    for (const device::Event& ev : done) s.wait_event(ev);
  }

  /// Host-side blocking wait for every band.
  void host_wait() const {
    for (const device::Event& ev : done) ev.wait();
  }
};

/// Banded trailing update of the column window [jl0, jl0+njl): the window
/// is split evenly into one column band per usable stream, and each band
/// runs the trsm → tail-gemm chain of enqueue_u_update +
/// enqueue_tail_gemm on its own pool stream.
/// `u_ready` must be an event recorded on the primary after the U window
/// scatter; every non-primary stream is fenced on it before its band.
/// Bands never alias columns (each owns a disjoint column slice of U and
/// of A), so results are bitwise identical for every pool size and
/// placement.
template <typename T>
BandSection enqueue_update_bands(device::StreamPool& pool,
                                 const device::Event& u_ready,
                                 DistMatrixT<T>& a, const PanelDataT<T>& panel,
                                 T* u, long ldu, long jl0, long njl,
                                 long tail_off, BandPlacement placement);

}  // namespace hplx::core
