#pragma once
/// \file panel_bcast.hpp
/// \brief Panel broadcast along process rows (LBCAST, §II / Fig. 2b).
///
/// After the panel factorization, each rank of the panel's process column
/// packs its replicated top block (L1 + U1), the pivot indices, and its
/// local slice of L2 into one buffer and broadcasts it to the other ranks
/// in its process row. Because all ranks in a process row own the same
/// global rows, the received L2 rows line up exactly with the receiver's
/// local trailing rows. The broadcast algorithm is selectable (HPL's
/// BCAST parameter); the modified variants prioritize the look-ahead
/// neighbour.
///
/// PanelDataT is a template over the element type: the fp32 (MxP) panel's
/// wire payload — the jb×jb top block plus the L2 slab, which dominate the
/// message — shrinks to half the fp64 bytes, while the header and the
/// pivot indices keep their 8-byte slots so the framing is
/// precision-independent.

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/collectives.hpp"
#include "trace/phase_ledger.hpp"
#include "util/large_alloc.hpp"

namespace hplx::core {

/// One factored panel as seen by every rank in a process row. Buffers are
/// device-resident workspaces (the transport is GPU-aware, as on Crusher
/// where NICs attach directly to the GPUs); the big ones take huge pages
/// once they reach 2 MiB (util/large_alloc.hpp).
template <typename T>
struct PanelDataT {
  long j = 0;
  int jb = 0;

  LargeVector<T> top;        ///< jb×jb factored diagonal block (ld = jb)
  std::vector<long> ipiv;    ///< jb global pivot rows
  LargeVector<T> l2;         ///< ml2×jb local L2 rows (ld = ml2)
  long ml2 = 0;

  /// Scratch for the packed wire format; reused across iterations.
  LargeVector<double> wire;

  void resize(int jb_, long ml2_);

  /// Reserve capacity for the largest panel of a run (jb <= max_jb,
  /// ml2 <= max_ml2) including the wire scratch, so the per-iteration
  /// resize() calls never reallocate.
  void reserve(int max_jb, long max_ml2);
};

using PanelData = PanelDataT<double>;

/// User-replaceable broadcast primitive (see HplConfig::custom_bcast).
using BcastFn = std::function<void(comm::Communicator& row_comm, void* buf,
                                   std::size_t bytes, int root)>;

/// Collective over `row_comm`. On the root (the panel column's position in
/// the row communicator) `panel` must be filled; on other ranks top/ipiv/l2
/// are overwritten with the received panel. `panel.ml2` must be set by the
/// caller on every rank (receivers know it from their own row counts).
/// Elapsed communication time is charged to `ledger`'s Phase::Mpi and its
/// PanelBcast part (when non-null). When `custom` is non-null it replaces the built-in
/// algorithm.
template <typename T>
void panel_broadcast(comm::Communicator& row_comm, comm::BcastAlgo algo,
                     int root, PanelDataT<T>& panel,
                     trace::PhaseLedger* ledger,
                     const BcastFn* custom = nullptr);

}  // namespace hplx::core
