#pragma once
/// \file rowswap.hpp
/// \brief Distributed row swapping (RS, §II / Fig. 2c).
///
/// The NB pivots chosen during FACT are applied in bulk to a window of
/// trailing columns: the displaced old top-block rows are *scattered* from
/// the diagonal-owning process row to the pivot rows' owners, and the new
/// U rows are assembled on every rank of the process column with an
/// *allgather* — exactly the MPI_Scatterv + MPI_Allgatherv structure the
/// paper describes, with GPU gather/scatter kernels on both sides.
///
/// The phase is split into three stages (gather → communicate → scatter)
/// so the driver can interleave them with UPDATE work per the split-update
/// schedule (Fig. 6): gathers for one section run before the UPDATE of the
/// other section starts, the MPI happens while the device is busy, and the
/// scatter is enqueued behind it.
///
/// Both halves of the traffic share one wire format: a column-major
/// nr×njl segment per sending rank (U) or per destination owner
/// (displaced rows), packed by device::pack_rows_cm and landed by
/// device::unpack_rows_cm, so neither side crosses a layout.
///
/// U lands in a jb-row *strip* whose column c belongs to local column c
/// of A (DESIGN.md decision 3). On the diagonal process row the strip is
/// A's own top block (rows j..j+jb-1, ld = lda): U is assembled in place
/// and nothing copies it out or back. Every other row passes the driver's
/// one shared strip.
///
/// A process column of one rank holds every row of the window, so there
/// the swap is a local row exchange (HPL's dlaswp00N): gather() and
/// communicate() do nothing, and scatter() is device::laswp alone, after
/// which the window's top block is U. No staging is reserved and nothing
/// is charged to the wire.
///
/// RowSwapperT is a template over the element type: all staging buffers,
/// wire counts, grains and chunk offsets are sized in sizeof(T), so the
/// fp32 (MxP) pipeline's swap traffic is exactly half the fp64 bytes. The
/// *plan* (pure index math) is precision-independent and shared.

#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "core/matrix.hpp"
#include "device/alloc.hpp"
#include "device/stream.hpp"
#include "trace/phase_ledger.hpp"

namespace hplx::core {

/// Net effect of the NB sequential swaps (rows j+k <-> ipiv[k], k
/// ascending), shared by every process column. Derived once per panel.
struct RowSwapPlan {
  long j = 0;
  int jb = 0;

  /// The swap sequence itself: ipiv[k] is the global row that row j+k
  /// exchanges with at step k. One process row replays it in place.
  std::vector<long> ipiv;

  /// u_source[k]: original global row whose content becomes U row k.
  std::vector<long> u_source;

  /// (destination slot, original top-block row moving there) for every
  /// displaced row, sorted by destination slot (RowSwapper::prepare packs
  /// in this order). Destinations lie strictly below the top block;
  /// sources are always rows j..j+jb-1, owned by the diagonal process row.
  std::vector<std::pair<long, long>> displaced;
};

/// Build the plan by replaying the swap sequence on flat content arrays
/// (allocation-light: one resize of u_source plus one reserve of
/// displaced, no per-swap node allocations).
RowSwapPlan build_rowswap_plan(long j, int jb, const long* ipiv);

/// In-place variant: rebuilds into `plan`, reusing its vectors' capacity,
/// so the per-iteration plan construction allocates nothing once the
/// first panel has sized them (the driver keeps one plan per pipeline
/// slot and rebuilds it every iteration).
void build_rowswap_plan(long j, int jb, const long* ipiv, RowSwapPlan& plan);

/// Per-window workspace + this rank's precomputed index lists. One
/// instance per concurrently in-flight section (look-ahead / left /
/// right in the split update).
template <typename T>
class RowSwapperT {
 public:
  /// Pre-size every workspace for the largest window this swapper will
  /// see (jb <= max_jb, njl <= max_njl, a process column of nprow ranks),
  /// so per-panel prepare() calls neither allocate nor re-zero. The
  /// staging buffers are leased from `arena` (the owning device's host
  /// arena) and held for the swapper's lifetime; one process row stages
  /// nothing, so it leases nothing. Required before the first prepare().
  void reserve(device::PoolAllocator& arena, int max_jb, long max_njl,
               int nprow);

  /// Prepare for applying `plan` to local columns [jl0, jl0+njl) on this
  /// rank, whose grid row coordinate is `myrow`. njl may be 0; the rank
  /// still participates in the collectives. `algo`/`threshold` select the
  /// U-assembly communication pattern (HPL's SWAP input).
  void prepare(const RowSwapPlan& plan, const DistMatrixT<T>& a, int myrow,
               long jl0, long njl,
               RowSwapAlgo algo = RowSwapAlgo::SpreadRoll,
               long threshold = 64);

  /// Stage 1: enqueue the device gathers (U source rows this rank owns,
  /// plus displaced top rows if this rank is in the diagonal process row)
  /// and record a completion event right after the last pack enqueue.
  /// communicate() waits on that event — not on the whole stream — so
  /// device work enqueued after the gather (trailing-update bands, other
  /// sections' scatters) never delays this section's communication hop.
  void gather(device::Stream& stream, DistMatrixT<T>& a);

  /// Select the chunk size of the swap collectives: the U-assembly
  /// allgatherv is split into chunks of at most chunk_bytes (rounded to
  /// whole wire columns) and the displaced-row scatterv into messages of
  /// at most max(chunk_bytes, one row); 0 = one chunk per segment. Call
  /// once before the first prepare().
  void set_pipeline(long chunk_bytes) { chunk_bytes_ = chunk_bytes; }

  /// No-pivot mode (HplConfig::pivoting == PivotMode::None): the factored
  /// U *is* the top block — nothing was swapped, nothing is displaced. The
  /// three stages collapse: gather() packs the diagonal row's jb×njl block,
  /// communicate() broadcasts it down the process column (time charged to
  /// Phase::Mpi only, never to the row-swap wire sums — there is no swap
  /// traffic), and scatter() lands it in the other rows' strips; the
  /// diagonal row's top block is U already. On one process row the pivots
  /// are the identity, so scatter() does nothing.
  /// Call once before the first prepare().
  void set_pivot_mode(PivotMode mode) { nopiv_ = mode == PivotMode::None; }

  /// Stage 2: communication over the column communicator, gated on the
  /// event gather() recorded (a no-op wait when this rank had nothing to
  /// pack).
  ///
  /// The U allgatherv runs chunked and the device unpack of each landed
  /// chunk into the U strip (`u`, ld >= jb, column-aligned with A: the
  /// window's columns [jl0, jl0+njl) of its rows 0..jb-1, pivot order) is
  /// enqueued on `stream` immediately, so deserialization overlaps the
  /// remaining wire traffic. On the diagonal row `u` is A's top block; its
  /// packs were waited on before the first unpack can land. `stream` must be the stream
  /// scatter() is called with (its fence covers these unpacks). An empty
  /// window still joins the collectives. When `ledger` is non-null it is
  /// charged the time inside communication calls (Phase::Mpi), the
  /// U-assembly part of it (Phase::RsWire) and the window's wire bytes.
  void communicate(comm::Communicator& col_comm, trace::PhaseLedger* ledger,
                   device::Stream& stream, T* u, long ldu);

  /// Stage 3: enqueue the displaced-row scatter into A (and, in no-pivot
  /// mode off the diagonal row, the copy of the broadcast block into the
  /// strip). On one process row: the in-place row exchange of the window,
  /// skipped for identity pivots. `u`/`ldu` are communicate()'s strip;
  /// on the diagonal row they must be A's own top block (checked).
  /// Records a completion event; the next cycle's prepare() waits on it
  /// before it resizes or lets communicate() rewrite the staging buffers
  /// these kernels and communicate()'s chunk unpacks read (they capture
  /// raw pointers at enqueue time).
  void scatter(device::Stream& stream, DistMatrixT<T>& a, T* u, long ldu);

  long njl() const { return njl_; }
  int jb() const { return jb_; }

 private:
  long j_ = 0;
  int jb_ = 0;
  long jl0_ = 0;
  long njl_ = 0;
  int myrow_ = 0;
  int nprow_ = 0;
  int diag_root_ = 0;
  bool in_diag_row_ = false;
  comm::AllgatherAlgo u_algo_ = comm::AllgatherAlgo::Ring;
  bool nopiv_ = false;     ///< no-pivot mode: broadcast-only U replication
  long chunk_bytes_ = 0;   ///< swap collective chunk cap (0 = per segment)
  /// The owning device's hazard tracker (null when checking is off);
  /// latched from the stream in gather().
  device::HazardTracker* hz_ = nullptr;
  device::Event gather_done_;   ///< recorded after the last pack enqueue
  bool gather_pending_ = false; ///< a gather was enqueued and not yet waited
  device::Event scatter_done_;   ///< recorded after the last unpack enqueue
  bool scatter_pending_ = false; ///< a scatter is (possibly) still in flight

  // U assembly. The index lists are plain vectors (tiny, pre-reserved);
  // the element staging moved to arena leases so resizes recycle through
  // the pool's freelists instead of the system allocator.
  std::vector<long> my_u_slots_;        ///< local rows of my U sources
  std::vector<long> u_dest_of_packed_;  ///< U row k for each packed position
  std::vector<std::size_t> u_counts_, u_displs_;  ///< allgatherv (bytes)
  device::ArenaBufT<T> my_u_;       ///< my rows, nr×njl column-major
  device::ArenaBufT<T> gathered_u_; ///< all jb rows, rank-major segments

  /// One process row: the pivots relative to row j, laswp's form; empty
  /// for identity pivots.
  std::vector<long> local_ipiv_;

  // Displaced rows.
  std::vector<long> disp_src_slots_;   ///< diag row only: local top rows
  std::vector<std::size_t> disp_counts_;
  std::vector<long> my_disp_dest_slots_;  ///< local destination rows
  /// Diag row: one column-major segment per destination owner, in rank
  /// order.
  device::ArenaBufT<T> disp_send_;
  device::ArenaBufT<T> disp_recv_;
};

using RowSwapper = RowSwapperT<double>;

/// Test seam for the hazard regression tests. While an instance is alive,
/// every RowSwapperT in the process still performs prepare()'s
/// scatter-done wait (execution stays correct) but through
/// Event::wait_unordered, so the hazard tracker models the fence as
/// absent: it re-introduces, for the checker only, the bug class the
/// fence exists for — rewriting staging buffers that in-flight scatter
/// kernels read. Scoped, so a failing test cannot leak it into the next
/// one; a process-wide atomic nesting count, so the rank threads of a
/// solve read it race-free. Never open one outside hazard tests.
class SkipScatterFenceScope {
 public:
  SkipScatterFenceScope();
  ~SkipScatterFenceScope();
  SkipScatterFenceScope(const SkipScatterFenceScope&) = delete;
  SkipScatterFenceScope& operator=(const SkipScatterFenceScope&) = delete;

  /// True while any scope is open.
  static bool active();
};

}  // namespace hplx::core
