#pragma once
/// \file driver.hpp
/// \brief The hplx public entry point: the distributed HPL solve.
///
/// run_hpl generates the seeded N×(N+NRHS) augmented system on the
/// simulated accelerators (NRHS = cfg.nrhs right-hand sides carried as
/// trailing columns, classically one), LU-factors it with partial — or,
/// for diagonally dominant systems, no — pivoting using the configured
/// pipeline (§III: look-ahead and split update), backsolves, and verifies.
/// It is collective: every rank of `world` (which must have exactly
/// cfg.p × cfg.q ranks) calls it with the same configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "core/verify.hpp"
#include "trace/records.hpp"

namespace hplx::core {

/// Lifetime counters of one allocator pool (the device HBM pool, the host
/// arena, or the process-shared fabric message pool), copied from
/// device::PoolAllocator::Stats at the end of the run.
struct AllocPoolReport {
  std::string name;
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;      ///< freelist hits, including borrows
  std::uint64_t oversize = 0;  ///< requests above the pool's largest class
  std::uint64_t upstream_allocs = 0;  ///< system allocations ever made
  std::size_t hwm_bytes = 0;          ///< peak leased + parked capacity
  std::size_t cached_bytes = 0;       ///< parked on freelists at run end
  std::size_t outstanding_bytes = 0;  ///< still leased at run end
  double hit_rate = 1.0;
  double fragmentation = 0.0;  ///< class-rounding padding / leased bytes
};

/// Memory-allocator accounting of one run. The *steady window* is the
/// factorization loop after the warmup iterations (iteration 0 builds the
/// freelist inventory, iteration 1 absorbs cross-rank skew); backsolve /
/// refinement first-call leases happen after the loop and are excluded by
/// construction. `steady_upstream_allocs == 0` is the guarantee the
/// allocator exists for: no pooled subsystem touched the system allocator
/// once warm.
struct AllocStats {
  bool steady_measured = false;  ///< run had iterations past warmup
  /// Process-wide upstream (system) allocations by any pool inside the
  /// steady window — max over ranks, identical on every rank.
  std::uint64_t steady_upstream_allocs = 0;
  /// Pool hit rate over the steady window — min over ranks.
  double steady_hit_rate = 1.0;
  /// Per-pool lifetime rows (this rank's device pools + shared fabric).
  std::vector<AllocPoolReport> pools;
};

struct HplResult {
  double seconds = 0.0;  ///< wall time of factorization + backsolve
  double gflops = 0.0;   ///< (2/3·N³ + 3/2·N²) / seconds / 1e9

  VerifyResult verify;   ///< residual check (if cfg.verify)

  /// Per-iteration phase breakdown recorded by the rank owning each
  /// iteration's diagonal panel (Fig. 7's data). Populated on rank 0 with
  /// the union of all ranks' records.
  trace::RunTrace trace;

  /// Whole-run phase totals (wall-clock seconds) of this rank: FACT and
  /// MPI are the final sums of its trace::PhaseLedger, which also hold
  /// panel 0's prologue, and for MPI the backsolve and refinement;
  /// transfer and GPU are the data stream's and update pool's busy
  /// seconds, event waits excluded. In mxp32 they include refinement,
  /// and an fp64 fallback's add the failed mxp32 attempt's (so do
  /// rs_wire_bytes and the per-stream totals below).
  double fact_seconds = 0.0;
  double mpi_seconds = 0.0;
  double transfer_seconds = 0.0;
  double gpu_seconds = 0.0;

  /// Wall time inside the row-swap U-assembly collective (part of
  /// mpi_seconds).
  double rs_wire_seconds = 0.0;
  /// Parts of mpi_seconds: FACT's column collectives (the per-column pivot
  /// allreduce, or the no-pivot colsum allreduce and top-block broadcast)
  /// and the panel broadcast along the process row.
  double pivot_seconds = 0.0;
  double panel_bcast_seconds = 0.0;
  /// Bytes the row-swap collectives put on the wire (this rank), summed
  /// over every window: U-assembly allgatherv + displaced scatterv. Zero
  /// when pivoting == PivotMode::None — the no-pivot path replaces the
  /// swap machinery with a plain panel broadcast charged to mpi_seconds.
  long rs_wire_bytes = 0;

  /// Per-stream occupancy of the trailing-update pool (this rank), one
  /// entry per pool stream. Entry 0 is the primary stream. Size =
  /// effective update_streams (>= 1 even when the pool knob is 1).
  /// stream_real_seconds is wall-clock busy time. stream_busy_seconds is
  /// the run's one modeled output: Stream::busy_seconds, what the ops
  /// would take on an MI250X GCD (device::DeviceModel).
  std::vector<double> stream_busy_seconds;
  std::vector<double> stream_real_seconds;

  /// Mixed-precision outcome (precision = mxp32): how many
  /// fp64 iterative-refinement corrections the low-precision solution
  /// took, and whether refinement failed to converge and the run redid
  /// the factorization in full fp64. Zero / false in fp64 mode.
  int ir_iters = 0;
  bool ir_fallback = false;

  /// Unified-allocator accounting: steady-window allocation counts and
  /// per-pool lifetime stats (identical scalar fields on every rank).
  AllocStats alloc;

  /// True when the hazard-checking runtime (device::HazardTracker) was
  /// attached to this run's devices (cfg.hazard_check or HPLX_HAZARD).
  bool hazard_checked = false;
  /// Deduplicated hazard-checker violations. Rank 0 holds the union of
  /// every rank's records (like `trace`); other ranks hold their own.
  /// Empty when the run was clean — the expected state.
  std::vector<trace::ViolationRecord> hazards;

  /// True when the communication verifier (comm::Verifier) was attached
  /// to this run's fabrics (cfg.comm_check or HPLX_COMM_CHECK).
  bool comm_checked = false;
  /// Deduplicated comm-verifier violations. Rank 0 holds the union of
  /// every fabric's records (world, row and column splits); other ranks
  /// hold their own fabrics'. Empty when the run was clean.
  std::vector<trace::ViolationRecord> comm_violations;
};

/// Solve. Returns the (identical) result on every rank; the trace is only
/// populated on rank 0.
HplResult run_hpl(comm::Communicator& world, const HplConfig& cfg);

}  // namespace hplx::core
