#pragma once
/// \file config.hpp
/// \brief Run configuration for the hplx solver — the analogue of HPL.dat
/// plus rocHPL's extensions (split fraction, thread count).

#include <cstddef>
#include <cstdint>
#include <functional>

#include "comm/collectives.hpp"

namespace hplx::core {

/// Panel factorization variant (HPL's PFACT/RFACT inputs). The paper's
/// evaluated configuration is the recursive factorization with two
/// subdivisions, right-looking base blocks of 16 (§III.A / Fig. 5). All
/// three of HPL's unblocked bases are implemented; the recursion's base
/// is selected by HplConfig::rfact_base.
enum class FactVariant {
  Left,            ///< unblocked left-looking (fully deferred updates)
  Crout,           ///< unblocked Crout (deferred trailing updates)
  Right,           ///< unblocked right-looking (pivot, scale, rank-1 update)
  RecursiveRight,  ///< recursive panel factorization (right-looking
                   ///< recursion over the rfact_base variant)
};

const char* to_string(FactVariant v);

/// How the per-iteration pipeline is scheduled (§III, Figs. 3 and 6).
enum class PipelineMode {
  Simple,          ///< factor, broadcast, swap, update — no overlap
  Lookahead,       ///< Fig. 3: FACT/LBCAST hidden behind UPDATE
  LookaheadSplit,  ///< Fig. 6: split update also hides row-swap comm
};

const char* to_string(PipelineMode m);

/// Row-swapping communication algorithm (HPL's SWAP input). SpreadRoll is
/// the scatterv+allgatherv structure of Fig. 2c; BinaryExchange trades
/// bandwidth optimality for log2(P) latency hops; Mix switches to
/// BinaryExchange once the trailing window is at most `swap_threshold`
/// columns wide (the latency-bound tail).
enum class RowSwapAlgo { SpreadRoll, BinaryExchange, Mix };

const char* to_string(RowSwapAlgo a);

/// Arithmetic mode of the factorization (the HPL-MxP lever). FP64 is the
/// classic benchmark. MXP32 runs the entire LU — panel factorization,
/// broadcast, row swaps, trailing update, backsolve — in fp32 (half the
/// flops' cost on matrix-engine hardware, half the wire and HBM bytes),
/// then recovers fp64 accuracy with iterative refinement against the fp64
/// operator the fp32 matrix was cast from. The simulator models an fp16
/// engine too, with its own device::Precision field.
enum class PrecisionMode { FP64, MXP32 };

const char* to_string(PrecisionMode p);

/// Pivoting strategy of the panel factorization. Full is classic HPL
/// partial (row) pivoting. None skips the pivot search entirely — valid
/// for diagonally-dominant systems (the HPL-MxP deployment case), where
/// every diagonal entry already dominates its column. With pivoting off
/// the whole row-swap machinery disappears: no pivot messages, no
/// U-assembly wire traffic, no scatter fences — only a broadcast of the
/// factored top block down the process column.
enum class PivotMode { Full, None };

const char* to_string(PivotMode p);

struct HplConfig {
  long n = 1024;   ///< global problem size N
  int nb = 64;     ///< blocking factor NB
  int p = 1;       ///< process grid rows P
  int q = 1;       ///< process grid columns Q
  /// HPL's PMAP: how world ranks map onto the grid. Row-major is the
  /// classic HPL default; the mapping is a relabeling only and never
  /// changes results.
  bool row_major_grid = false;
  std::uint64_t seed = 42;

  PipelineMode pipeline = PipelineMode::LookaheadSplit;
  /// Fraction of local columns placed in the *right* section of the split
  /// update (§III.C). The paper finds 0.5 optimal on a Frontier node.
  double split_fraction = 0.5;

  comm::BcastAlgo bcast = comm::BcastAlgo::Ring1Mod;

  RowSwapAlgo swap = RowSwapAlgo::SpreadRoll;
  /// Column-width threshold for RowSwapAlgo::Mix.
  long swap_threshold = 64;

  /// Chunk size (bytes) for the pipelined row swap. The U-assembly
  /// allgatherv ships each rank's contribution as an nr×njl column-major
  /// block, split into chunks of at most this many bytes, and the
  /// per-chunk device unpack is enqueued as each chunk lands, overlapping
  /// deserialization with the remaining wire traffic. The displaced-row
  /// scatterv is split under the same cap. Must be positive. Chunks are
  /// rounded to whole wire columns (rows for the scatterv), so any value
  /// is bitwise-identical.
  long swap_chunk_bytes = 256 * 1024;

  /// Optional user-supplied panel broadcast, overriding `bcast`. The
  /// paper's discussion notes rocHPL keeps its communication routines
  /// modular "so that users can easily implement their own custom
  /// routines"; this is that extension point. Must behave like a
  /// broadcast: collective over the row communicator, `bytes` from `root`
  /// delivered to every rank.
  std::function<void(comm::Communicator& row_comm, void* buf,
                     std::size_t bytes, int root)>
      custom_bcast;

  /// Pivoting strategy. PivotMode::None requires a diagonally-dominant
  /// matrix (set `diag_dominant`): every panel factorization checks
  /// column dominance of the current panel at runtime and the solve
  /// fails fast — on all ranks, the verdict travels with the factored
  /// top block's broadcast — when the input is not dominant.
  PivotMode pivoting = PivotMode::Full;

  /// Right-hand sides solved per run. The matrix is generated as
  /// N×(N+nrhs) — columns N..N+nrhs-1 are the RHS panel — and the
  /// backsolve runs a blocked trsm/gemm over the whole n×nrhs panel.
  /// Currently all RHS columns must land in the trailing column block
  /// (nrhs ≤ NB − N mod NB when N is not a block multiple, or ≤ NB).
  int nrhs = 1;

  /// Generate a diagonally-dominant matrix: the seeded generator adds +N
  /// to every diagonal entry, making each |a_ii| ≥ N − 0.5 while every
  /// off-diagonal row sum stays below (N−1)/2 — margin ≥ N/2. This is the
  /// input family where `pivoting = none` is numerically safe.
  bool diag_dominant = false;

  FactVariant fact = FactVariant::RecursiveRight;
  /// Base variant used at the recursion leaves (HPL's PFACT).
  FactVariant rfact_base = FactVariant::Right;
  int rfact_nbmin = 16;  ///< recursion cutoff (paper: base block of 16)
  int rfact_ndiv = 2;    ///< recursion subdivisions (paper: 2)
  /// CPU threads per FACT call (the T of §III.A/§III.B), including the
  /// main thread.
  int fact_threads = 1;

  /// Worker threads for the packed BLAS-3 engine (blas::set_num_threads).
  /// 0 leaves whatever team is already installed untouched, so callers
  /// that configured blas threading themselves are not overridden.
  int blas_threads = 0;

  /// Column-tile width for the device row-swap/copy kernel engine
  /// (device::EngineConfig::tile_cols): the cache-blocking grain and the
  /// unit of team parallelism inside one kernel. Must be positive.
  long swap_tile_cols = 256;

  /// Streams in the trailing-update pool: rocHPL's U1/U2 stream split
  /// generalized to N in-order streams. 1 reproduces the seed
  /// single-stream schedule; with more streams the trailing update is cut
  /// into even column bands, one per usable stream, fanned out across the
  /// pool with event fencing, so the look-ahead band completes (and
  /// releases FACT) while the remaining bands still compute. Bands never
  /// alias columns — results are bitwise identical for every value.
  /// Clamped to [1, trace::kMaxUpdateStreams].
  int update_streams = 1;

  /// Team members one device data-motion kernel may use: 0 = the whole
  /// leased BLAS team (blas_threads), 1 = always sequential, n > 1 = cap.
  int kernel_threads = 0;

  /// Per-rank simulated accelerator capacity.
  std::size_t hbm_bytes = 1ull << 32;  // tests use small N; 4 GiB default

  /// Arithmetic mode (HPL-MxP). FP64 = classic; MXP32 factors in fp32 and
  /// iteratively refines the solution to the fp64 residual threshold.
  PrecisionMode precision = PrecisionMode::FP64;

  /// Iterative-refinement iteration cap for the MxP modes. If the scaled
  /// residual has not passed after this many corrections (or diverges),
  /// the solver falls back to a full fp64 solve so a passing run is still
  /// produced (HplResult::ir_fallback reports it).
  int ir_max_iters = 30;

  /// IR convergence target: the run is accepted when the HPL scaled
  /// residual drops below this (16.0 is HPL's own pass threshold).
  double ir_tol = 16.0;

  bool verify = true;  ///< run the residual check after the solve

  /// Attach the hazard-checking runtime (device::HazardTracker) to every
  /// rank's device: enqueued ops declare access sets, happens-before is
  /// tracked across streams/events/host, and violations land in
  /// HplResult::hazards. OR-combined with the HPLX_HAZARD environment
  /// variable; off by default (zero instrumentation cost when off).
  bool hazard_check = false;

  /// Attach the communication-verification runtime (comm::Verifier) to
  /// the world fabric and every split-off child: collectives are matched
  /// across ranks, p2p misuse and orphaned messages are recorded, and
  /// blocked receives run wait-for deadlock detection instead of hanging.
  /// Violations land in HplResult::comm_violations. OR-combined with the
  /// HPLX_COMM_CHECK environment variable; off by default (single pointer
  /// test per call site when off).
  bool comm_check = false;
};

}  // namespace hplx::core
