#pragma once
/// \file hpl_sim.hpp
/// \brief Event-based replay of the HPL iteration schedule at paper scale.
///
/// The simulator walks the same per-iteration dependency structure the
/// real driver executes — Fig. 3 (look-ahead) and Fig. 6 (split update) —
/// but with phase durations priced by the calibrated NodeModel instead of
/// executed. It produces the same per-iteration records as the real
/// driver's trace (total, GPU-active, FACT, MPI, transfer), which is how
/// Figs. 7 and 8 are regenerated.
///
/// Each iteration's schedule is laid out once: simulate_hpl sums its
/// records and iteration_timeline returns its events, so a record's
/// total_s is the latest event end, floored by its GPU busy time.
///
/// Geometry is the exact block-cyclic share of the rank that owns each
/// iteration's diagonal panel (the rank the paper's Fig. 7
/// instrumentation records), so local row and column counts vary from
/// iteration to iteration.

#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/fact_model.hpp"
#include "sim/machine.hpp"
#include "trace/records.hpp"

namespace hplx::sim {

struct ClusterConfig {
  int nodes = 1;
  int p = 4;        ///< global grid rows P
  int q = 2;        ///< global grid columns Q
  int p_node = 4;   ///< node-local grid rows
  int q_node = 2;   ///< node-local grid columns
  long n = 256000;
  int nb = 512;
  double split_fraction = 0.5;
  core::PipelineMode pipeline = core::PipelineMode::LookaheadSplit;
  int fact_threads = 15;  ///< T per FACT (from the core-sharing plan)
  core::RowSwapAlgo swap = core::RowSwapAlgo::SpreadRoll;
  long swap_threshold = 64;  ///< columns; for RowSwapAlgo::Mix
  /// Pipelined U assembly: > 0 models the chunked allgatherv with fused
  /// unpack-on-delivery at this chunk size (bytes); <= 0 models the
  /// blocking gather-then-unpack baseline.
  long swap_chunk_bytes = 0;
  /// Billing precision of the modeled run's device kernels. FP64 moves
  /// 8-byte elements. FP32 (the solver's mxp32) stores, moves and swaps
  /// 4-byte elements and bills the fp32 curve, as the real engine does
  /// (DeviceModel::precision_for_elem). FP16 moves the same 4-byte
  /// elements but bills the fp16 curve, an engine only the simulator
  /// models. Pivot messages keep their 8-byte slots in all modes (the
  /// wire format does not narrow).
  device::Precision precision = device::Precision::FP64;
};

struct SimResult {
  trace::RunTrace trace;
  double seconds = 0.0;
  double gflops = 0.0;      ///< whole-run HPL score
  double gpu_seconds = 0.0;
  double fact_seconds = 0.0;
  double mpi_seconds = 0.0;
  double transfer_seconds = 0.0;

  /// Running throughput while all non-GPU phases are hidden (the paper's
  /// "175 TFLOPS in this regime" metric): flops executed during hidden
  /// iterations divided by their wall time.
  double hidden_regime_gflops = 0.0;
};

/// Replay one HPL run on `nodes` × NodeModel hardware. Throws hplx::Error
/// naming the field when `cfg` is impossible: split_fraction outside
/// [0, 1] or not finite; nb, p, q, nodes or fact_threads below 1; n < nb;
/// or, on several nodes, p_node·q_node other than the node's GCD count.
SimResult simulate_hpl(const NodeModel& node, const ClusterConfig& cfg);

/// One bar of an execution-timeline diagram (Figs. 3 and 6 of the paper).
struct TimelineEvent {
  const char* lane = "";   ///< "GPU", "CPU", "MPI", "XFER"
  std::string label;
  double start = 0.0;      ///< seconds from iteration start
  double end = 0.0;
};

/// The modeled schedule of one iteration — the data behind the paper's
/// Fig. 3 (look-ahead) and Fig. 6 (split update) diagrams. `iteration`
/// indexes the N/NB panels. Checks `cfg` as simulate_hpl does.
std::vector<TimelineEvent> iteration_timeline(const NodeModel& node,
                                              const ClusterConfig& cfg,
                                              int iteration);

}  // namespace hplx::sim
