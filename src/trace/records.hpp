#pragma once
/// \file records.hpp
/// \brief Per-iteration timing records, the data behind Fig. 7.
///
/// At every iteration the process owning the current diagonal panel records
/// the same five timers the paper plots: total iteration time, GPU active
/// time, FACT (CPU) time, MPI time, and host<->device transfer time.
/// core::run_hpl fills every field with wall-clock seconds; the paper-scale
/// simulator (sim::simulate_hpl) fills them with modeled seconds.

#include <cstdint>
#include <cstring>
#include <vector>

namespace hplx::trace {

/// Upper bound on the trailing-update stream pool size a record can hold.
/// Records travel between ranks as raw bytes (comm::Communicator's
/// trivially-copyable send), so the per-stream columns are fixed arrays,
/// not vectors.
inline constexpr int kMaxUpdateStreams = 8;

struct IterationRecord {
  int iteration = 0;       ///< 0-based iteration index
  long column = 0;         ///< global column at which the iteration starts
  double total_s = 0.0;    ///< wall time of the whole iteration
  /// GPU busy time within the iteration: the update pool's busy delta.
  double gpu_s = 0.0;
  /// CPU factorization time of the *next* panel, in every pipeline mode
  /// (panel 0 is factored before the first record).
  double fact_s = 0.0;
  double mpi_s = 0.0;      ///< time in communication calls
  /// Wall-clock busy time of the data stream, which carries the panel's
  /// host<->device copies (its event waits are idle time, not counted).
  double transfer_s = 0.0;
  double rs_wire_s = 0.0;  ///< row-swap U-assembly wall time on the wire
  double pivot_s = 0.0;  ///< part of mpi_s in FACT's column collectives
  double panel_bcast_s = 0.0;  ///< part of mpi_s in the panel broadcast

  /// Streams in the trailing-update pool this iteration ran with; entries
  /// [0, update_streams) of stream_real_s are meaningful.
  int update_streams = 1;
  /// Wall-clock busy seconds per pool stream within the iteration (stream
  /// 0 is the primary carrying row swaps and U assembly).
  double stream_real_s[kMaxUpdateStreams] = {};

  /// Whether the non-GPU phases were fully hidden: total time within
  /// `slack` of GPU busy time (the paper's "entirely hidden by GPU
  /// activity" regime).
  bool hidden(double slack = 0.05) const {
    return total_s <= gpu_s * (1.0 + slack);
  }
};

/// One deduplicated checker violation: a device::HazardTracker hazard or
/// a comm::Verifier finding (HplResult keeps the two in separate
/// vectors). Like IterationRecord these travel between ranks as raw
/// bytes, so the op labels are fixed char arrays, not strings. `kind`
/// matches HazardTracker::Kind or Verifier::Kind (kept as int so trace/
/// depends on neither device/ nor comm/).
struct ViolationRecord {
  int kind = 0;
  /// Occurrences collapsed into this record (same kind + label pair).
  std::uint64_t count = 0;
  char op_a[48] = {};    ///< label of the later / checking access or call
  char op_b[48] = {};    ///< label of the conflicting earlier access or peer
  char detail[96] = {};  ///< first occurrence's context (ranges, sizes)

  void set_labels(const char* a, const char* b, const char* d) {
    std::strncpy(op_a, a ? a : "", sizeof(op_a) - 1);
    std::strncpy(op_b, b ? b : "", sizeof(op_b) - 1);
    std::strncpy(detail, d ? d : "", sizeof(detail) - 1);
  }
};

struct RunTrace {
  std::vector<IterationRecord> iterations;

  double total_seconds() const {
    double t = 0.0;
    for (const auto& r : iterations) t += r.total_s;
    return t;
  }

  /// Fraction of iterations that were hidden (IterationRecord::hidden).
  double hidden_fraction(double slack = 0.05) const {
    if (iterations.empty()) return 0.0;
    int hidden = 0;
    for (const auto& r : iterations) {
      if (r.hidden(slack)) ++hidden;
    }
    return static_cast<double>(hidden) /
           static_cast<double>(iterations.size());
  }

  /// Fraction of *time* spent in iterations that were fully hidden.
  double hidden_time_fraction(double slack = 0.05) const {
    double hidden = 0.0, total = 0.0;
    for (const auto& r : iterations) {
      total += r.total_s;
      if (r.hidden(slack)) hidden += r.total_s;
    }
    return total > 0.0 ? hidden / total : 0.0;
  }

  /// The first iteration that is not hidden — Fig. 7's crossover out of
  /// the hidden regime — or -1 when every iteration is.
  int crossover_iteration(double slack = 0.05) const {
    for (const auto& r : iterations) {
      if (!r.hidden(slack)) return r.iteration;
    }
    return -1;
  }
};

/// HPL's reported FLOP count for an N×N solve: 2/3·N³ + 3/2·N².
inline double hpl_flops(double n) {
  return (2.0 / 3.0) * n * n * n + 1.5 * n * n;
}

}  // namespace hplx::trace
