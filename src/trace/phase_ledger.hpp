#pragma once
/// \file phase_ledger.hpp
/// \brief The per-rank phase ledger: the one place solver timing sums.
///
/// Each rank's solver owns one PhaseLedger and passes it to every step
/// that reports time (panel factorization, panel broadcast, row swap,
/// backsolve, refinement). An iteration's record is the ledger's
/// difference over the iteration; the HplResult totals are its final
/// sums. A null ledger turns every PhaseScope into a no-op.

#include <array>

#include "util/timer.hpp"

namespace hplx::trace {

/// What the ledger sums (the Fig. 7 timers the host measures):
///  - Fact: panel factorization wall time, excluding its communication;
///  - Mpi: wall time inside communication calls;
///  - RsWire: the part of Mpi spent in the row-swap U-assembly collective;
///  - Pivot: the part of Mpi spent in FACT's column collectives (the
///    per-column pivot allreduce, or the no-pivot colsum allreduce and
///    top-block broadcast);
///  - PanelBcast: the part of Mpi spent broadcasting the factored panel
///    along the process row.
/// RsWire, Pivot and PanelBcast are parts of Mpi, charged inside its
/// scopes with SubPhaseScope; they are not left out of Mpi. Every phase
/// is wall-clock; modeled device time never enters the ledger.
enum class Phase { Fact, Mpi, RsWire, Pivot, PanelBcast };
inline constexpr int kPhaseCount = 5;

class PhaseLedger {
 public:
  /// Charge `s` seconds to `p`; every sum goes through here.
  void add(Phase p, double s) { seconds_[index(p)] += s; }
  /// Count bytes the row-swap collectives put on the wire.
  void add_wire_bytes(long bytes) { rs_wire_bytes_ += bytes; }

  double seconds(Phase p) const { return seconds_[index(p)]; }
  long rs_wire_bytes() const { return rs_wire_bytes_; }

  /// What was charged since `start`, an earlier copy of this ledger.
  PhaseLedger since(const PhaseLedger& start) const {
    PhaseLedger d;
    for (int i = 0; i < kPhaseCount; ++i)
      d.seconds_[i] = seconds_[i] - start.seconds_[i];
    d.rs_wire_bytes_ = rs_wire_bytes_ - start.rs_wire_bytes_;
    return d;
  }

 private:
  friend class PhaseScope;
  static int index(Phase p) { return static_cast<int>(p); }

  std::array<double, kPhaseCount> seconds_{};
  long rs_wire_bytes_ = 0;
  /// Wall seconds covered by closed scopes (see PhaseScope).
  double scoped_ = 0.0;
};

/// Charges the wall time of its lifetime to one phase. Scopes nest
/// exclusively: what a nested scope charged is left out of the enclosing
/// one, so a Fact scope around a factorization whose collectives run in
/// Mpi scopes charges only the local work.
class PhaseScope {
 public:
  PhaseScope(PhaseLedger* ledger, Phase phase)
      : ledger_(ledger), phase_(phase) {
    if (ledger_ == nullptr) return;
    t0_ = wall_seconds();
    scoped0_ = ledger_->scoped_;
  }
  ~PhaseScope() {
    if (ledger_ == nullptr) return;
    const double dt = wall_seconds() - t0_;
    ledger_->add(phase_, dt - (ledger_->scoped_ - scoped0_));
    ledger_->scoped_ = scoped0_ + dt;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseLedger* ledger_;
  Phase phase_;
  double t0_ = 0.0;
  double scoped0_ = 0.0;
};

/// Charges the wall time of its lifetime to a sub-phase (RsWire, Pivot,
/// PanelBcast) of the phase whose PhaseScope encloses it. Unlike a nested
/// PhaseScope it takes nothing out of the enclosing scope: the enclosing
/// phase keeps the whole time and the sub-phase names a part of it.
class SubPhaseScope {
 public:
  SubPhaseScope(PhaseLedger* ledger, Phase phase)
      : ledger_(ledger), phase_(phase) {
    if (ledger_ != nullptr) t0_ = wall_seconds();
  }
  ~SubPhaseScope() {
    if (ledger_ != nullptr) ledger_->add(phase_, wall_seconds() - t0_);
  }
  SubPhaseScope(const SubPhaseScope&) = delete;
  SubPhaseScope& operator=(const SubPhaseScope&) = delete;

 private:
  PhaseLedger* ledger_;
  Phase phase_;
  double t0_ = 0.0;
};

}  // namespace hplx::trace
