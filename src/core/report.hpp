#pragma once
/// \file report.hpp
/// \brief Classic xhpl-style result reporting.
///
/// HPL (and rocHPL) print one famous line per run:
///
///   T/V                N    NB     P     Q   Time          Gflops
///   WR11C2R4       35840   384     2     2   203.49        1.4408e+01
///
/// followed by the residual-check verdict. hplx reproduces that format so
/// downstream tooling (and muscle memory) keep working. The T/V string
/// encodes the variant: W(all time) + R/C(process mapping) + depth +
/// broadcast code + pfact letter + NBMIN + rfact letter + NDIV.

#include <iosfwd>
#include <string>

#include "core/config.hpp"
#include "core/driver.hpp"

namespace hplx::core {

/// The "WR11C2R4"-style encoding of a configuration.
std::string encode_tv(const HplConfig& cfg);

/// Print the banner block (once per session), naming the BLAS
/// micro-kernel ISA clone this host runs.
void print_hpl_banner(std::ostream& os);

/// Print the column header for result lines.
void print_hpl_header(std::ostream& os);

/// Print one result line + the residual verdict lines.
void print_hpl_result(std::ostream& os, const HplConfig& cfg,
                      const HplResult& result);

/// Print the closing summary ("Finished N tests ...").
void print_hpl_footer(std::ostream& os, int tests, int passed);

/// rocHPL-style per-phase breakdown of a run: wall-time share of FACT,
/// MPI, host<->device transfers, and GPU kernels (shares can exceed 100%
/// in aggregate — phases overlap by design).
void print_phase_breakdown(std::ostream& os, const HplResult& result);

/// End-of-run hazard-checker table (result.hazards): one row per
/// deduplicated violation with its kind, occurrence count, the two op
/// labels and the first occurrence's context. Prints a one-line all-clear
/// when the run was checked and clean; prints nothing when checking was
/// off.
void print_hazard_report(std::ostream& os, const HplResult& result);

/// End-of-run comm-verifier table (result.comm_violations): one row per
/// deduplicated violation with its kind, occurrence count, both ranks'
/// call descriptors and the first occurrence's context. Prints a one-line
/// all-clear when the run was checked and clean; prints nothing when
/// checking was off.
void print_comm_report(std::ostream& os, const HplResult& result);

/// End-of-run memory-allocator table (result.alloc): the steady-window
/// verdict (system allocations after warmup — 0 is the pool's guarantee —
/// and the worst-rank hit rate), then one row per pool with lifetime
/// acquires, hit rate, peak footprint, parked bytes, and padding overhead.
void print_alloc_report(std::ostream& os, const HplResult& result);

}  // namespace hplx::core
