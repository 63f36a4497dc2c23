#include "core/report.hpp"

#include <iomanip>
#include <ostream>

#include "blas/blas.hpp"
#include "comm/verify.hpp"
#include "device/hazard.hpp"

namespace hplx::core {

namespace {

char fact_letter(FactVariant v) {
  switch (v) {
    case FactVariant::Left: return 'L';
    case FactVariant::Crout: return 'C';
    case FactVariant::Right: return 'R';
    // Distinct letter so the T/V string round-trips the variant — folding
    // the recursive variant into 'R' made recursive-over-Right runs
    // indistinguishable from plain Right-looking ones.
    case FactVariant::RecursiveRight: return 'V';
  }
  return 'R';
}

int bcast_code(comm::BcastAlgo algo) {
  switch (algo) {
    case comm::BcastAlgo::Ring1: return 0;
    case comm::BcastAlgo::Ring1Mod: return 1;
    case comm::BcastAlgo::Ring2: return 2;
    case comm::BcastAlgo::Ring2Mod: return 3;
    case comm::BcastAlgo::Long: return 4;
    case comm::BcastAlgo::LongMod: return 5;
    case comm::BcastAlgo::Binomial: return 6;  // hplx extension code
  }
  return 1;
}

const char kRule[] =
    "========================================================================"
    "========\n";
const char kDash[] =
    "------------------------------------------------------------------------"
    "--------\n";

}  // namespace

std::string encode_tv(const HplConfig& cfg) {
  // W + mapping + depth + bcast + rfact letter + NDIV + pfact letter +
  // NBMIN — the classic field order.
  std::string tv = "W";
  tv += cfg.row_major_grid ? 'R' : 'C';
  tv += cfg.pipeline == PipelineMode::Simple ? '0' : '1';
  tv += static_cast<char>('0' + bcast_code(cfg.bcast));
  tv += fact_letter(cfg.fact);
  tv += std::to_string(cfg.rfact_ndiv);
  tv += fact_letter(cfg.fact == FactVariant::RecursiveRight ? cfg.rfact_base
                                                            : cfg.fact);
  tv += std::to_string(cfg.rfact_nbmin);
  return tv;
}

void print_hpl_banner(std::ostream& os) {
  os << kRule
     << "HPLinpack (hplx)  --  High-Performance Linpack benchmark  --  "
        "reproduction\n"
        "of rocHPL: \"Optimizing HPL for Exascale Accelerated "
        "Architectures\" (SC'23)\n"
     << kRule << "\nBLAS gemm micro-kernel ISA: " << blas::kernel_isa()
     << "\n"
     << "\nAn explanation of the input/output parameters follows:\n"
        "T/V    : Wall time / encoded variant.\n"
        "N      : The order of the coefficient matrix A.\n"
        "NB     : The partitioning blocking factor.\n"
        "P      : The number of process rows.\n"
        "Q      : The number of process columns.\n"
        "Time   : Time in seconds to solve the linear system.\n"
        "Gflops : Rate of execution for solving the linear system.\n\n";
}

void print_hpl_header(std::ostream& os) {
  os << kRule
     << "T/V                N    NB     P     Q               Time          "
        "       Gflops\n"
     << kDash;
}

void print_hpl_result(std::ostream& os, const HplConfig& cfg,
                      const HplResult& result) {
  os << std::left << std::setw(12) << encode_tv(cfg) << std::right
     << std::setw(9) << cfg.n << std::setw(6) << cfg.nb << std::setw(6)
     << cfg.p << std::setw(6) << cfg.q << std::setw(19) << std::fixed
     << std::setprecision(2) << result.seconds << std::setw(23)
     << std::scientific << std::setprecision(4) << result.gflops << '\n';
  os << kDash
     << "||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N)= " << std::fixed
     << std::setprecision(7) << result.verify.residual << " ...... "
     << (result.verify.passed ? "PASSED" : "FAILED") << '\n';
  os.unsetf(std::ios::floatfield);
}

void print_hpl_footer(std::ostream& os, int tests, int passed) {
  os << kRule << "\nFinished " << tests << " tests with the following "
     << "results:\n         " << passed << " tests completed and passed "
     << "residual checks,\n         " << (tests - passed)
     << " tests completed and failed residual checks,\n"
     << "         0 tests skipped because of illegal input values.\n"
     << kDash << "\nEnd of Tests.\n" << kRule;
}

void print_phase_breakdown(std::ostream& os, const HplResult& result) {
  const double wall = result.seconds > 0.0 ? result.seconds : 1.0;
  auto line = [&](const char* label, double seconds) {
    os << "  " << std::left << std::setw(26) << label << std::right
       << std::fixed << std::setprecision(3) << std::setw(10) << seconds
       << " s  " << std::setprecision(1) << std::setw(6)
       << 100.0 * seconds / wall << " %\n";
  };
  os << kDash << "Phase breakdown (phases overlap; shares are of wall "
        "time):\n";
  line("wall (solve + backsolve)", result.seconds);
  line("GPU kernels", result.gpu_seconds);
  line("CPU panel factorization", result.fact_seconds);
  line("communication", result.mpi_seconds);
  line("host<->device transfers", result.transfer_seconds);
  if (result.rs_wire_seconds > 0.0) {
    line("row-swap wire (U gather)", result.rs_wire_seconds);
    if (result.rs_unpack_seconds > 0.0) {
      line("row-swap fused unpack", result.rs_unpack_seconds);
      os << "  " << std::left << std::setw(26) << "row-swap overlap"
         << std::right << std::fixed << std::setprecision(1) << std::setw(10)
         << 100.0 * result.rs_overlap_efficiency
         << " %  (unpack hidden behind wire)\n";
    }
  }
  if (result.stream_real_seconds.size() > 1) {
    os << "Update-stream occupancy (stream 0 = primary; busy is "
          "wall-clock, modeled in parens):\n";
    for (std::size_t i = 0; i < result.stream_real_seconds.size(); ++i) {
      const double real = result.stream_real_seconds[i];
      const double modeled = i < result.stream_busy_seconds.size()
                                 ? result.stream_busy_seconds[i]
                                 : 0.0;
      os << "  stream " << i << std::right << std::fixed
         << std::setprecision(3) << std::setw(20) << real << " s  ("
         << modeled << " s)  " << std::setprecision(1) << std::setw(6)
         << 100.0 * real / wall << " %\n";
    }
  }
  os << kDash;
  os.unsetf(std::ios::floatfield);
}

void print_hazard_report(std::ostream& os, const HplResult& result) {
  if (!result.hazard_checked) return;
  if (result.hazards.empty()) {
    os << "Hazard check: no violations detected.\n";
    return;
  }
  std::uint64_t total = 0;
  for (const auto& r : result.hazards) total += r.count;
  os << kDash << "Hazard check: " << total << " violation(s) in "
     << result.hazards.size() << " distinct site(s):\n";
  os << "  " << std::left << std::setw(22) << "kind" << std::setw(8)
     << "count" << "ops\n";
  for (const auto& r : result.hazards) {
    os << "  " << std::left << std::setw(22)
       << device::HazardTracker::kind_name(
              static_cast<device::HazardTracker::Kind>(r.kind))
       << std::setw(8) << r.count << r.op_a;
    if (r.op_b[0] != '\0') os << " vs " << r.op_b;
    os << "\n      " << r.detail << '\n';
  }
  os << kDash;
}

void print_comm_report(std::ostream& os, const HplResult& result) {
  if (!result.comm_checked) return;
  if (result.comm_violations.empty()) {
    os << "Comm check: no violations detected.\n";
    return;
  }
  std::uint64_t total = 0;
  for (const auto& r : result.comm_violations) total += r.count;
  os << kDash << "Comm check: " << total << " violation(s) in "
     << result.comm_violations.size() << " distinct site(s):\n";
  os << "  " << std::left << std::setw(22) << "kind" << std::setw(8)
     << "count" << "ops\n";
  for (const auto& r : result.comm_violations) {
    os << "  " << std::left << std::setw(22)
       << comm::Verifier::kind_name(
              static_cast<comm::Verifier::Kind>(r.kind))
       << std::setw(8) << r.count << r.op_a;
    if (r.op_b[0] != '\0') os << " vs " << r.op_b;
    os << "\n      " << r.detail << '\n';
  }
  os << kDash;
}

void print_alloc_report(std::ostream& os, const HplResult& result) {
  const AllocStats& a = result.alloc;
  if (a.pools.empty()) return;
  os << kDash << "Memory pools ("
     << (a.pool_enabled ? "pooled" : "passthrough ablation") << "):";
  if (a.steady_measured) {
    os << " steady-state system allocations = " << a.steady_upstream_allocs
       << (a.steady_upstream_allocs == 0 ? " (zero-alloc hot path)" : "")
       << ", steady hit rate = " << std::fixed << std::setprecision(4)
       << a.steady_hit_rate << '\n';
  } else {
    os << " run too short for a steady window (all iterations are "
          "warmup)\n";
  }
  os << "  " << std::left << std::setw(12) << "pool" << std::right
     << std::setw(10) << "acquires" << std::setw(10) << "hit rate"
     << std::setw(10) << "upstream" << std::setw(12) << "hwm MiB"
     << std::setw(12) << "cached MiB" << std::setw(9) << "pad %" << '\n';
  const double mib = 1024.0 * 1024.0;
  for (const AllocPoolReport& p : a.pools) {
    os << "  " << std::left << std::setw(12) << p.name << std::right
       << std::setw(10) << p.acquires << std::fixed << std::setprecision(4)
       << std::setw(10) << p.hit_rate << std::setw(10) << p.upstream_allocs
       << std::setprecision(2) << std::setw(12)
       << static_cast<double>(p.hwm_bytes) / mib << std::setw(12)
       << static_cast<double>(p.cached_bytes) / mib << std::setprecision(1)
       << std::setw(9) << 100.0 * p.fragmentation << '\n';
  }
  os << kDash;
  os.unsetf(std::ios::floatfield);
}

}  // namespace hplx::core
