/// Bitwise oracle of the solver across commits.
///
/// Runs a fixed set of solves and prints one line per configuration:
///
///   <config> <scaled residual %.17g> <IR iterations> <IR fallback 0|1>
///            <row-swap wire bytes>
///
/// The determinism sweeps in test_hpl / test_hazard / test_mxp check that
/// execution knobs do not move these values *within* one build; this
/// program pins them *across* builds. `ctest -L golden` diffs its stdout
/// byte for byte against tests/data/oracle/hpl_oracle.txt
/// (tests/golden_diff.cmake), so a change that moves any of them — a new
/// accumulation order, a different pivot, an extra wire byte — fails CI
/// until the golden file is regenerated in the same commit with the
/// reason stated.
///
///   hpl_oracle > tests/data/oracle/hpl_oracle.txt   # regenerate
///   hpl_oracle avx2                                 # one kernel version
///
/// With an argument the whole run is pinned to that BLAS kernel version
/// (blas::detail::PinKernelVersion) instead of the resolver's choice.
/// Every version fuses the same k steps, so every version must print the
/// same transcript; `golden.hpl_oracle.<isa>` diffs each one the CPU runs,
/// and the program exits 77 (the test reports a skip) for a version the
/// CPU lacks.
///
/// The set: the multi-stream and hazard sweeps' shapes over their stream
/// and chunk values, the mixed-precision sweep in mxp32 plus its two
/// fallback cases, fp64/mxp32 × full/no pivoting on three grids,
/// two and three right-hand sides, and the perfbench workloads at the
/// development and held-out seeds.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "blas/microkernel.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"

namespace {

using hplx::core::HplConfig;
using hplx::core::HplResult;
using hplx::core::PipelineMode;
using hplx::core::PivotMode;
using hplx::core::PrecisionMode;

struct Case {
  std::string name;
  HplConfig cfg;
};

/// The test sweeps' common base: seed, FACT team and recursion cutoff.
HplConfig sweep_cfg(long n, int nb, int p, int q, PipelineMode mode) {
  HplConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.p = p;
  cfg.q = q;
  cfg.seed = 20230601;
  cfg.fact_threads = 2;
  cfg.rfact_nbmin = 8;
  cfg.pipeline = mode;
  return cfg;
}

std::string shape_name(const char* family, const HplConfig& cfg) {
  return std::string(family) + "/" + std::to_string(cfg.p) + "x" +
         std::to_string(cfg.q) + "/n" + std::to_string(cfg.n) + "/nb" +
         std::to_string(cfg.nb) + "/" + hplx::core::to_string(cfg.pipeline) +
         "/" + hplx::core::to_string(cfg.precision);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  constexpr auto kSimple = PipelineMode::Simple;
  constexpr auto kLa = PipelineMode::Lookahead;
  constexpr auto kSplit = PipelineMode::LookaheadSplit;

  // MultiStreamSweep shapes × update streams.
  struct Shape {
    int p, q;
    long n;
    int nb;
    PipelineMode mode;
  };
  for (const Shape& s : {Shape{1, 1, 96, 16, kLa}, Shape{1, 1, 96, 16, kSplit},
                         Shape{2, 2, 100, 16, kSplit},
                         Shape{2, 2, 64, 16, kSimple}}) {
    for (int streams : {1, 2, 4}) {
      HplConfig cfg = sweep_cfg(s.n, s.nb, s.p, s.q, s.mode);
      cfg.update_streams = streams;
      out.push_back({shape_name("streams", cfg) + "/s" +
                         std::to_string(streams),
                     cfg});
    }
  }

  // HazardSweep shapes × update streams × swap chunk, checker on.
  for (const Shape& s : {Shape{1, 1, 96, 16, kLa}, Shape{1, 1, 96, 16, kSplit},
                         Shape{1, 2, 96, 16, kLa}, Shape{2, 2, 96, 16, kSplit},
                         Shape{2, 1, 96, 16, kSimple}}) {
    for (int streams : {1, 2, 4}) {
      for (long chunk : {4096L, 256L * 1024L}) {
        HplConfig cfg = sweep_cfg(s.n, s.nb, s.p, s.q, s.mode);
        cfg.update_streams = streams;
        cfg.swap_chunk_bytes = chunk;
        cfg.hazard_check = true;
        out.push_back({shape_name("hazard", cfg) + "/s" +
                           std::to_string(streams) + "/c" +
                           std::to_string(chunk),
                       cfg});
      }
    }
  }

  // MxpSolveSweep shapes plus two larger grids.
  for (const Shape& s :
       {Shape{1, 1, 96, 16, kSimple}, Shape{1, 1, 96, 16, kLa},
        Shape{1, 1, 96, 16, kSplit}, Shape{1, 2, 128, 16, kSplit},
        Shape{2, 1, 128, 16, kSplit}, Shape{2, 2, 128, 16, kSimple},
        Shape{2, 2, 128, 16, kSplit}, Shape{2, 3, 144, 16, kSplit},
        Shape{2, 2, 100, 16, kSplit}, Shape{1, 1, 37, 8, kSplit},
        Shape{2, 2, 32, 32, kLa}, Shape{2, 2, 1000, 64, kSplit},
        Shape{1, 3, 600, 64, kSplit}}) {
    HplConfig cfg = sweep_cfg(s.n, s.nb, s.p, s.q, s.mode);
    cfg.precision = PrecisionMode::MXP32;
    out.push_back({shape_name("mxp", cfg), cfg});
  }

  // Refinement that cannot converge falls back to fp64.
  {
    HplConfig cfg = sweep_cfg(96, 16, 1, 1, kSplit);
    cfg.precision = PrecisionMode::MXP32;
    cfg.ir_tol = 1e-12;
    out.push_back({shape_name("fallback", cfg) + "/tol1e-12", cfg});
    cfg.ir_tol = HplConfig{}.ir_tol;
    cfg.ir_max_iters = 0;
    out.push_back({shape_name("fallback", cfg) + "/iters0", cfg});
  }

  // Precision × pivoting on one-row, square and one-row-of-three grids.
  for (PrecisionMode prec : {PrecisionMode::FP64, PrecisionMode::MXP32}) {
    for (PivotMode piv : {PivotMode::Full, PivotMode::None}) {
      for (const Shape& s : {Shape{1, 1, 512, 64, kSplit},
                             Shape{2, 2, 512, 64, kSplit},
                             Shape{1, 3, 300, 32, kSplit}}) {
        HplConfig cfg = sweep_cfg(s.n, s.nb, s.p, s.q, s.mode);
        cfg.precision = prec;
        cfg.pivoting = piv;
        cfg.diag_dominant = piv == PivotMode::None;
        out.push_back(
            {shape_name("pivot", cfg) + "/" + hplx::core::to_string(piv),
             cfg});
      }
    }
  }

  // Several right-hand sides.
  for (PrecisionMode prec : {PrecisionMode::FP64, PrecisionMode::MXP32}) {
    for (int nrhs : {2, 3}) {
      HplConfig cfg = sweep_cfg(256, 32, 2, 2, kSplit);
      cfg.precision = prec;
      cfg.nrhs = nrhs;
      out.push_back({shape_name("nrhs", cfg) + "/r" + std::to_string(nrhs),
                     cfg});
    }
  }

  // The perfbench workloads (perfbench/hplx_perfbench.cpp) at the
  // development and the held-out seed.
  struct Workload {
    const char* name;
    long n;
    int nb, p, q;
    PrecisionMode precision;
    int fact_threads;
  };
  for (std::uint64_t seed : {42ull, 7919ull}) {
    for (const Workload& w :
         {Workload{"fp64_1x1", 2048, 256, 1, 1, PrecisionMode::FP64, 2},
          Workload{"fp64_2x2", 2048, 128, 2, 2, PrecisionMode::FP64, 1},
          Workload{"mxp32_1x1", 2048, 256, 1, 1, PrecisionMode::MXP32, 2}}) {
      HplConfig cfg;
      cfg.n = w.n;
      cfg.nb = w.nb;
      cfg.p = w.p;
      cfg.q = w.q;
      cfg.seed = seed;
      cfg.precision = w.precision;
      cfg.pipeline = kSplit;
      cfg.fact_threads = w.fact_threads;
      cfg.blas_threads = 1;
      cfg.update_streams = 1;
      cfg.kernel_threads = 1;
      out.push_back({std::string("perfbench/") + w.name + "/seed" +
                         std::to_string(seed),
                     cfg});
    }
  }
  return out;
}

}  // namespace

/// Exit status for a kernel version this CPU cannot run (ctest's skip).
constexpr int kSkip = 77;

int main(int argc, char** argv) {
  std::optional<hplx::blas::detail::PinKernelVersion> pin;
  if (argc > 1) {
    for (const auto& kv : hplx::blas::detail::kernel_versions<double>()) {
      if (std::strcmp(kv.isa, argv[1]) == 0 && !kv.runs_here()) {
        std::fprintf(stderr, "SKIPPED: this CPU cannot run kernel version %s\n",
                     kv.isa);
        return kSkip;
      }
    }
    pin.emplace(argv[1]);  // throws for a version this build lacks
  }
  for (const Case& c : cases()) {
    HplResult r;
    hplx::comm::World::run(c.cfg.p * c.cfg.q,
                           [&](hplx::comm::Communicator& world) {
                             HplResult mine = hplx::core::run_hpl(world, c.cfg);
                             if (world.rank() == 0) r = std::move(mine);
                           });
    std::printf("%s %.17g %d %d %ld\n", c.name.c_str(), r.verify.residual,
                r.ir_iters, r.ir_fallback ? 1 : 0, r.rs_wire_bytes);
  }
  return 0;
}
