/// Solver-variant matrix: panel-factorization variants (Left / Crout /
/// Right / recursive), pivoting modes (full partial pivoting vs the
/// gesv_nopiv-style no-pivot path for diagonally dominant systems),
/// multi-RHS backsolve widths and precision modes must all compose — every
/// combination passes the HPL residual criterion, stays bitwise
/// deterministic under the execution knobs that only re-partition work,
/// and the no-pivot path provably bypasses the row-swap machinery (zero
/// wire seconds, zero wire bytes, zero per-iteration swap time in the
/// trace).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "comm/world.hpp"
#include "core/driver.hpp"

namespace hplx::core {
namespace {

HplConfig base_cfg(long n, int nb, int p, int q) {
  HplConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.p = p;
  cfg.q = q;
  cfg.seed = 20230601;
  cfg.fact_threads = 2;
  cfg.rfact_nbmin = 8;
  cfg.verify = true;
  return cfg;
}

HplResult run(const HplConfig& cfg) {
  HplResult out;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    HplResult r = run_hpl(world, cfg);
    if (world.rank() == 0) out = std::move(r);
  });
  return out;
}

void expect_no_rowswap_traffic(const HplResult& r, const std::string& what) {
  // The no-pivot path must bypass the entire swap machinery, not merely
  // run it cheaply: nothing on the wire, nothing in the per-iteration
  // swap timers.
  EXPECT_EQ(r.rs_wire_seconds, 0.0) << what;
  EXPECT_EQ(r.rs_wire_bytes, 0) << what;
  for (const auto& it : r.trace.iterations)
    EXPECT_EQ(it.rs_wire_s, 0.0) << what << " iteration " << it.iteration;
}

using Param = std::tuple<FactVariant /*fact*/, FactVariant /*rfact base*/,
                         PivotMode, int /*nrhs*/, PrecisionMode,
                         int /*update_streams*/>;

class VariantSweep : public ::testing::TestWithParam<Param> {};

TEST_P(VariantSweep, EveryCombinationPassesResiduals) {
  const auto [fact, rbase, pivoting, nrhs, prec, streams] = GetParam();
  HplConfig cfg = base_cfg(128, 16, 2, 2);
  cfg.fact = fact;
  cfg.rfact_base = rbase;
  cfg.pivoting = pivoting;
  cfg.diag_dominant = pivoting == PivotMode::None;
  cfg.nrhs = nrhs;
  cfg.precision = prec;
  cfg.update_streams = streams;
  const HplResult r = run(cfg);
  const std::string what = std::string(to_string(fact)) + "/" +
                           to_string(rbase) + " " + to_string(pivoting) +
                           " nrhs=" + std::to_string(nrhs) + " " +
                           to_string(prec) +
                           " streams=" + std::to_string(streams);
  EXPECT_TRUE(r.verify.passed)
      << what << " residual=" << r.verify.residual;
  EXPECT_LT(r.verify.residual, 16.0) << what;
  EXPECT_GT(r.gflops, 0.0) << what;
  if (pivoting == PivotMode::None) expect_no_rowswap_traffic(r, what);
}

constexpr auto kL = FactVariant::Left;
constexpr auto kC = FactVariant::Crout;
constexpr auto kR = FactVariant::Right;
constexpr auto kV = FactVariant::RecursiveRight;
constexpr auto kFull = PivotMode::Full;
constexpr auto kNone = PivotMode::None;
constexpr auto kF64 = PrecisionMode::FP64;
constexpr auto kM32 = PrecisionMode::MXP32;

INSTANTIATE_TEST_SUITE_P(
    FactPivotRhsPrecision, VariantSweep,
    ::testing::Values(
        // Every pfact variant, both pivot modes, single RHS.
        Param{kL, kL, kFull, 1, kF64, 1}, Param{kC, kC, kFull, 1, kF64, 1},
        Param{kR, kR, kFull, 1, kF64, 1}, Param{kV, kR, kFull, 1, kF64, 1},
        Param{kL, kL, kNone, 1, kF64, 1}, Param{kC, kC, kNone, 1, kF64, 1},
        Param{kR, kR, kNone, 1, kF64, 1}, Param{kV, kR, kNone, 1, kF64, 1},
        // Recursive over every leaf base.
        Param{kV, kL, kFull, 1, kF64, 1}, Param{kV, kC, kFull, 2, kF64, 1},
        // Multi-RHS widths, both pivot modes, wider stream pools.
        Param{kR, kR, kFull, 3, kF64, 2}, Param{kV, kR, kFull, 8, kF64, 3},
        Param{kR, kR, kNone, 3, kF64, 2}, Param{kV, kR, kNone, 8, kF64, 3},
        // Mixed precision composes with both the pivot mode and nrhs.
        Param{kV, kR, kFull, 1, kM32, 1}, Param{kV, kR, kNone, 1, kM32, 2},
        Param{kC, kC, kFull, 3, kM32, 1}, Param{kR, kR, kNone, 4, kM32, 2},
        Param{kV, kR, kNone, 2, kM32, 1}));

// Full pivoting on a multi-rank process column does put row swaps on the
// wire — the zero-bytes assertion above is meaningful, not vacuous.
TEST(Variants, FullPivotingPutsRowSwapsOnTheWire) {
  HplConfig cfg = base_cfg(128, 16, 2, 2);
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
  EXPECT_GT(r.rs_wire_bytes, 0);
  EXPECT_GT(r.rs_wire_seconds, 0.0);
}

// A diagonally dominant system is still an ordinary system: full pivoting
// must solve it too (the generator shift does not break the pivoted path).
TEST(Variants, FullPivotingSolvesDominantSystems) {
  HplConfig cfg = base_cfg(128, 16, 2, 2);
  cfg.diag_dominant = true;
  cfg.nrhs = 2;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed) << "residual=" << r.verify.residual;
}

// The execution knobs that only re-partition work (BLAS thread lease,
// update-stream pool, swap chunking) must not move a single bit of the
// solution — for the no-pivot path and the multi-RHS backsolve exactly as
// PR 6 established for the pivoted single-RHS solve.
TEST(Variants, BitwiseIdenticalAcrossExecutionKnobs) {
  struct Case {
    PivotMode pivoting;
    int nrhs;
    PrecisionMode prec;
  };
  for (const Case& c : {Case{kNone, 1, kF64}, Case{kFull, 3, kF64},
                        Case{kNone, 4, kF64}, Case{kNone, 1, kM32}}) {
    std::vector<double> residuals;
    for (const auto& [threads, streams, chunk] :
         {std::tuple<int, int, long>{1, 1, 256 * 1024},
          std::tuple<int, int, long>{4, 1, 256 * 1024},
          std::tuple<int, int, long>{1, 3, 4096},
          std::tuple<int, int, long>{2, 2, 1024}}) {
      HplConfig cfg = base_cfg(128, 16, 2, 2);
      cfg.pipeline = PipelineMode::LookaheadSplit;
      cfg.pivoting = c.pivoting;
      cfg.diag_dominant = c.pivoting == PivotMode::None;
      cfg.nrhs = c.nrhs;
      cfg.precision = c.prec;
      cfg.blas_threads = threads;
      cfg.update_streams = streams;
      cfg.swap_chunk_bytes = chunk;
      const HplResult r = run(cfg);
      EXPECT_TRUE(r.verify.passed)
          << to_string(c.pivoting) << " nrhs=" << c.nrhs << " threads="
          << threads << " streams=" << streams << " chunk=" << chunk;
      residuals.push_back(r.verify.residual);
    }
    for (std::size_t i = 1; i < residuals.size(); ++i)
      EXPECT_EQ(residuals[i], residuals[0])
          << to_string(c.pivoting) << " nrhs=" << c.nrhs
          << ": residual moved between execution-knob variants";
  }
}

// Pipeline modes reorder work but never change any value, with or without
// the row-swap stage in the schedule.
TEST(Variants, PipelineModesAgreeBitwiseUnderNopivAndMultiRhs) {
  for (const auto& [pivoting, nrhs] :
       {std::pair<PivotMode, int>{kNone, 1}, std::pair<PivotMode, int>{
                                                 kFull, 3}}) {
    std::vector<double> residuals;
    for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                              PipelineMode::LookaheadSplit}) {
      HplConfig cfg = base_cfg(128, 16, 2, 2);
      cfg.pipeline = mode;
      cfg.pivoting = pivoting;
      cfg.diag_dominant = pivoting == PivotMode::None;
      cfg.nrhs = nrhs;
      const HplResult r = run(cfg);
      EXPECT_TRUE(r.verify.passed) << to_string(mode);
      residuals.push_back(r.verify.residual);
    }
    EXPECT_EQ(residuals[1], residuals[0]) << to_string(pivoting);
    EXPECT_EQ(residuals[2], residuals[0]) << to_string(pivoting);
  }
}

// Pfact variants may round differently inside the panel, but every one of
// them must solve the same system to the same quality: end-to-end residual
// parity at a production-shaped size.
TEST(Variants, PfactVariantsReachResidualParityAtN512) {
  std::vector<double> residuals;
  for (FactVariant v : {kL, kC, kR, kV}) {
    HplConfig cfg = base_cfg(512, 64, 2, 2);
    cfg.fact = v;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed)
        << to_string(v) << " residual=" << r.verify.residual;
    residuals.push_back(r.verify.residual);
  }
  const auto [lo, hi] = std::minmax_element(residuals.begin(),
                                            residuals.end());
  EXPECT_LT(*hi, 16.0);
  // Same algorithm to rounding: the spread across variants stays within a
  // small constant factor, nowhere near the pass/fail threshold.
  EXPECT_LT(*hi, 8.0 * std::max(*lo, 1e-300));
}

TEST(Variants, NopivMatchesFullPivotQualityAtN1024) {
  // The acceptance-shaped run, scaled to test time: on a diagonally
  // dominant N=1024 system the no-pivot solve passes the same criterion
  // as the fully pivoted one, with zero row-swap traffic.
  HplConfig cfg = base_cfg(1024, 128, 2, 2);
  cfg.diag_dominant = true;
  cfg.nrhs = 2;

  HplConfig nopiv = cfg;
  nopiv.pivoting = kNone;
  const HplResult rn = run(nopiv);
  EXPECT_TRUE(rn.verify.passed) << "residual=" << rn.verify.residual;
  expect_no_rowswap_traffic(rn, "nopiv N=1024");

  const HplResult rf = run(cfg);
  EXPECT_TRUE(rf.verify.passed) << "residual=" << rf.verify.residual;
  EXPECT_GT(rf.rs_wire_bytes, 0);
  // Dominance keeps the unpivoted growth factor at 1: the no-pivot
  // residual is as good as the pivoted one (up to rounding noise).
  EXPECT_LT(rn.verify.residual, 8.0 * std::max(rf.verify.residual, 1e-300));
}

// Hazard-checker sweep over the schedules this PR adds: the no-pivot
// broadcast path and the widened multi-RHS backsolve must introduce no
// unfenced host/device overlap anywhere in pipeline × streams × chunking.
TEST(Variants, HazardSweepIsClean) {
  for (const auto& [pivoting, nrhs] :
       {std::pair<PivotMode, int>{kNone, 1},
        std::pair<PivotMode, int>{kNone, 4},
        std::pair<PivotMode, int>{kFull, 4}}) {
    for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                              PipelineMode::LookaheadSplit}) {
      for (int streams : {1, 3}) {
        HplConfig cfg = base_cfg(96, 16, 2, 2);
        cfg.pipeline = mode;
        cfg.update_streams = streams;
        cfg.pivoting = pivoting;
        cfg.diag_dominant = pivoting == PivotMode::None;
        cfg.nrhs = nrhs;
        cfg.hazard_check = true;
        const HplResult r = run(cfg);
        ASSERT_TRUE(r.hazard_checked);
        EXPECT_TRUE(r.hazards.empty())
            << r.hazards.size() << " hazard(s) in " << to_string(pivoting)
            << " nrhs=" << nrhs << " mode=" << to_string(mode)
            << " streams=" << streams << ": "
            << (r.hazards.empty() ? "" : r.hazards.front().detail);
        EXPECT_TRUE(r.verify.passed);
      }
    }
  }
}

// HPLX_HAZARD=1 covers the new paths without any config change, matching
// the PR 5 contract.
TEST(Variants, EnvVarHazardCheckCoversNopivMultiRhs) {
  HplConfig cfg = base_cfg(96, 16, 1, 2);
  cfg.pivoting = kNone;
  cfg.diag_dominant = true;
  cfg.nrhs = 3;
  ASSERT_EQ(setenv("HPLX_HAZARD", "1", 1), 0);
  const HplResult r = run(cfg);
  unsetenv("HPLX_HAZARD");
  EXPECT_TRUE(r.verify.passed);
  ASSERT_TRUE(r.hazard_checked);
  EXPECT_TRUE(r.hazards.empty()) << r.hazards.size() << " records, e.g. "
                                 << r.hazards.front().op_a << " vs "
                                 << r.hazards.front().op_b << ": "
                                 << r.hazards.front().detail;
}

// Ragged trailing block: nrhs rides in the last column block even when N
// is not a block multiple, on both pivot paths.
TEST(Variants, RaggedLastPanelCarriesMultiRhs) {
  for (PivotMode pivoting : {kFull, kNone}) {
    HplConfig cfg = base_cfg(100, 16, 2, 2);
    cfg.pivoting = pivoting;
    cfg.diag_dominant = pivoting == PivotMode::None;
    cfg.nrhs = 6;  // 100 = 6*16 + 4: six RHS still fit the trailing block
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed)
        << to_string(pivoting) << " residual=" << r.verify.residual;
  }
}

}  // namespace
}  // namespace hplx::core
