/// End-to-end solves: every grid shape × pipeline mode must produce a
/// solution passing HPL's residual criterion, and all pipeline modes must
/// agree bitwise (they reorder work across phases but never within a
/// column of the matrix).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
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

using Param = std::tuple<int /*p*/, int /*q*/, long /*n*/, int /*nb*/,
                         PipelineMode>;

class HplSolveSweep : public ::testing::TestWithParam<Param> {};

TEST_P(HplSolveSweep, ResidualPasses) {
  const auto [p, q, n, nb, mode] = GetParam();
  HplConfig cfg = base_cfg(n, nb, p, q);
  cfg.pipeline = mode;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed)
      << "residual=" << r.verify.residual << " for " << p << "x" << q
      << " n=" << n << " nb=" << nb << " mode=" << to_string(mode);
  EXPECT_LT(r.verify.residual, 16.0);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_EQ(static_cast<long>(r.trace.iterations.size()), (n + nb - 1) / nb);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, HplSolveSweep,
    ::testing::Values(
        // Single rank, every mode.
        Param{1, 1, 96, 16, PipelineMode::Simple},
        Param{1, 1, 96, 16, PipelineMode::Lookahead},
        Param{1, 1, 96, 16, PipelineMode::LookaheadSplit},
        // Row of processes (maximum core sharing shape).
        Param{1, 2, 128, 16, PipelineMode::LookaheadSplit},
        Param{1, 4, 128, 16, PipelineMode::Lookahead},
        // Column of processes.
        Param{2, 1, 128, 16, PipelineMode::LookaheadSplit},
        Param{4, 1, 96, 16, PipelineMode::Simple},
        // 2D grids, including the paper's 4×2 single-node shape.
        Param{2, 2, 128, 16, PipelineMode::Simple},
        Param{2, 2, 128, 16, PipelineMode::Lookahead},
        Param{2, 2, 128, 16, PipelineMode::LookaheadSplit},
        Param{2, 3, 144, 16, PipelineMode::LookaheadSplit},
        Param{4, 2, 128, 16, PipelineMode::LookaheadSplit},
        // N not a multiple of NB (ragged last panel).
        Param{2, 2, 100, 16, PipelineMode::Simple},
        Param{2, 2, 100, 16, PipelineMode::LookaheadSplit},
        Param{1, 1, 37, 8, PipelineMode::LookaheadSplit},
        // NB == N (single panel).
        Param{2, 2, 32, 32, PipelineMode::Lookahead}));

TEST(HplSolve, PipelineModesAgreeBitwise) {
  // Every mode runs one schedule with different section boundaries (the
  // look-ahead depth and where the right section starts; split fraction 0
  // leaves no right section, 1 makes it the whole window). Each column is
  // swapped exactly once and updated in the same order, so besides the
  // solution the row-swap wire bytes and the iteration-record count agree
  // too: a schedule that swapped a section twice, or skipped one, fails
  // here even when its residual survives.
  struct Mode {
    PipelineMode pipeline;
    double split;
  };
  const Mode modes[] = {{PipelineMode::Simple, 0.5},
                        {PipelineMode::Lookahead, 0.5},
                        {PipelineMode::LookaheadSplit, 0.0},
                        {PipelineMode::LookaheadSplit, 0.5},
                        {PipelineMode::LookaheadSplit, 1.0}};
  for (const auto& [p, q] : {std::pair{1, 1}, std::pair{2, 2}}) {
    std::vector<HplResult> runs;
    for (const Mode& m : modes) {
      HplConfig cfg = base_cfg(128, 16, p, q);
      cfg.pipeline = m.pipeline;
      cfg.split_fraction = m.split;
      runs.push_back(run(cfg));
    }
    // One process row swaps in place: nothing goes on the wire.
    if (p == 1) {
      EXPECT_EQ(runs[0].rs_wire_bytes, 0) << p << "x" << q;
      EXPECT_EQ(runs[0].rs_wire_seconds, 0.0) << p << "x" << q;
    } else {
      EXPECT_GT(runs[0].rs_wire_bytes, 0) << p << "x" << q;
    }
    EXPECT_EQ(runs[0].trace.iterations.size(), 8u) << p << "x" << q;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      const std::string what = std::to_string(p) + "x" + std::to_string(q) +
                                " " + to_string(modes[i].pipeline) +
                                " split=" + std::to_string(modes[i].split);
      // The scaled residual is a deterministic function of x: identical x
      // across modes → identical residual.
      EXPECT_EQ(runs[i].verify.residual, runs[0].verify.residual) << what;
      EXPECT_EQ(runs[i].rs_wire_bytes, runs[0].rs_wire_bytes) << what;
      EXPECT_EQ(runs[i].trace.iterations.size(),
                runs[0].trace.iterations.size())
          << what;
    }
  }
}

TEST(HplSolve, SplitFractionSweepStaysCorrect) {
  for (double f : {0.25, 0.5, 0.75, 1.0}) {
    HplConfig cfg = base_cfg(128, 16, 2, 2);
    cfg.pipeline = PipelineMode::LookaheadSplit;
    cfg.split_fraction = f;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << "split=" << f;
  }
}

TEST(HplSolve, BcastVariantsStayCorrect) {
  for (comm::BcastAlgo algo :
       {comm::BcastAlgo::Binomial, comm::BcastAlgo::Ring1,
        comm::BcastAlgo::Ring1Mod, comm::BcastAlgo::Ring2,
        comm::BcastAlgo::Ring2Mod, comm::BcastAlgo::Long,
        comm::BcastAlgo::LongMod}) {
    HplConfig cfg = base_cfg(96, 16, 1, 4);
    cfg.bcast = algo;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << comm::to_string(algo);
  }
}

TEST(HplSolve, RowSwapAlgosStayCorrectAndAgree) {
  // Power-of-two P so binary exchange takes its dedicated path; all three
  // SWAP selections move identical data and must agree bitwise.
  std::vector<double> residuals;
  for (RowSwapAlgo algo : {RowSwapAlgo::SpreadRoll,
                           RowSwapAlgo::BinaryExchange, RowSwapAlgo::Mix}) {
    HplConfig cfg = base_cfg(128, 16, 4, 1);
    cfg.swap = algo;
    cfg.swap_threshold = 40;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << to_string(algo);
    residuals.push_back(r.verify.residual);
  }
  EXPECT_EQ(residuals[0], residuals[1]);
  EXPECT_EQ(residuals[0], residuals[2]);
}

TEST(HplSolve, BinaryExchangeOnOddColumnFallsBack) {
  // P = 3 is not a power of two: the recursive-doubling request must fall
  // back to the ring transparently and stay correct.
  HplConfig cfg = base_cfg(96, 16, 3, 1);
  cfg.swap = RowSwapAlgo::BinaryExchange;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
}

TEST(HplSolve, FactVariantsStayCorrect) {
  for (FactVariant v : {FactVariant::Left, FactVariant::Right,
                        FactVariant::Crout, FactVariant::RecursiveRight}) {
    HplConfig cfg = base_cfg(96, 16, 2, 2);
    cfg.fact = v;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << to_string(v);
  }
  // Recursion over each base variant (HPL's PFACT under RFACT).
  for (FactVariant base : {FactVariant::Left, FactVariant::Crout,
                           FactVariant::Right}) {
    HplConfig cfg = base_cfg(96, 16, 2, 2);
    cfg.fact = FactVariant::RecursiveRight;
    cfg.rfact_base = base;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << "recursive over " << to_string(base);
  }
}

TEST(HplSolve, ThreadTeamSizesStayCorrect) {
  for (int t : {1, 3, 5}) {
    HplConfig cfg = base_cfg(96, 16, 2, 2);
    cfg.fact_threads = t;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << "threads=" << t;
  }
}

TEST(HplSolve, TraceTimersAreConsistent) {
  HplConfig cfg = base_cfg(128, 16, 2, 2);
  const HplResult r = run(cfg);
  double sum = 0.0;
  for (const auto& it : r.trace.iterations) {
    EXPECT_GE(it.total_s, 0.0);
    EXPECT_GE(it.gpu_s, 0.0);
    sum += it.total_s;
  }
  // Iterations are timed within the overall run.
  EXPECT_LE(sum, r.seconds * 1.5 + 1.0);
  EXPECT_GT(r.gpu_seconds, 0.0);
  EXPECT_GT(r.transfer_seconds, 0.0);
  EXPECT_GT(r.fact_seconds, 0.0);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EveryMatrixSolves) {
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.seed = GetParam();
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed) << "seed=" << cfg.seed
                               << " residual=" << r.verify.residual;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 2ull, 31337ull,
                                           0xdeadbeefull, 1ull << 62,
                                           987654321ull));

TEST(HplSolve, GridOrderIsARelabelingOnly) {
  // PMAP row- vs column-major must not change the solution.
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.row_major_grid = false;
  const double col = run(cfg).verify.residual;
  cfg.row_major_grid = true;
  const double row = run(cfg).verify.residual;
  EXPECT_EQ(col, row);
}

TEST(HplSolve, HbmExhaustionSurfacesAsError) {
  HplConfig cfg = base_cfg(256, 16, 1, 1);
  cfg.hbm_bytes = 100 * sizeof(double);  // far too small
  EXPECT_THROW(run(cfg), Error);
}

TEST(HplSolve, OutOfRangeKnobsRejectedOnEveryRank) {
  // HPL.dat range-checks these fields; a config built in code must be
  // rejected by run_hpl itself, on every rank, with an error naming the
  // field. The checks run before any collective: a rank that got past
  // them would block in the grid split and hang the test.
  struct Bad {
    const char* field;
    std::function<void(HplConfig&)> set;
  };
  const std::vector<Bad> bad = {
      {"split_fraction",
       [](HplConfig& c) { c.split_fraction = std::nan(""); }},
      {"split_fraction", [](HplConfig& c) { c.split_fraction = -0.25; }},
      {"split_fraction", [](HplConfig& c) { c.split_fraction = 1.5; }},
      {"swap_tile_cols", [](HplConfig& c) { c.swap_tile_cols = 0; }},
      {"swap_tile_cols", [](HplConfig& c) { c.swap_tile_cols = -1; }},
      {"swap_chunk_bytes", [](HplConfig& c) { c.swap_chunk_bytes = 0; }},
      {"swap_chunk_bytes", [](HplConfig& c) { c.swap_chunk_bytes = -1; }},
  };
  for (const auto& [p, q] : {std::pair{1, 1}, std::pair{2, 2}}) {
    for (std::size_t i = 0; i < bad.size(); ++i) {
      HplConfig cfg = base_cfg(64, 16, p, q);
      bad[i].set(cfg);
      std::vector<std::string> errors(static_cast<std::size_t>(p * q));
      comm::World::run(p * q, [&](comm::Communicator& world) {
        try {
          run_hpl(world, cfg);
        } catch (const Error& e) {
          errors[static_cast<std::size_t>(world.rank())] = e.what();
        }
      });
      for (std::size_t r = 0; r < errors.size(); ++r) {
        EXPECT_NE(errors[r].find(bad[i].field), std::string::npos)
            << "input " << i << " on " << p << "x" << q << ", rank " << r
            << ": `" << errors[r] << "`";
      }
    }
  }
}

TEST(HplSolve, WrongRankCountRejected) {
  HplConfig cfg = base_cfg(64, 16, 2, 2);
  EXPECT_THROW(comm::World::run(3, [&](comm::Communicator& world) {
    run_hpl(world, cfg);
  }), Error);
}

}  // namespace
}  // namespace hplx::core
