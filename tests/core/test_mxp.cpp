/// Mixed-precision (HPL-MxP) mode: the fp32 factorization plus fp64
/// iterative refinement must reach the same residual criterion as the
/// fp64 solve, deterministically, across grids, pipelines, stream counts
/// and swap chunkings — and fall back to fp64 when refinement cannot
/// converge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/world.hpp"
#include "core/backsolve.hpp"
#include "core/driver.hpp"
#include "tests/blas/reference.hpp"
#include "util/error.hpp"

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
  cfg.precision = PrecisionMode::MXP32;
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

class MxpSolveSweep : public ::testing::TestWithParam<Param> {};

TEST_P(MxpSolveSweep, RefinesToFp64Residual) {
  const auto [p, q, n, nb, mode] = GetParam();
  HplConfig cfg = base_cfg(n, nb, p, q);
  cfg.pipeline = mode;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed)
      << "residual=" << r.verify.residual << " for " << p << "x" << q
      << " n=" << n << " nb=" << nb << " mode=" << to_string(mode);
  EXPECT_LT(r.verify.residual, 16.0);
  // A well-conditioned system refines rather than falling back, and the
  // fp32 solve alone is far from fp64 accuracy: at least one correction.
  EXPECT_FALSE(r.ir_fallback);
  EXPECT_GE(r.ir_iters, 1);
  EXPECT_GT(r.gflops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, MxpSolveSweep,
    ::testing::Values(Param{1, 1, 96, 16, PipelineMode::Simple},
                      Param{1, 1, 96, 16, PipelineMode::Lookahead},
                      Param{1, 1, 96, 16, PipelineMode::LookaheadSplit},
                      Param{1, 2, 128, 16, PipelineMode::LookaheadSplit},
                      Param{2, 1, 128, 16, PipelineMode::LookaheadSplit},
                      Param{2, 2, 128, 16, PipelineMode::Simple},
                      Param{2, 2, 128, 16, PipelineMode::LookaheadSplit},
                      Param{2, 3, 144, 16, PipelineMode::LookaheadSplit},
                      // Process columns of three and four ranks: the
                      // correction's pivot replay crosses several owners.
                      Param{3, 2, 144, 16, PipelineMode::LookaheadSplit},
                      Param{4, 1, 128, 16, PipelineMode::LookaheadSplit},
                      // Ragged last panel and single-panel shapes.
                      Param{2, 2, 100, 16, PipelineMode::LookaheadSplit},
                      Param{1, 1, 37, 8, PipelineMode::LookaheadSplit},
                      Param{2, 2, 32, 32, PipelineMode::Lookahead}));

// The correction's two distributed sweeps, driven directly on a crafted
// factored matrix: unit-lower L below the diagonal, a well-conditioned U
// on and above it, and per-panel pivot lists whose swaps cross process
// rows. The home-column panel (two RHS columns) goes through the
// unit-lower sweep with its interleaved pivot replay, then the upper
// sweep, and is replicated; every rank must match a dense serial solve
// that replays panel k's swaps just before block k.
using SweepParam = std::tuple<int /*p*/, int /*q*/, long /*n*/, int /*nb*/>;

class MxpSweepPair : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MxpSweepPair, MatchesSerialInterleavedSolve) {
  const auto [p, q, n, nb] = GetParam();
  const long nrhs = 2;
  const long nblocks = (n + nb - 1) / nb;
  const auto at = [n = n](long i, long j) {
    return static_cast<std::size_t>(i + j * n);
  };

  // Dense L\U and right-hand sides, fp32-exact so both solves start from
  // the same values.
  testref::Rand rng(static_cast<std::uint64_t>(n) * 131 + p * 7 + q);
  const auto f32 = [](double v) {
    return static_cast<double>(static_cast<float>(v));
  };
  std::vector<double> lu(static_cast<std::size_t>(n * n));
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < n; ++i)
      lu[at(i, j)] = f32(i == j   ? 4.0 + std::fabs(rng.next())
                         : i < j ? 0.5 * rng.next()
                                 : rng.next() / static_cast<double>(n));
  std::vector<double> rhs(static_cast<std::size_t>(n * nrhs));
  for (auto& v : rhs) v = f32(rng.next());
  std::vector<std::vector<long>> pivots(static_cast<std::size_t>(nblocks));
  for (long k = 0; k < nblocks; ++k) {
    const long jk = k * nb;
    const long jbk = std::min<long>(nb, n - jk);
    for (long kk = 0; kk < jbk; ++kk) {
      // Rows jk+kk..n-1 are eligible; every third swap is the identity.
      const long span = n - (jk + kk);
      const long off = kk % 3 == 2 ? 0
                                   : static_cast<long>(std::fabs(rng.next()) *
                                                       static_cast<double>(
                                                           span)) % span;
      pivots[static_cast<std::size_t>(k)].push_back(jk + kk + off);
    }
  }

  // Serial reference: forward substitution with panel k's swaps replayed
  // right before block k, then backward substitution.
  std::vector<double> ref = rhs;
  for (long r = 0; r < nrhs; ++r) {
    double* z = ref.data() + r * n;
    for (long k = 0; k < nblocks; ++k) {
      const long jk = k * nb;
      const auto& ip = pivots[static_cast<std::size_t>(k)];
      for (std::size_t kk = 0; kk < ip.size(); ++kk)
        std::swap(z[jk + static_cast<long>(kk)], z[ip[kk]]);
      for (long j = jk; j < jk + static_cast<long>(ip.size()); ++j)
        for (long i = j + 1; i < n; ++i) z[i] -= lu[at(i, j)] * z[j];
    }
    for (long i = n - 1; i >= 0; --i) {
      for (long j = i + 1; j < n; ++j) z[i] -= lu[at(i, j)] * z[j];
      z[i] /= lu[at(i, i)];
    }
  }

  std::vector<std::vector<float>> results(static_cast<std::size_t>(p * q));
  comm::World::run(p * q, [&, n = n, nb = nb, p = p, q = q](
                              comm::Communicator& world) {
    grid::ProcessGrid g(world, p, q);
    device::Device dev("d", 1ull << 24);
    ThreadTeam team(1);
    DistMatrixT<float> a(dev, g, team, n, nb, /*seed=*/1);
    for (long jl = 0; jl < a.nloc(); ++jl) {
      const long jg = a.cols().to_global(jl, g.mycol());
      if (jg >= n) continue;
      for (long il = 0; il < a.mloc(); ++il)
        *a.at(il, jl) = static_cast<float>(
            lu[at(a.rows().to_global(il, g.myrow()), jg)]);
    }
    const long ldb = std::max<long>(a.mloc(), 1);
    std::vector<float> dh(static_cast<std::size_t>(ldb * nrhs), 0.0f);
    if (g.mycol() == a.cols().owner(n))
      for (long r = 0; r < nrhs; ++r)
        for (long il = 0; il < a.mloc(); ++il)
          dh[static_cast<std::size_t>(il + r * ldb)] = static_cast<float>(
              rhs[at(a.rows().to_global(il, g.myrow()), r)]);
    device::Stream stream(dev);
    triangular_sweep(g, a, stream, Triangle::UnitLower, dh.data(), ldb,
                     nrhs, &pivots, nullptr);
    triangular_sweep(g, a, stream, Triangle::Upper, dh.data(), ldb, nrhs,
                     nullptr, nullptr);
    auto& out = results[static_cast<std::size_t>(world.rank())];
    out.resize(static_cast<std::size_t>(n * nrhs));
    replicate_panel(g, a, dh.data(), ldb, nrhs, out.data(), nullptr);
  });

  double scale = 1.0;
  for (double v : ref) scale = std::max(scale, std::fabs(v));
  for (std::size_t rank = 0; rank < results.size(); ++rank)
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(results[rank][i], ref[i], 1e-4 * scale)
          << "rank " << rank << ", element " << i << " on " << p << "x" << q;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MxpSweepPair,
    ::testing::Values(SweepParam{1, 1, 40, 8}, SweepParam{2, 2, 48, 8},
                      // Ragged last block (45 = 5·8 + 5).
                      SweepParam{3, 2, 45, 8}, SweepParam{4, 1, 40, 4},
                      SweepParam{1, 3, 36, 6}));

// Refinement's correction sweeps run trsm and gemm on the primary stream
// after the factorization, so the run's stream totals must include them.
// The modeled busy clock is deterministic: 1 correction (this shape's
// count) bills strictly more than 0 (a tolerance the first residual
// passes).
TEST(Mxp, StreamTotalsIncludeRefinement) {
  HplConfig cfg = base_cfg(96, 16, 1, 1);
  const HplResult refined = run(cfg);
  cfg.ir_tol = 1e30;
  const HplResult unrefined = run(cfg);
  ASSERT_EQ(refined.ir_iters, 1);
  ASSERT_EQ(unrefined.ir_iters, 0);
  ASSERT_FALSE(refined.ir_fallback);
  ASSERT_FALSE(unrefined.ir_fallback);
  EXPECT_GT(refined.stream_busy_seconds.at(0),
            unrefined.stream_busy_seconds.at(0));
}

TEST(Mxp, UnreachableToleranceFallsBackToFp64) {
  HplConfig cfg = base_cfg(96, 16, 1, 1);
  cfg.ir_tol = 1e-12;  // below what any refinement can reach
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.ir_fallback);
  // The fallback is a true fp64 solve: it passes the standard criterion.
  EXPECT_TRUE(r.verify.passed) << "residual=" << r.verify.residual;
  EXPECT_LT(r.verify.residual, 16.0);
}

// The fallback's phase totals cover everything the mode executed: the
// failed mxp32 attempt (its factorization, backsolve and refinement) plus
// the fp64 re-run, so they exceed a plain fp64 run's at the same shape.
// The modeled stream clock is deterministic, so it must strictly exceed.
// The wall-clock FACT and stream seconds are compared by their minima over
// interleaved runs on one FACT thread — the estimate least moved by other
// load on the host — with a margin the attempt's own share (about as much
// again as the fp64 run) clears and run-to-run noise does not.
TEST(Mxp, FallbackTotalsIncludeTheFailedAttempt) {
  HplConfig cfg = base_cfg(96, 16, 1, 1);
  cfg.fact_threads = 1;
  cfg.ir_tol = 1e-12;  // below what any refinement can reach
  HplConfig fp64 = cfg;
  fp64.precision = PrecisionMode::FP64;
  constexpr int kRuns = 7;
  std::vector<double> fb_fact, fb_gpu, fp_fact, fp_gpu;
  for (int i = 0; i < kRuns; ++i) {
    const HplResult fb = run(cfg);
    const HplResult plain = run(fp64);
    ASSERT_TRUE(fb.ir_fallback);
    ASSERT_FALSE(plain.ir_fallback);
    ASSERT_EQ(fb.stream_busy_seconds.size(), plain.stream_busy_seconds.size());
    EXPECT_GT(fb.stream_busy_seconds.at(0), plain.stream_busy_seconds.at(0));
    fb_fact.push_back(fb.fact_seconds);
    fb_gpu.push_back(fb.gpu_seconds);
    fp_fact.push_back(plain.fact_seconds);
    fp_gpu.push_back(plain.gpu_seconds);
  }
  auto least = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  EXPECT_GT(least(fb_fact), 1.3 * least(fp_fact));
  EXPECT_GT(least(fb_gpu), 1.3 * least(fp_gpu));
}

TEST(Mxp, ZeroCorrectionBudgetFallsBackToFp64) {
  HplConfig cfg = base_cfg(96, 16, 1, 1);
  cfg.ir_max_iters = 0;  // raw fp32 residual cannot pass on its own
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.ir_fallback);
  EXPECT_EQ(r.ir_iters, 0);
  EXPECT_TRUE(r.verify.passed);
}

// HPL.dat rejects these refinement knobs; a config built in code must be
// rejected by run_hpl too, naming the field, instead of refining against
// a tolerance no residual can pass and then falling back to fp64.
TEST(Mxp, InvalidRefinementKnobsRejected) {
  const std::vector<std::pair<const char*, void (*)(HplConfig&)>> bad = {
      {"ir_tol", [](HplConfig& c) { c.ir_tol = std::nan(""); }},
      {"ir_tol", [](HplConfig& c) { c.ir_tol = HUGE_VAL; }},
      {"ir_tol", [](HplConfig& c) { c.ir_tol = 0.0; }},
      {"ir_tol", [](HplConfig& c) { c.ir_tol = -1.0; }},
      {"ir_max_iters", [](HplConfig& c) { c.ir_max_iters = -1; }},
  };
  for (const auto& [field, set] : bad) {
    HplConfig cfg = base_cfg(64, 16, 1, 1);
    set(cfg);
    std::string what;
    try {
      run(cfg);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find(field), std::string::npos)
        << field << ": `" << what << "`";
  }
}

// The mxp32 pipeline must stay bitwise deterministic under every knob
// that only re-partitions work: the refined residual (a pure function of
// the computed solution) must not move.
TEST(Mxp, BitwiseIdenticalAcrossExecutionKnobs) {
  std::vector<double> residuals;
  std::vector<int> iters;
  for (const auto& [threads, streams, chunk] :
       {std::tuple<int, int, long>{1, 1, 256 * 1024},
        std::tuple<int, int, long>{4, 1, 256 * 1024},
        std::tuple<int, int, long>{1, 3, 256 * 1024},
        std::tuple<int, int, long>{4, 3, 4096},
        std::tuple<int, int, long>{2, 2, 1024}}) {
    HplConfig cfg = base_cfg(128, 16, 2, 2);
    cfg.pipeline = PipelineMode::LookaheadSplit;
    cfg.blas_threads = threads;
    cfg.update_streams = streams;
    cfg.swap_chunk_bytes = chunk;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed);
    residuals.push_back(r.verify.residual);
    iters.push_back(r.ir_iters);
  }
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    EXPECT_EQ(residuals[i], residuals[0])
        << "mxp32 residual moved between execution-knob variants";
    EXPECT_EQ(iters[i], iters[0]);
  }
}

// Construction's generate-cast-norm pass and refinement's residual split
// the local rows over the FACT team by whole row blocks: the refined
// residual, the correction count and the fallback flag must not move with
// the team size, including where a member owns no rows (n = 96 on 2x2
// leaves process row 1 one block).
TEST(Mxp, BitwiseIdenticalAcrossFactThreads) {
  for (const auto& [p, q, n, nb] :
       {std::tuple<int, int, long, int>{1, 1, 200, 16},
        std::tuple<int, int, long, int>{2, 2, 160, 16},
        std::tuple<int, int, long, int>{2, 2, 96, 32}}) {
    std::vector<HplResult> runs;
    for (int threads = 1; threads <= 4; ++threads) {
      HplConfig cfg = base_cfg(n, nb, p, q);
      cfg.pipeline = PipelineMode::LookaheadSplit;
      cfg.fact_threads = threads;
      runs.push_back(run(cfg));
      const HplResult& r = runs.back();
      EXPECT_TRUE(r.verify.passed) << p << "x" << q << " n=" << n
                                   << " fact_threads=" << threads;
      EXPECT_FALSE(r.ir_fallback);
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].verify.residual, runs[0].verify.residual)
          << p << "x" << q << " n=" << n << " fact_threads=" << i + 1;
      EXPECT_EQ(runs[i].ir_iters, runs[0].ir_iters);
      EXPECT_EQ(runs[i].ir_fallback, runs[0].ir_fallback);
    }
  }
}

// All pipeline modes reorder work but never change any value: the mxp32
// solution (and with it the refined residual) agrees bitwise.
TEST(Mxp, PipelineModesAgreeBitwise) {
  std::vector<double> residuals;
  for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                            PipelineMode::LookaheadSplit}) {
    HplConfig cfg = base_cfg(128, 16, 2, 2);
    cfg.pipeline = mode;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed);
    residuals.push_back(r.verify.residual);
  }
  EXPECT_EQ(residuals[1], residuals[0]);
  EXPECT_EQ(residuals[2], residuals[0]);
}

// Hazard-checker sweep over the mxp32 pipeline: the fp32 data path
// (half-width staging, refinement's device solves included) must introduce
// no new unfenced host/device overlap anywhere in
// pipeline × streams × chunking.
TEST(Mxp, HazardSweepIsClean) {
  for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                            PipelineMode::LookaheadSplit}) {
    for (int streams : {1, 3}) {
      for (long chunk : {long{1024}, long{4096}, long{256 * 1024}}) {
        HplConfig cfg = base_cfg(96, 16, 2, 2);
        cfg.pipeline = mode;
        cfg.update_streams = streams;
        cfg.swap_chunk_bytes = chunk;
        cfg.hazard_check = true;
        const HplResult r = run(cfg);
        EXPECT_TRUE(r.hazard_checked);
        EXPECT_TRUE(r.hazards.empty())
            << r.hazards.size() << " hazard(s) in mode=" << to_string(mode)
            << " streams=" << streams << " chunk=" << chunk << ": "
            << (r.hazards.empty() ? "" : r.hazards.front().detail);
        EXPECT_TRUE(r.verify.passed);
      }
    }
  }
}

// The per-precision throughput curves must order the modeled device time:
// fp32-billed ≤ fp64, on identical schedules. The stream totals include
// refinement's corrections, which fp64 does not run, so a tolerance the
// first residual passes keeps mxp32 to factorization and backsolve.
TEST(Mxp, ModeledDeviceTimeOrdersByPrecision) {
  auto modeled_busy = [&](PrecisionMode prec) {
    HplConfig cfg = base_cfg(128, 16, 1, 1);
    cfg.precision = prec;
    cfg.ir_tol = 1e30;
    cfg.verify = false;
    const HplResult r = run(cfg);
    double sum = 0.0;
    for (double s : r.stream_busy_seconds) sum += s;
    return sum;
  };
  const double t64 = modeled_busy(PrecisionMode::FP64);
  const double t32 = modeled_busy(PrecisionMode::MXP32);
  EXPECT_GT(t64, 0.0);
  EXPECT_GT(t32, 0.0);
  EXPECT_LE(t32, t64);
}

}  // namespace
}  // namespace hplx::core
