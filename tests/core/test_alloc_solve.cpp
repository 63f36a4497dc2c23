/// Solve-level allocator guarantees: after the warmup iterations a full
/// factorization performs zero upstream (system) allocations through any
/// pool — device HBM, host arena, fabric message pool — on every
/// pipeline, precision, and RHS-width variant; the steady window really
/// counts a system allocation made inside it; and the no-pivot path's
/// runtime dominance check rejects non-dominant inputs on every rank
/// instead of silently factoring garbage.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"
#include "core/report.hpp"
#include "device/alloc.hpp"
#include "util/error.hpp"

namespace hplx::core {
namespace {

HplConfig base_cfg(long n, int nb, int p, int q) {
  HplConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.p = p;
  cfg.q = q;
  cfg.seed = 20230901;
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

void expect_zero_steady_allocs(const HplResult& r, const char* what) {
  EXPECT_TRUE(r.verify.passed) << what;
  ASSERT_TRUE(r.alloc.steady_measured) << what;
  EXPECT_EQ(r.alloc.steady_upstream_allocs, 0u)
      << what << ": the solve hot path touched the system allocator "
      << "after warmup";
  EXPECT_GE(r.alloc.steady_hit_rate, 0.97) << what;
  ASSERT_FALSE(r.alloc.pools.empty()) << what;
}

// ------------------------------------------- zero steady-state allocation

TEST(AllocSolve, SteadyStateZeroAllocsSingleRank) {
  const HplResult r = run(base_cfg(512, 64, 1, 1));
  expect_zero_steady_allocs(r, "fp64 1x1");
  // Every communicator of a 1x1 grid has one rank and never sends, so
  // none of the three fabric pools is stocked for swap traffic.
  int comm_pools = 0;
  for (const AllocPoolReport& p : r.alloc.pools) {
    if (p.name != "comm") continue;
    ++comm_pools;
    EXPECT_EQ(p.hwm_bytes, 0u) << "a one-rank fabric pool was stocked";
  }
  EXPECT_EQ(comm_pools, 3);
}

TEST(AllocSolve, SteadyStateZeroAllocsGrid) {
  const HplResult r = run(base_cfg(512, 64, 2, 2));
  expect_zero_steady_allocs(r, "fp64 2x2");
}

TEST(AllocSolve, SteadyStateZeroAllocsSimplePipeline) {
  HplConfig cfg = base_cfg(512, 64, 2, 1);
  cfg.pipeline = PipelineMode::Simple;
  expect_zero_steady_allocs(run(cfg), "fp64 simple 2x1");
}

TEST(AllocSolve, SteadyStateZeroAllocsMixedPrecision) {
  HplConfig cfg = base_cfg(512, 64, 1, 2);
  cfg.precision = PrecisionMode::MXP32;
  expect_zero_steady_allocs(run(cfg), "mxp32 1x2");
}

TEST(AllocSolve, SteadyStateZeroAllocsMultiRhs) {
  HplConfig cfg = base_cfg(512, 64, 2, 2);
  cfg.nrhs = 4;
  expect_zero_steady_allocs(run(cfg), "nrhs=4 2x2");
}

TEST(AllocSolve, SteadyStateZeroAllocsNoPivot) {
  HplConfig cfg = base_cfg(512, 64, 2, 2);
  cfg.pivoting = PivotMode::None;
  cfg.diag_dominant = true;
  expect_zero_steady_allocs(run(cfg), "nopiv 2x2");
}

TEST(AllocSolve, SteadyStateZeroAllocsLateFirstPanelOwner) {
  // Panel ownership rotates through the q process columns, so on 1x4 the
  // last column factors its first panel only at iteration 3 — its
  // first-touch pfact scratch must count as warmup (the window opens
  // after one full rotation), not as a steady-state allocation.
  HplConfig cfg = base_cfg(768, 64, 1, 4);
  expect_zero_steady_allocs(run(cfg), "fp64 1x4 rotation");
}

TEST(AllocSolve, SteadyStateZeroAllocsBenchmarkGrid) {
  // The benchmark's fp64_2x2 shape. Whether a displaced-row scatterv
  // message goes eager (a pool lease) or straight into a posted receive
  // depends on thread timing, so a message larger than the prewarm bound
  // max(chunk, row) only sometimes lands in a size class warmup never
  // stocked. Repeat the solve so that an uncapped scatterv fails here
  // almost surely; every swap message must stay under the bound.
  for (int rep = 0; rep < 30; ++rep) {
    HplConfig cfg = base_cfg(2048, 128, 2, 2);
    cfg.seed = 20230901 + static_cast<std::uint64_t>(rep);
    cfg.fact_threads = 1;
    cfg.blas_threads = 1;
    const std::string what = "fp64 2x2 N=2048 NB=128 rep " +
                             std::to_string(rep);
    expect_zero_steady_allocs(run(cfg), what.c_str());
    if (HasFailure()) return;
  }
}

TEST(AllocSolve, UHasOneHomeInHbm) {
  // U of a panel lives in A on its diagonal process row and in one shared
  // strip on every other row, so rank 0's HBM holds the matrix plus at
  // most one strip — and no strip at all on one process row.
  struct Shape {
    int p, q;
    std::uint64_t hbm_acquires;
  };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{1, 3, 1}, Shape{2, 2, 2}}) {
    HplConfig cfg = base_cfg(512, 64, s.p, s.q);
    cfg.pipeline = PipelineMode::LookaheadSplit;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed);
    bool found = false;
    for (const AllocPoolReport& pool : r.alloc.pools) {
      if (pool.name != "gcd0.hbm") continue;
      found = true;
      EXPECT_EQ(pool.acquires, s.hbm_acquires) << s.p << "x" << s.q;
    }
    EXPECT_TRUE(found) << s.p << "x" << s.q;
  }
}

TEST(AllocSolve, ShortRunIsAllWarmup) {
  // Two panels: both warmup, no steady window to measure.
  const HplResult r = run(base_cfg(128, 64, 1, 1));
  EXPECT_TRUE(r.verify.passed);
  EXPECT_FALSE(r.alloc.steady_measured);
}

TEST(AllocSolve, SteadyWindowCountsSystemAllocations) {
  // The zero-allocation cases above are only meaningful if the window
  // sees an allocation made inside it. A panel broadcast hook that leases
  // from a fresh pool makes one system allocation per broadcast, so the
  // steady window must report them (1x2: every panel is broadcast).
  HplConfig cfg = base_cfg(384, 48, 1, 2);
  cfg.custom_bcast = [](comm::Communicator& row_comm, void* buf,
                        std::size_t bytes, int root) {
    device::PoolAllocator fresh("probe");
    device::Lease lease(fresh, 64);
    comm::bcast_bytes(row_comm, buf, bytes, root, comm::BcastAlgo::Ring1Mod);
  };
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
  ASSERT_TRUE(r.alloc.steady_measured);
  EXPECT_GT(r.alloc.steady_upstream_allocs, 0u);
}

// ----------------------------------------------------- hazard integration

TEST(AllocSolve, PooledReuseIsHazardClean) {
  HplConfig cfg = base_cfg(256, 32, 2, 2);
  cfg.hazard_check = true;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
  EXPECT_TRUE(r.hazard_checked);
  EXPECT_TRUE(r.hazards.empty())
      << "pooled lease reuse produced hazard violations";
}

// --------------------------------------------------------------- report

TEST(AllocSolve, ReportPrintsSteadyVerdictAndPoolRows) {
  const HplResult r = run(base_cfg(512, 64, 1, 1));
  std::ostringstream os;
  print_alloc_report(os, r);
  const std::string text = os.str();
  EXPECT_NE(text.find("Memory pools"), std::string::npos);
  EXPECT_NE(text.find("zero-alloc hot path"), std::string::npos);
  EXPECT_NE(text.find("arena"), std::string::npos);
  EXPECT_NE(text.find("comm"), std::string::npos);
}

// ------------------------------------------------ dominance runtime check

TEST(AllocSolve, NoPivotRejectsNonDominantMatrix) {
  // Classic random matrix, no +N diagonal shift: not diagonally
  // dominant, so pivoting = none must fail fast on every rank (the
  // verdict travels with the factored block's broadcast).
  HplConfig cfg = base_cfg(192, 32, 2, 1);
  cfg.pivoting = PivotMode::None;
  cfg.diag_dominant = false;
  EXPECT_THROW(run(cfg), Error);
}

TEST(AllocSolve, NoPivotAcceptsDominantMatrix) {
  HplConfig cfg = base_cfg(192, 32, 2, 1);
  cfg.pivoting = PivotMode::None;
  cfg.diag_dominant = true;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
}

}  // namespace
}  // namespace hplx::core
