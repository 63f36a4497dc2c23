/// End-to-end hazard-checker coverage of the solver.
///
/// The positive half re-introduces PR 4's bug class on purpose: the
/// RowSwapper's scatter fence is the event that orders the host's U
/// staging-buffer rewrite behind the previous iteration's device-side
/// unpack. A `SkipScatterFenceScope` keeps the *wait* (so the
/// run stays numerically correct and race-free) but hides the
/// happens-before edge from the tracker — exactly what the code would
/// look like had the fence been forgotten — and the checker must report
/// it, for one chunk per segment and for many, since the fused per-chunk
/// unpacks ride the same fence. The negative half sweeps the real
/// schedules (streams × pipelines × chunk sizes) and demands
/// zero violations: the fences the driver
/// actually places are sufficient, with no false positives from the
/// conservative span envelopes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "comm/world.hpp"
#include "core/driver.hpp"
#include "core/rowswap.hpp"
#include "device/hazard.hpp"
#include "tests/scoped_env.hpp"

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
  cfg.hazard_check = true;
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

constexpr int kHostDevice =
    static_cast<int>(device::HazardTracker::Kind::HostDevice);

/// The host-side rewrites of the swap staging that a hidden scatter fence
/// exposes: prepare()'s, communicate()'s, and, when the comm verifier
/// bridges collectives to the tracker (HPLX_COMM_CHECK=1), the U
/// allgatherv's own payload write.
bool rewrites_staging(const std::string& host) {
  return host == "rowswap.prepare" || host == "rowswap.communicate" ||
         host == "comm.allgatherv";
}

TEST(HazardSolve, MissingScatterFenceIsReported) {
  // P=2, because one process row swaps in place and stages nothing. With
  // the fence hidden, the rank whose look-ahead window is empty (Q=2)
  // reaches prepare() before the host ever joined the previous
  // iteration's unpack, so the prepare-stage rewrite of the staging
  // buffers is flagged; a rank with no rows to pack also reaches the
  // communicate-stage rewrite (and the collective's own write) without a
  // gather event to wait on, which is the same missing edge seen one
  // stage later. The default chunk holds a whole rank segment at this
  // size, so each window's U arrives as one fused unpack_rows_cm.
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.pipeline = PipelineMode::Lookahead;

  HplResult bad;
  {
    const SkipScatterFenceScope skip;
    bad = run(cfg);
  }
  // The wait itself still happens, so the answer is untouched...
  EXPECT_TRUE(bad.verify.passed) << "residual=" << bad.verify.residual;
  // ...but the model must see the missing edge.
  ASSERT_TRUE(bad.hazard_checked);
  ASSERT_FALSE(bad.hazards.empty());
  std::set<std::string> hosts, sites;
  for (const auto& r : bad.hazards) {
    EXPECT_EQ(r.kind, kHostDevice) << r.op_a << " vs " << r.op_b;
    hosts.emplace(r.op_a);
    sites.emplace(r.op_b);
  }
  // Only the host rewrites of the staging racing the previous cycle's
  // device unpacks may fire, and prepare()'s must: the fused U unpack and
  // the displaced-row unpack both read the staging, and both travel on
  // the column-major wire, so both carry the unpack_rows_cm label.
  EXPECT_TRUE(hosts.count("rowswap.prepare"));
  for (const std::string& h : hosts) EXPECT_TRUE(rewrites_staging(h)) << h;
  EXPECT_EQ(sites, (std::set<std::string>{"unpack_rows_cm"}));

  // Same config with the fence back in place: completely clean.
  const HplResult good = run(cfg);
  EXPECT_TRUE(good.verify.passed);
  ASSERT_TRUE(good.hazard_checked);
  EXPECT_TRUE(good.hazards.empty()) << good.hazards.size() << " records, e.g. "
                                    << good.hazards.front().op_a << " vs "
                                    << good.hazards.front().op_b << ": "
                                    << good.hazards.front().detail;
}

TEST(HazardSolve, MissingChunkFenceIsReported) {
  // The pipelined path's regression twin: fused per-chunk unpacks
  // (unpack_rows_cm enqueued inside the chunked allgatherv) are ordered
  // against the next prepare() by the same scatter fence. Hide it and the
  // tracker must flag the staging rewrite racing the fused unpacks.
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.pipeline = PipelineMode::Lookahead;
  cfg.swap_chunk_bytes = 4096;

  HplResult bad;
  {
    const SkipScatterFenceScope skip;
    bad = run(cfg);
  }
  EXPECT_TRUE(bad.verify.passed) << "residual=" << bad.verify.residual;
  ASSERT_TRUE(bad.hazard_checked);
  ASSERT_FALSE(bad.hazards.empty());
  std::set<std::string> hosts, sites;
  for (const auto& r : bad.hazards) {
    EXPECT_EQ(r.kind, kHostDevice) << r.op_a << " vs " << r.op_b;
    hosts.emplace(r.op_a);
    sites.emplace(r.op_b);
  }
  EXPECT_TRUE(hosts.count("rowswap.prepare"));
  for (const std::string& h : hosts) EXPECT_TRUE(rewrites_staging(h)) << h;
  // The fused chunk unpack must be among the flagged sites (the displaced
  // row unpack reads the same kind of staging under the same label).
  EXPECT_TRUE(sites.count("unpack_rows_cm"));
  EXPECT_LE(sites.size(), 2u);

  // Fence restored: the pipelined path is completely clean.
  const HplResult good = run(cfg);
  EXPECT_TRUE(good.verify.passed);
  ASSERT_TRUE(good.hazard_checked);
  EXPECT_TRUE(good.hazards.empty()) << good.hazards.size() << " records, e.g. "
                                    << good.hazards.front().op_a << " vs "
                                    << good.hazards.front().op_b << ": "
                                    << good.hazards.front().detail;
}

TEST(HazardSolve, CheckerOffLeavesResultUnmarked) {
  const ScopedUnsetEnv no_env("HPLX_HAZARD");
  HplConfig cfg = base_cfg(64, 16, 1, 1);
  cfg.hazard_check = false;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
  EXPECT_FALSE(r.hazard_checked);
  EXPECT_TRUE(r.hazards.empty());
}

TEST(HazardSolve, EnvVarEnablesCheckerAndPipelinedRunIsClean) {
  // HPLX_HAZARD=1 must attach the tracker without any config change —
  // and the default pipelined row-swap must come out violation-free.
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.pipeline = PipelineMode::LookaheadSplit;
  cfg.hazard_check = false;
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

using SweepShape = std::tuple<int /*p*/, int /*q*/, PipelineMode, long /*n*/>;

class HazardSweep : public ::testing::TestWithParam<SweepShape> {};

TEST_P(HazardSweep, FencedSchedulesAreViolationFree) {
  const auto [p, q, mode, n] = GetParam();
  for (int streams : {1, 2, 4}) {
    for (long chunk : {4096L, 256L * 1024L}) {
      HplConfig cfg = base_cfg(n, 16, p, q);
      cfg.pipeline = mode;
      cfg.update_streams = streams;
      cfg.swap_chunk_bytes = chunk;
      const HplResult r = run(cfg);
      EXPECT_TRUE(r.verify.passed)
          << "streams=" << streams << " chunk=" << chunk;
      ASSERT_TRUE(r.hazard_checked);
      EXPECT_TRUE(r.hazards.empty())
          << "streams=" << streams << " chunk=" << chunk << ": "
          << r.hazards.size() << " records, e.g. " << r.hazards.front().op_a
          << " vs " << r.hazards.front().op_b << ": "
          << r.hazards.front().detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, HazardSweep,
    ::testing::Values(SweepShape{1, 1, PipelineMode::Lookahead, 96},
                      SweepShape{1, 1, PipelineMode::LookaheadSplit, 96},
                      SweepShape{1, 2, PipelineMode::Lookahead, 96},
                      // At N=96 a 2x2 rank holds 48-49 local columns and
                      // csplit_ = 16, so the left section beside the
                      // right one is rarely more than the look-ahead
                      // band, and a dropped fence between them goes
                      // unseen. At N=192 (96 local columns, csplit_ =
                      // 48) both sections sit side by side for most
                      // iterations.
                      SweepShape{2, 2, PipelineMode::LookaheadSplit, 192},
                      SweepShape{2, 1, PipelineMode::Simple, 96},
                      SweepShape{1, 3, PipelineMode::LookaheadSplit, 96},
                      // A rank alternates between the diagonal row (U in
                      // A) and the shared strip while two panels'
                      // sections use it.
                      SweepShape{3, 1, PipelineMode::LookaheadSplit, 96}));

}  // namespace
}  // namespace hplx::core
