/// Multi-stream banded trailing update: the column-band decomposition
/// assigns disjoint column slices of the trailing submatrix to the pool's
/// streams, so every update_streams value must produce the
/// bitwise-identical factorization — the bands reorder *which queue* runs
/// a slice, never the arithmetic within a column.

#include <gtest/gtest.h>

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

using Shape = std::tuple<int /*p*/, int /*q*/, long /*n*/, int /*nb*/,
                         PipelineMode>;

class MultiStreamSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(MultiStreamSweep, StreamAndBandConfigsAgreeBitwise) {
  const auto [p, q, n, nb, mode] = GetParam();

  // Reference: the single-stream schedule (one band per window).
  HplConfig ref = base_cfg(n, nb, p, q);
  ref.pipeline = mode;
  const HplResult r0 = run(ref);
  ASSERT_TRUE(r0.verify.passed) << "reference residual=" << r0.verify.residual;

  for (int streams : {2, 4}) {
    HplConfig cfg = ref;
    cfg.update_streams = streams;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed)
        << "streams=" << streams << " residual=" << r.verify.residual;
    // The scaled residual is a deterministic function of x: identical
    // factors across stream counts → identical residual.
    EXPECT_EQ(r0.verify.residual, r.verify.residual) << "streams=" << streams;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, MultiStreamSweep,
    ::testing::Values(
        Shape{1, 1, 96, 16, PipelineMode::Lookahead},
        Shape{1, 1, 96, 16, PipelineMode::LookaheadSplit},
        Shape{2, 2, 100, 16, PipelineMode::LookaheadSplit},
        Shape{2, 2, 64, 16, PipelineMode::Simple}));

TEST(MultiStream, OccupancyRecordsCoverEveryStream) {
  HplConfig cfg = base_cfg(128, 16, 1, 1);
  cfg.pipeline = PipelineMode::LookaheadSplit;
  cfg.update_streams = 3;
  const HplResult r = run(cfg);
  ASSERT_TRUE(r.verify.passed);
  ASSERT_EQ(r.stream_real_seconds.size(), 3u);
  ASSERT_EQ(r.stream_busy_seconds.size(), 3u);
  // The primary carries swaps + the lookahead band; every spare stream
  // must have run at least one band of real work.
  for (std::size_t i = 0; i < r.stream_real_seconds.size(); ++i) {
    EXPECT_GT(r.stream_real_seconds[i], 0.0) << "stream " << i;
  }
  for (const auto& it : r.trace.iterations) {
    EXPECT_EQ(it.update_streams, 3);
  }
}

TEST(MultiStream, StreamCountClampedToRecordCapacity) {
  HplConfig cfg = base_cfg(64, 16, 1, 1);
  cfg.update_streams = 64;  // silently clamped to kMaxUpdateStreams
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed);
  EXPECT_LE(r.stream_real_seconds.size(),
            static_cast<std::size_t>(trace::kMaxUpdateStreams));
}

}  // namespace
}  // namespace hplx::core
