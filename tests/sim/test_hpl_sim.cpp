/// The simulator must reproduce the paper's §IV.A observations for the
/// single-node Crusher run (N = 256,000, NB = 512, 4×2, 50/50 split):
/// two regimes with a crossover near iteration 250 of 500, a hidden-regime
/// running throughput near 90% of the 4×49 TFLOP/s limit, an overall score
/// near 153 TFLOPS, and communication hidden for ~75% of the runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <string>

#include "sim/hpl_sim.hpp"
#include "sim/scaling.hpp"
#include "util/error.hpp"

namespace hplx::sim {
namespace {

SimResult single_node(core::PipelineMode mode,
                      double split = 0.5) {
  const NodeModel node = NodeModel::crusher();
  ClusterConfig cfg = crusher_config(node, 1);
  cfg.pipeline = mode;
  cfg.split_fraction = split;
  return simulate_hpl(node, cfg);
}

TEST(HplSim, SingleNodeScoreNearPaper) {
  // Paper: 153 TFLOPS average. Shape tolerance: within ±20%.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.gflops, 0.8 * 153000.0);
  EXPECT_LT(r.gflops, 1.2 * 153000.0);
}

TEST(HplSim, HiddenRegimeThroughputNear90PercentOfLimit) {
  // Paper: ~175 TFLOPS = 90% of 4×49 in the fully hidden regime.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.hidden_regime_gflops, 0.85 * 196000.0);
  EXPECT_LT(r.hidden_regime_gflops, 0.97 * 196000.0);
}

TEST(HplSim, CrossoverNearIteration250) {
  // Paper Fig. 7: "Around iteration 250, the left section ... is too
  // small" — exposure starts near the middle of the 500 iterations.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  ASSERT_EQ(r.trace.iterations.size(), 500u);
  const int crossover = r.trace.crossover_iteration(0.05);
  EXPECT_GT(crossover, 180);
  EXPECT_LT(crossover, 320);
}

TEST(HplSim, EarlyIterationsFullyHidden) {
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  for (int i : {0, 50, 100, 150}) {
    const auto& it = r.trace.iterations[static_cast<std::size_t>(i)];
    EXPECT_LE(it.total_s, it.gpu_s * 1.05) << "iteration " << i;
  }
}

TEST(HplSim, TailIsLatencyAndCommunicationBound) {
  // Fig. 7's tail: FACT + MPI + transfer stack becomes the critical path
  // and GPU activity leaves it entirely.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  const auto& last = r.trace.iterations.back();
  EXPECT_GT(last.total_s, 2.0 * last.gpu_s);
  EXPECT_GT(last.fact_s + last.mpi_s + last.transfer_s, last.gpu_s);
}

TEST(HplSim, CommunicationHiddenForMostOfRuntime) {
  // Paper §III.C: "hide all MPI communication ... for approximately 75% of
  // the execution time".
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.trace.hidden_time_fraction(0.05), 0.65);
  // And about half the iterations (§V: "first 50% of the iterations").
  EXPECT_GT(r.trace.hidden_fraction(0.05), 0.40);
  EXPECT_LT(r.trace.hidden_fraction(0.05), 0.60);
}

TEST(HplSim, PipelineOrderingMatchesDesign) {
  // Each optimization must help: simple < lookahead < lookahead+split.
  const double simple = single_node(core::PipelineMode::Simple).gflops;
  const double la = single_node(core::PipelineMode::Lookahead).gflops;
  const double split = single_node(core::PipelineMode::LookaheadSplit).gflops;
  EXPECT_LT(simple, la);
  EXPECT_LT(la, split);
}

TEST(HplSim, FiftyFiftySplitNearOptimal) {
  // Paper §III.C: "splitting the local A matrix in half ... works
  // optimally" on a single node. 0.5 must beat the extremes.
  const double at25 = single_node(core::PipelineMode::LookaheadSplit, 0.25).gflops;
  const double at50 = single_node(core::PipelineMode::LookaheadSplit, 0.5).gflops;
  const double at90 = single_node(core::PipelineMode::LookaheadSplit, 0.9).gflops;
  EXPECT_GE(at50, at25);
  EXPECT_GE(at50, at90 * 0.999);
}

TEST(HplSim, GpuTimeDominatedByUpdate) {
  // §IV.A: ~95% of GPU active time is DGEMM in the hidden regime. Check
  // the update share of modeled GPU time early on.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  const auto& it0 = r.trace.iterations.front();
  // fact/transfer happen off-GPU; gpu_s is all kernels. The first
  // iteration's GPU time should be close to its total (fully hidden).
  EXPECT_NEAR(it0.gpu_s / it0.total_s, 1.0, 0.05);
}

TEST(HplSim, PhaseTotalsAccumulate) {
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.fact_seconds, 0.0);
  EXPECT_GT(r.mpi_seconds, 0.0);
  EXPECT_GT(r.transfer_seconds, 0.0);
  EXPECT_GT(r.gpu_seconds, 0.0);
  EXPECT_LT(r.gpu_seconds, r.seconds * 1.01);
}

TEST(HplSim, ChunkedRowSwapNeverSlower) {
  // The pipelined broadcast hides fused unpacks behind the allgather's
  // wire time: at any chunk size the credited model must be at least as
  // fast as the blocking baseline, in every pipeline mode, with GPU busy
  // time unchanged (the unpacks overlap, they do not disappear).
  const NodeModel node = NodeModel::crusher();
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
        core::PipelineMode::LookaheadSplit}) {
    ClusterConfig base = crusher_config(node, 1);
    base.pipeline = mode;
    const SimResult blocking = simulate_hpl(node, base);
    for (const long chunk : {64L * 1024L, 256L * 1024L, 1024L * 1024L}) {
      ClusterConfig cfg = base;
      cfg.swap_chunk_bytes = chunk;
      const SimResult piped = simulate_hpl(node, cfg);
      EXPECT_LE(piped.seconds, blocking.seconds * (1.0 + 1e-9))
          << "mode=" << static_cast<int>(mode) << " chunk=" << chunk;
      EXPECT_NEAR(piped.gpu_seconds, blocking.gpu_seconds,
                  blocking.gpu_seconds * 1e-9)
          << "mode=" << static_cast<int>(mode) << " chunk=" << chunk;
      EXPECT_GE(piped.seconds, piped.gpu_seconds * (1.0 - 1e-9));
    }
  }
}

TEST(HplSim, ChunkOverheadKeepsTinyChunksFromWinning) {
  // The per-chunk message latency term must bite: a pathologically small
  // chunk pays so many extra messages that its credit collapses toward
  // the blocking baseline (it may never *beat* a sane chunk size).
  const NodeModel node = NodeModel::crusher();
  ClusterConfig cfg = crusher_config(node, 1);
  cfg.pipeline = core::PipelineMode::Simple;
  cfg.swap_chunk_bytes = 256 * 1024;
  const SimResult sane = simulate_hpl(node, cfg);
  cfg.swap_chunk_bytes = 512;  // ~2000 messages per segment
  const SimResult tiny = simulate_hpl(node, cfg);
  EXPECT_GE(tiny.seconds, sane.seconds * (1.0 - 1e-9));
}

TEST(HplSim, PrecisionModesOrderModeledSpeedup) {
  // The narrow precisions must order strictly at paper scale: FP32 halves
  // every byte on the wire and in HBM and bills the fp32 curve; FP16 moves
  // the same bytes but bills the (faster everywhere) fp16 curve. So the
  // modeled speedup over fp64 is monotone: FP16 > FP32 > 1.
  const NodeModel node = NodeModel::crusher();
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
        core::PipelineMode::LookaheadSplit}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.pipeline = mode;
    const SimResult f64 = simulate_hpl(node, cfg);
    cfg.precision = device::Precision::FP32;
    const SimResult f32 = simulate_hpl(node, cfg);
    cfg.precision = device::Precision::FP16;
    const SimResult f16 = simulate_hpl(node, cfg);
    EXPECT_LT(f32.seconds, f64.seconds) << "mode=" << static_cast<int>(mode);
    EXPECT_LT(f16.seconds, f32.seconds) << "mode=" << static_cast<int>(mode);
    // Device busy time orders the same way (compute billing), and the
    // narrower elements shrink the modeled wire and staging time too.
    EXPECT_LT(f32.gpu_seconds, f64.gpu_seconds);
    EXPECT_LT(f16.gpu_seconds, f32.gpu_seconds);
    EXPECT_LT(f32.transfer_seconds, f64.transfer_seconds);
    EXPECT_EQ(f16.transfer_seconds, f32.transfer_seconds);
  }
}

TEST(HplSim, Fp16MovesTheBytesOfFp32) {
  // ClusterConfig::precision sizes the wire element: FP64 moves 8 bytes,
  // FP32 and FP16 move 4. So FP16 changes only the compute billing, and
  // its modeled MPI time equals FP32's, below FP64's.
  const NodeModel node = NodeModel::crusher();
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::LookaheadSplit}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.pipeline = mode;
    const SimResult f64 = simulate_hpl(node, cfg);
    cfg.precision = device::Precision::FP32;
    const SimResult f32 = simulate_hpl(node, cfg);
    cfg.precision = device::Precision::FP16;
    const SimResult f16 = simulate_hpl(node, cfg);
    EXPECT_EQ(f16.mpi_seconds, f32.mpi_seconds)
        << "mode=" << static_cast<int>(mode);
    EXPECT_LT(f32.mpi_seconds, f64.mpi_seconds)
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(HplSim, TimelineEndMatchesSimulatedIterationWithChunking) {
  // Both entry points read one schedule: every iteration's record total
  // is the latest event end of its timeline, floored by GPU busy time.
  const NodeModel node = NodeModel::crusher();
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
        core::PipelineMode::LookaheadSplit}) {
    for (const auto prec :
         {device::Precision::FP64, device::Precision::FP32}) {
      for (const long chunk : {0L, 256L * 1024L}) {
        ClusterConfig cfg = crusher_config(node, 1);
        cfg.pipeline = mode;
        cfg.precision = prec;
        cfg.swap_chunk_bytes = chunk;
        const SimResult r = simulate_hpl(node, cfg);
        for (const auto& rec : r.trace.iterations) {
          double end = 0.0;
          for (const auto& e : iteration_timeline(node, cfg, rec.iteration))
            end = std::max(end, e.end);
          EXPECT_EQ(std::max(end, rec.gpu_s), rec.total_s)
              << "mode=" << static_cast<int>(mode)
              << " prec=" << static_cast<int>(prec) << " chunk=" << chunk
              << " iter=" << rec.iteration;
        }
      }
    }
  }
}

TEST(HplSim, SplitWithoutRightSectionIsLookahead) {
  // A zero split leaves no right section, so the driver runs the Fig. 3
  // schedule; the model must too, to the bit.
  const SimResult la = single_node(core::PipelineMode::Lookahead);
  const SimResult split0 =
      single_node(core::PipelineMode::LookaheadSplit, 0.0);
  EXPECT_EQ(split0.seconds, la.seconds);
  EXPECT_EQ(split0.hidden_regime_gflops, la.hidden_regime_gflops);
  ASSERT_EQ(split0.trace.iterations.size(), la.trace.iterations.size());
  for (std::size_t i = 0; i < la.trace.iterations.size(); ++i) {
    const auto& a = split0.trace.iterations[i];
    const auto& b = la.trace.iterations[i];
    EXPECT_EQ(a.total_s, b.total_s) << "iter " << i;
    EXPECT_EQ(a.gpu_s, b.gpu_s) << "iter " << i;
    EXPECT_EQ(a.fact_s, b.fact_s) << "iter " << i;
    EXPECT_EQ(a.mpi_s, b.mpi_s) << "iter " << i;
    EXPECT_EQ(a.transfer_s, b.transfer_s) << "iter " << i;
  }
}

struct BadConfig {
  const char* name;   ///< test-name suffix
  const char* field;  ///< what the error message must name
  void (*spoil)(ClusterConfig&);
};

void PrintTo(const BadConfig& c, std::ostream* os) { *os << c.name; }

class HplSimRejects : public ::testing::TestWithParam<BadConfig> {};

template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST_P(HplSimRejects, ImpossibleConfig) {
  const NodeModel node = NodeModel::crusher();
  ClusterConfig cfg = crusher_config(node, 1);
  GetParam().spoil(cfg);
  const std::string field = GetParam().field;
  EXPECT_NE(error_of([&] { simulate_hpl(node, cfg); }).find(field),
            std::string::npos);
  EXPECT_NE(error_of([&] { iteration_timeline(node, cfg, 0); }).find(field),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Preconditions, HplSimRejects,
    ::testing::Values(
        BadConfig{"split_above_one", "split_fraction",
                  [](ClusterConfig& c) { c.split_fraction = 1.5; }},
        BadConfig{"split_negative", "split_fraction",
                  [](ClusterConfig& c) { c.split_fraction = -0.25; }},
        BadConfig{"split_nan", "split_fraction",
                  [](ClusterConfig& c) {
                    c.split_fraction = std::numeric_limits<double>::quiet_NaN();
                  }},
        BadConfig{"split_inf", "split_fraction",
                  [](ClusterConfig& c) {
                    c.split_fraction = std::numeric_limits<double>::infinity();
                  }},
        BadConfig{"nb_zero", "nb must", [](ClusterConfig& c) { c.nb = 0; }},
        BadConfig{"nb_negative", "nb must",
                  [](ClusterConfig& c) { c.nb = -512; }},
        BadConfig{"n_below_nb", "n must be >= nb",
                  [](ClusterConfig& c) { c.n = c.nb - 1; }},
        BadConfig{"p_zero", "p must", [](ClusterConfig& c) { c.p = 0; }},
        BadConfig{"q_zero", "q must", [](ClusterConfig& c) { c.q = 0; }},
        BadConfig{"nodes_zero", "nodes must",
                  [](ClusterConfig& c) { c.nodes = 0; }},
        BadConfig{"fact_threads_zero", "fact_threads must",
                  [](ClusterConfig& c) { c.fact_threads = 0; }}),
    [](const ::testing::TestParamInfo<BadConfig>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hplx::sim
