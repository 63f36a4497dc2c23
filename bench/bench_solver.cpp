/// \file bench_solver.cpp
/// \brief K-SOLVE: end-to-end solver benchmark. Runs full run_hpl solves
/// (generate, factor, backsolve, verify) across the three pipeline modes
/// and reports GF/s plus the per-phase second totals (fact / mpi /
/// transfer / gpu) as counters, so a snapshot records where the wall time
/// goes and regressions in any phase are visible, not just the headline
/// rate. Emits BENCH_solver.json via the shared JSON main.
///
/// Shapes: a 1x1 rank at N=1024/2048 (pure kernel path, no transport) and
/// a 2x2 grid at N=1024 (row swaps cross ranks). Each iteration is a
/// complete solve; residuals are asserted PASSED so a benchmark run doubles
/// as an end-to-end correctness check.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/gbench_json_main.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"

namespace {

using namespace hplx;

core::PipelineMode mode_of(long tag) {
  switch (tag) {
    case 0: return core::PipelineMode::Simple;
    case 1: return core::PipelineMode::Lookahead;
    default: return core::PipelineMode::LookaheadSplit;
  }
}

/// One full solve; returns rank 0's result.
core::HplResult solve_once(const core::HplConfig& cfg) {
  core::HplResult result;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    core::HplResult r = core::run_hpl(world, cfg);
    if (world.rank() == 0) result = std::move(r);
  });
  return result;
}

/// Args: {N, NB, P, Q, pipeline tag}.
void BM_Solver(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = static_cast<int>(state.range(2));
  cfg.q = static_cast<int>(state.range(3));
  cfg.pipeline = mode_of(state.range(4));
  cfg.fact_threads = 2;

  double gflops = 0.0, fact_s = 0.0, mpi_s = 0.0, xfer_s = 0.0, gpu_s = 0.0;
  long solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    gflops += r.gflops;
    fact_s += r.fact_seconds;
    mpi_s += r.mpi_seconds;
    xfer_s += r.transfer_seconds;
    gpu_s += r.gpu_seconds;
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["fact_s"] = fact_s * inv;
    state.counters["mpi_s"] = mpi_s * inv;
    state.counters["transfer_s"] = xfer_s * inv;
    state.counters["gpu_s"] = gpu_s * inv;
  }
  state.SetLabel(to_string(cfg.pipeline));
}

BENCHMARK(BM_Solver)
    ->Args({1024, 128, 1, 1, 0})
    ->Args({1024, 128, 1, 1, 1})
    ->Args({1024, 128, 1, 1, 2})
    ->Args({2048, 256, 1, 1, 2})
    ->Args({1024, 128, 2, 2, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Multi-stream banded trailing update. Args: {N, NB, streams}; always the
/// split pipeline on one rank — the configuration where the trailing
/// update dominates and band/stream scheduling shows up directly.
/// Per-stream wall-clock occupancy is exported so a snapshot shows how
/// much of the update actually ran off the primary queue.
void BM_SolverStreams(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = 1;
  cfg.q = 1;
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.update_streams = static_cast<int>(state.range(2));
  cfg.fact_threads = 2;

  double gflops = 0.0, spare_s = 0.0, total_s = 0.0;
  long solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    gflops += r.gflops;
    for (std::size_t i = 0; i < r.stream_real_seconds.size(); ++i) {
      total_s += r.stream_real_seconds[i];
      if (i > 0) spare_s += r.stream_real_seconds[i];
    }
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["stream_busy_s"] = total_s * inv;
    state.counters["spare_busy_s"] = spare_s * inv;
  }
}

BENCHMARK(BM_SolverStreams)
    ->Args({1024, 128, 1})
    ->Args({1024, 128, 2})
    ->Args({1024, 128, 4})
    ->Args({2048, 256, 1})
    ->Args({2048, 256, 2})
    ->Args({2048, 256, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Pipelined row-swap broadcast. Args: {N, NB, P, Q, chunk_bytes}; always
/// the split pipeline. Exports the measured U-assembly wall time
/// (rs_wire_s), whose fused chunk unpacks ride inside it.
void BM_SolverRowswap(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = static_cast<int>(state.range(2));
  cfg.q = static_cast<int>(state.range(3));
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.swap_chunk_bytes = state.range(4);
  cfg.fact_threads = 2;

  double gflops = 0.0, wire_s = 0.0;
  long solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    gflops += r.gflops;
    wire_s += r.rs_wire_seconds;
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["rs_wire_s"] = wire_s * inv;
  }
}

BENCHMARK(BM_SolverRowswap)
    // The acceptance shape (N=2048, NB=256).
    ->Args({2048, 256, 1, 1, 256 * 1024})
    // Cross-rank transport: the allgatherv actually rides the fabric.
    ->Args({1024, 128, 2, 2, 4 * 1024})
    ->Args({1024, 128, 2, 2, 64 * 1024})
    ->Args({1024, 128, 2, 2, 256 * 1024})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Mixed-precision (HPL-MxP) mode against the fp64 baseline. Args: {N,
/// NB, precision tag (0 = fp64, 1 = mxp32)}; always the split pipeline on
/// one rank, where the fp32 trailing update's billing advantage shows up
/// directly. Exports the refinement iteration count and the verified
/// residual, so a snapshot shows both the speedup and what it cost in
/// corrections — and a non-zero fallback counter flags any run where
/// refinement gave up and the number is silently an fp64 rerun.
void BM_SolverMxp(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = 1;
  cfg.q = 1;
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.precision = state.range(2) == 0 ? core::PrecisionMode::FP64
                                      : core::PrecisionMode::MXP32;
  cfg.fact_threads = 2;

  double gflops = 0.0, residual = 0.0;
  long iters = 0, fallbacks = 0, solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    gflops += r.gflops;
    residual += r.verify.residual;
    iters += r.ir_iters;
    if (r.ir_fallback) ++fallbacks;
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["residual"] = residual * inv;
    state.counters["ir_iters"] = static_cast<double>(iters) * inv;
    state.counters["ir_fallbacks"] = static_cast<double>(fallbacks);
  }
  state.SetLabel(to_string(cfg.precision));
}

BENCHMARK(BM_SolverMxp)
    ->Args({1024, 128, 0})
    ->Args({1024, 128, 1})
    // The acceptance shape: mxp32 must beat fp64 wall-clock here.
    ->Args({2048, 256, 0})
    ->Args({2048, 256, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Solver-variant matrix: pivoting mode × RHS width. Args: {N, NB, P, Q,
/// pivoting tag (0 = full, 1 = none on a diagonally dominant system),
/// nrhs}; always the split pipeline. Exports the row-swap wire totals
/// (seconds and bytes) next to GF/s, so a snapshot shows the no-pivot
/// path's entire claim in one row: same residual criterion, zero swap
/// traffic, higher rate. The N=2048 pair is the acceptance comparison —
/// pivoting=none must beat pivoting=full wall-clock with rs_wire_bytes=0.
void BM_SolverVariants(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = static_cast<int>(state.range(2));
  cfg.q = static_cast<int>(state.range(3));
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.pivoting = state.range(4) == 0 ? core::PivotMode::Full
                                     : core::PivotMode::None;
  // The no-pivot rows solve the diagonally dominant family (its validity
  // domain); the full-pivot rows solve the same family so the pair is an
  // apples-to-apples ablation of the swap machinery alone.
  cfg.diag_dominant = true;
  cfg.nrhs = static_cast<int>(state.range(5));
  cfg.fact_threads = 2;

  double gflops = 0.0, fact_s = 0.0, mpi_s = 0.0, wire_s = 0.0;
  double wire_bytes = 0.0;
  long solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    gflops += r.gflops;
    fact_s += r.fact_seconds;
    mpi_s += r.mpi_seconds;
    wire_s += r.rs_wire_seconds;
    wire_bytes += static_cast<double>(r.rs_wire_bytes);
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["fact_s"] = fact_s * inv;
    state.counters["mpi_s"] = mpi_s * inv;
    state.counters["rs_wire_s"] = wire_s * inv;
    state.counters["rs_wire_bytes"] = wire_bytes * inv;
  }
  state.SetLabel(std::string(to_string(cfg.pivoting)) + "/nrhs=" +
                 std::to_string(cfg.nrhs));
}

BENCHMARK(BM_SolverVariants)
    // The acceptance pair: full vs none at N=2048 on one rank.
    ->Args({2048, 256, 1, 1, 0, 1})
    ->Args({2048, 256, 1, 1, 1, 1})
    // Cross-rank: the bypassed allgatherv actually rode the fabric.
    ->Args({1024, 128, 2, 2, 0, 1})
    ->Args({1024, 128, 2, 2, 1, 1})
    // Multi-RHS backsolve widths on both paths.
    ->Args({1024, 128, 1, 1, 0, 8})
    ->Args({1024, 128, 1, 1, 1, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Unified allocator accounting. Args: {N, NB, P, Q}; always the split
/// pipeline. Exports the steady-window upstream allocation count (must be
/// 0 — the zero-alloc hot path), the worst-rank steady hit rate, and the
/// pools' peak footprint, next to GF/s — so a snapshot shows what the
/// pool costs in held memory.
void BM_SolverAlloc(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = static_cast<int>(state.range(2));
  cfg.q = static_cast<int>(state.range(3));
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.fact_threads = 2;

  double gflops = 0.0, hit_rate = 0.0, hwm_mib = 0.0;
  double steady_allocs = 0.0;
  long solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    gflops += r.gflops;
    steady_allocs += static_cast<double>(r.alloc.steady_upstream_allocs);
    hit_rate += r.alloc.steady_hit_rate;
    double hwm = 0.0;
    for (const core::AllocPoolReport& pool : r.alloc.pools)
      hwm += static_cast<double>(pool.hwm_bytes);
    hwm_mib += hwm / (1024.0 * 1024.0);
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["steady_allocs"] = steady_allocs * inv;
    state.counters["hit_rate"] = hit_rate * inv;
    state.counters["pool_hwm_mib"] = hwm_mib * inv;
  }
}

BENCHMARK(BM_SolverAlloc)
    ->Args({2048, 256, 1, 1})
    // Cross-rank: message pools carry the swap traffic too.
    ->Args({1024, 128, 2, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Comm-verifier ablation: checker off vs on. Args: {N, NB, P, Q, checked
/// tag}. Off is the shipping configuration (every hook a single pointer
/// test); on adds the collective descriptor table, the blocked-receive
/// registry and the end-of-run orphan audit. The pair quantifies the
/// checker's overhead for EXPERIMENTS.md §K-COMMCHECK; the checked run
/// must also come back violation-free, so the benchmark doubles as a
/// long-duration clean-sweep gate.
void BM_SolverCommcheck(benchmark::State& state) {
  core::HplConfig cfg;
  cfg.n = state.range(0);
  cfg.nb = static_cast<int>(state.range(1));
  cfg.p = static_cast<int>(state.range(2));
  cfg.q = static_cast<int>(state.range(3));
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  cfg.comm_check = state.range(4) != 0;
  cfg.fact_threads = 2;

  double gflops = 0.0, violations = 0.0;
  long solves = 0;
  for (auto _ : state) {
    const core::HplResult r = solve_once(cfg);
    if (!r.verify.passed) {
      state.SkipWithError("residual check FAILED");
      return;
    }
    if (cfg.comm_check && !r.comm_checked) {
      state.SkipWithError("comm verifier did not run");
      return;
    }
    gflops += r.gflops;
    for (const auto& v : r.comm_violations)
      violations += static_cast<double>(v.count);
    ++solves;
    benchmark::DoNotOptimize(r.seconds);
  }
  if (solves > 0) {
    const double inv = 1.0 / static_cast<double>(solves);
    state.counters["GF/s"] = gflops * inv;
    state.counters["violations"] = violations * inv;
  }
  state.SetLabel(cfg.comm_check ? "checked" : "unchecked");
}

BENCHMARK(BM_SolverCommcheck)
    // The acceptance pair: off vs on at N=2048 on one rank.
    ->Args({2048, 256, 1, 1, 0})
    ->Args({2048, 256, 1, 1, 1})
    // Cross-rank: the verifier rides every split fabric and collective.
    ->Args({1024, 128, 2, 2, 0})
    ->Args({1024, 128, 2, 2, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return hplx::benchutil::run_with_default_json(argc, argv,
                                                "BENCH_solver.json");
}
