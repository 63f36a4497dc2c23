#pragma once
/// \file steady_window.hpp
/// \brief The zero-allocation steady window of one rank's factorization.
///
/// The *steady window* is the factorization loop after the warmup
/// iterations. SteadyWindow opens it (mark) at the bottom of the last
/// warmup iteration, closes it (finish) after the loop — before backsolve
/// and refinement, whose first-call arena leases are legitimate one-time
/// allocations — and reduces the window's counts over the grid (collect)
/// into HplResult::alloc. Every call is collective over the grid's
/// all_comm when it does anything, and every rank makes the same calls.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/driver.hpp"
#include "device/alloc.hpp"
#include "device/device.hpp"
#include "grid/process_grid.hpp"

namespace hplx::core {

class SteadyWindow {
 public:
  /// `elem_bytes` is the working precision's element size (it bounds the
  /// row-swap messages the comm pools are stocked for).
  SteadyWindow(const HplConfig& cfg, std::size_t elem_bytes,
               grid::ProcessGrid& grid, device::Device& dev);

  /// Latch the counters once the warmup iterations are done (call at the
  /// bottom of every factorization-loop iteration).
  void mark(int iter);

  /// Read the window's deltas at the end of the factorization loop, which
  /// ran `iters_total` iterations.
  void finish(int iters_total);

  /// Fill `out`: the window's scalars reduced to the worst rank, then
  /// this rank's per-pool lifetime rows.
  void collect(AllocStats& out);

 private:
  int warmup_iters() const;
  std::vector<device::PoolAllocator*> rank_pools();
  void sample_pool_counters(std::uint64_t& acquires, std::uint64_t& hits);

  const HplConfig& cfg_;
  std::size_t elem_bytes_;
  grid::ProcessGrid& grid_;
  device::Device& dev_;

  bool marked_ = false;
  bool measured_ = false;
  std::uint64_t upstream0_ = 0;
  std::uint64_t acquires0_ = 0;
  std::uint64_t hits0_ = 0;
  std::uint64_t upstream_delta_ = 0;
  double hit_rate_ = 1.0;
};

}  // namespace hplx::core
