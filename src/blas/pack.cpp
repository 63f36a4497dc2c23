#include "blas/pack.hpp"

#include <algorithm>
#include <atomic>

#include "blas/microkernel.hpp"

namespace hplx::blas {

namespace {

std::atomic<int> g_mc{128};
std::atomic<int> g_kc{256};
std::atomic<int> g_nc{512};

// Float engine: 2x the element counts of the double defaults — the same
// byte footprint in L2, twice the flops per packed byte.
std::atomic<int> g_mc_f{256};
std::atomic<int> g_kc_f{512};
std::atomic<int> g_nc_f{1024};

int round_down_to(int v, int unit) { return std::max(unit, v - v % unit); }

/// MC is stored as set and read back in whole tiles of the version that
/// runs the packed engine, so every MC block but the last is full tiles.
template <typename T>
int mc_in_tiles(const std::atomic<int>& mc) {
  return round_down_to(mc.load(std::memory_order_relaxed),
                       detail::resolved<T>().mr);
}

}  // namespace

void set_block_sizes(const BlockSizes& bs) {
  g_mc.store(std::max(1, bs.mc), std::memory_order_relaxed);
  g_kc.store(std::max(8, bs.kc), std::memory_order_relaxed);
  g_nc.store(round_down_to(bs.nc, Tile<double>::nr), std::memory_order_relaxed);
}

BlockSizes block_sizes() {
  return BlockSizes{mc_in_tiles<double>(g_mc),
                    g_kc.load(std::memory_order_relaxed),
                    g_nc.load(std::memory_order_relaxed)};
}

void set_block_sizes_f32(const BlockSizes& bs) {
  g_mc_f.store(std::max(1, bs.mc), std::memory_order_relaxed);
  g_kc_f.store(std::max(8, bs.kc), std::memory_order_relaxed);
  g_nc_f.store(round_down_to(bs.nc, Tile<float>::nr),
               std::memory_order_relaxed);
}

BlockSizes block_sizes_f32() {
  return BlockSizes{mc_in_tiles<float>(g_mc_f),
                    g_kc_f.load(std::memory_order_relaxed),
                    g_nc_f.load(std::memory_order_relaxed)};
}

}  // namespace hplx::blas
