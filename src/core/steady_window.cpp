#include "core/steady_window.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "comm/collectives.hpp"

namespace hplx::core {

namespace {

/// Freelist depth the comm pool is stocked to when the steady window
/// opens: enough for every rank of the process plus overlapped
/// next-panel swaps to hold same-class blocks concurrently.
constexpr int kPrewarmBlocks = 8;

}  // namespace

SteadyWindow::SteadyWindow(const HplConfig& cfg, std::size_t elem_bytes,
                           grid::ProcessGrid& grid, device::Device& dev)
    : cfg_(cfg), elem_bytes_(elem_bytes), grid_(grid), dev_(dev) {}

/// Warmup iterations before the zero-allocation window opens. Iteration
/// 0 builds the pools' freelist inventories (every lease is fresh);
/// iteration 1 absorbs cross-rank skew — the upstream counter is
/// process-wide, and a neighbor still finishing its own warmup while
/// this rank starts iteration 1 must not be charged to the window. On
/// a grid, roles rotate: panel ownership cycles through the q process
/// columns and pivot-row ownership through the p rows, so a rank's
/// *first* factorization (and its first-touch scratch leases) can come
/// as late as iteration max(p, q) - 1 — steady state begins only once
/// every rank has played every role it will play.
int SteadyWindow::warmup_iters() const {
  return std::max({2, cfg_.p, cfg_.q});
}

/// Every distinct pool this rank's solve leases from: device HBM, host
/// arena, and the message pool of each fabric the grid's communicators
/// ride on. The row/col split communicators own their own fabric (and
/// pool) — the rowswap and panel-broadcast traffic flows there, not
/// through all_comm's fabric, so accounting only the latter would miss
/// most of the message leases. Shared fabrics are deduplicated by
/// allocator address.
std::vector<device::PoolAllocator*> SteadyWindow::rank_pools() {
  std::vector<device::PoolAllocator*> pools = {&dev_.hbm_pool(),
                                               &dev_.host_arena()};
  for (comm::Communicator* c :
       {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
    device::PoolAllocator* a = &c->fabric().allocator();
    if (std::find(pools.begin(), pools.end(), a) == pools.end())
      pools.push_back(a);
  }
  return pools;
}

/// Acquires + freelist hits summed over every pool in rank_pools().
void SteadyWindow::sample_pool_counters(std::uint64_t& acquires,
                                        std::uint64_t& hits) {
  for (const device::PoolAllocator* p : rank_pools()) {
    const device::PoolAllocator::Stats s = p->stats();
    acquires += s.acquires;
    hits += s.hits + s.borrows;
  }
}

void SteadyWindow::mark(int iter) {
  if (marked_ || iter + 1 < warmup_iters()) return;
  marked_ = true;
  // Comm message sizes are not deterministic per iteration: a rank's
  // rowswap contribution scales with how many pivot rows it happens to
  // own, which is not monotone in the iteration — a class can see its
  // first request mid-run, above or below anything warmup touched,
  // while every nearby larger block is in flight in the same
  // collective (borrowing can't save that one). Stock every class up
  // to the largest message the remaining iterations can send, on every
  // fabric this rank touches, while the fills still count as warmup. A
  // one-rank communicator never sends, so its fabric is left empty.
  // Device and arena pools are skipped: their lease sizes are
  // deterministic max-extent functions of the iteration, so warmup
  // already covers them. The bound: every swap message — allgatherv
  // chunk and scatterv piece alike — is capped at max(chunk, one grain =
  // one packed matrix row incl. the B columns).
  const std::size_t row_bytes =
      static_cast<std::size_t>(cfg_.n + cfg_.nrhs) * elem_bytes_;
  const std::size_t swap_bound =
      std::max(static_cast<std::size_t>(cfg_.swap_chunk_bytes), row_bytes);
  for (comm::Communicator* c :
       {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
    if (c->size() > 1)
      c->fabric().allocator().prewarm(kPrewarmBlocks, swap_bound);
  }
  // The upstream counter is process-wide, so the window must open after
  // *every* rank's warmup: without the barrier a slow rank's last
  // warmup allocation would land inside a fast rank's window. The
  // barrier also warms the small-message class its twin in finish()
  // reuses.
  comm::barrier(grid_.all_comm());
  upstream0_ = device::upstream_alloc_count();
  sample_pool_counters(acquires0_, hits0_);
  if (std::getenv("HPLX_ALLOC_DEBUG") != nullptr) {
    std::fprintf(stderr, "STEADY MARK rank=%d after #%llu\n",
                 grid_.all_comm().rank(),
                 static_cast<unsigned long long>(upstream0_));
  }
}

void SteadyWindow::finish(int iters_total) {
  if (!marked_ || iters_total <= warmup_iters()) return;
  measured_ = true;
  // Mirror of mark()'s fence: read first (backsolve has not started
  // anywhere — it needs this barrier to pass), then hold every rank
  // until all have read, so no rank's post-loop leases land in a slower
  // rank's window. The barrier's messages hit the small-message freelist
  // the mark-side barrier warmed.
  upstream_delta_ = device::upstream_alloc_count() - upstream0_;
  if (std::getenv("HPLX_ALLOC_DEBUG") != nullptr) {
    std::fprintf(stderr, "STEADY CLOSE rank=%d at #%llu delta=%llu\n",
                 grid_.all_comm().rank(),
                 static_cast<unsigned long long>(upstream0_ +
                                                upstream_delta_),
                 static_cast<unsigned long long>(upstream_delta_));
  }
  comm::barrier(grid_.all_comm());
  std::uint64_t acquires = 0, hits = 0;
  sample_pool_counters(acquires, hits);
  const std::uint64_t dacq = acquires - acquires0_;
  const std::uint64_t dhit = hits - hits0_;
  hit_rate_ = dacq == 0 ? 1.0
                        : static_cast<double>(dhit) /
                              static_cast<double>(dacq);
}

void SteadyWindow::collect(AllocStats& out) {
  out.steady_measured = measured_;
  std::uint64_t worst_upstream = upstream_delta_;
  double worst_hit_rate = measured_ ? hit_rate_ : 1.0;
  comm::allreduce(grid_.all_comm(), &worst_upstream, 1, comm::ReduceOp::Max);
  comm::allreduce(grid_.all_comm(), &worst_hit_rate, 1, comm::ReduceOp::Min);
  out.steady_upstream_allocs = worst_upstream;
  out.steady_hit_rate = worst_hit_rate;
  for (const device::PoolAllocator* p : rank_pools()) {
    const device::PoolAllocator::Stats s = p->stats();
    AllocPoolReport row;
    row.name = p->name();
    row.acquires = s.acquires;
    row.hits = s.hits + s.borrows;
    row.oversize = s.oversize;
    row.upstream_allocs = s.upstream_allocs;
    row.hwm_bytes = s.hwm_bytes;
    row.cached_bytes = s.cached_bytes;
    row.outstanding_bytes = s.outstanding_bytes;
    row.hit_rate = s.hit_rate();
    row.fragmentation = s.fragmentation();
    out.pools.push_back(std::move(row));
  }
}

}  // namespace hplx::core
