/// PoolAllocator unit tests: size-class mapping, alignment, pointer
/// reuse, borrow-from-larger, the oversize path, stats accounting, the
/// ArenaBufT scratch wrapper, a multithreaded acquire/release stress (the
/// comm adapter releases buffers from receiver threads), and the
/// hazard-tracker integration that makes use-after-free and leak
/// detection see *pooled* reuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "device/alloc.hpp"
#include "device/hazard.hpp"

namespace hplx::device {
namespace {

using Kind = HazardTracker::Kind;

constexpr std::size_t kMin = std::size_t(1) << PoolAllocator::kMinClassLog;
constexpr std::size_t kMax = std::size_t(1) << PoolAllocator::kMaxClassLog;

// ------------------------------------------------------------ size classes

TEST(AllocClass, EveryRequestFitsItsClass) {
  for (std::size_t b : {std::size_t(0), std::size_t(1), kMin - 1, kMin,
                        kMin + 1, std::size_t(4095), std::size_t(4096),
                        std::size_t(4097), kMax - 1, kMax}) {
    const int cls = PoolAllocator::class_of(b);
    ASSERT_LE(cls, PoolAllocator::kMaxClassLog) << b;
    EXPECT_GE(PoolAllocator::class_capacity(cls), b) << b;
  }
}

TEST(AllocClass, ClassIsMinimal) {
  for (std::size_t b : {kMin + 1, std::size_t(1000), std::size_t(100000),
                        kMax / 2 + 1}) {
    const int cls = PoolAllocator::class_of(b);
    EXPECT_LT(PoolAllocator::class_capacity(cls - 1), b) << b;
  }
}

TEST(AllocClass, BoundsAndOversize) {
  EXPECT_EQ(PoolAllocator::class_of(0), PoolAllocator::kMinClassLog);
  EXPECT_EQ(PoolAllocator::class_of(1), PoolAllocator::kMinClassLog);
  EXPECT_EQ(PoolAllocator::class_of(kMin), PoolAllocator::kMinClassLog);
  EXPECT_EQ(PoolAllocator::class_of(kMax), PoolAllocator::kMaxClassLog);
  EXPECT_EQ(PoolAllocator::class_of(kMax + 1),
            PoolAllocator::kMaxClassLog + 1);
}

// --------------------------------------------------------------- leasing

TEST(Alloc, AlignmentOnEveryPath) {
  PoolAllocator pool("t");
  for (std::size_t b : {std::size_t(0), std::size_t(1), std::size_t(300),
                        std::size_t(1 << 20), kMax + 1 /* oversize */}) {
    PoolAllocator::Block blk = pool.acquire(b);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(blk.data) %
                  PoolAllocator::kAlignment,
              0u)
        << b;
    EXPECT_NE(blk.data, nullptr) << b;
    pool.release(blk);
  }
}

TEST(Alloc, ReleasedBlockIsReusedSamePointer) {
  PoolAllocator pool("t");
  PoolAllocator::Block a = pool.acquire(1024);
  std::byte* p = a.data;
  pool.release(a);
  PoolAllocator::Block b = pool.acquire(900);  // same class (1 KiB)
  EXPECT_EQ(b.data, p);
  pool.release(b);
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.upstream_allocs, 1u);
}

TEST(Alloc, BorrowServesSmallerClassAndReturnsToTrueClass) {
  PoolAllocator pool("t");
  PoolAllocator::Block big = pool.acquire(8192);  // class 13
  pool.release(big);
  // Class 12 is empty: the cached 8 KiB block is borrowed instead of
  // touching the system allocator.
  PoolAllocator::Block small = pool.acquire(4096);
  EXPECT_EQ(small.capacity, 8192u);
  EXPECT_EQ(small.cls, 13);
  {
    const auto s = pool.stats();
    EXPECT_EQ(s.borrows, 1u);
    EXPECT_EQ(s.upstream_allocs, 1u);
  }
  pool.release(small);  // back on the 8 KiB freelist, not 4 KiB
  PoolAllocator::Block again = pool.acquire(8192);
  EXPECT_EQ(again.capacity, 8192u);
  EXPECT_EQ(pool.stats().upstream_allocs, 1u);
  pool.release(again);
}

TEST(Alloc, BorrowDistanceIsCapped) {
  PoolAllocator pool("t");
  // Park one block kMaxBorrowDistance + 1 classes above the request: a
  // 256 B lease must not pin it.
  const int far = PoolAllocator::kMinClassLog +
                  PoolAllocator::kMaxBorrowDistance + 1;
  PoolAllocator::Block big =
      pool.acquire(PoolAllocator::class_capacity(far));
  pool.release(big);
  PoolAllocator::Block small = pool.acquire(64);
  EXPECT_EQ(small.capacity, kMin);
  EXPECT_EQ(pool.stats().borrows, 0u);
  EXPECT_EQ(pool.stats().upstream_allocs, 2u);
  pool.release(small);
}

TEST(Alloc, OversizeBypassesFreelists) {
  PoolAllocator pool("t");
  PoolAllocator::Block b = pool.acquire(kMax + 1);
  EXPECT_EQ(b.cls, -1);
  EXPECT_EQ(b.capacity, kMax + 1);
  pool.release(b);
  const auto s = pool.stats();
  EXPECT_EQ(s.oversize, 1u);
  EXPECT_EQ(s.cached_bytes, 0u);  // freed upstream, never parked
}

TEST(Alloc, LoweredMaxClassShrinksOversizeThreshold) {
  // The comm adapter's historical 16 MiB cutoff.
  PoolAllocator pool("t", /*max_class_log=*/24);
  PoolAllocator::Block b = pool.acquire((16u << 20) + 1);
  EXPECT_EQ(b.cls, -1);
  pool.release(b);
  EXPECT_EQ(pool.stats().oversize, 1u);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
}

TEST(Alloc, PrewarmStocksEveryClassBelowTheHighestUsed) {
  PoolAllocator pool("t");
  PoolAllocator::Block big = pool.acquire(std::size_t(1) << 16);  // class 16
  pool.release(big);
  pool.prewarm(2);
  // Every class from the minimum through 16 now holds two cached blocks:
  // a first-ever request in any of them is a hit, not a system call.
  const auto before = pool.stats().upstream_allocs;
  for (int c = PoolAllocator::kMinClassLog; c <= 16; ++c) {
    PoolAllocator::Block a = pool.acquire(PoolAllocator::class_capacity(c));
    PoolAllocator::Block b = pool.acquire(PoolAllocator::class_capacity(c));
    EXPECT_EQ(pool.stats().upstream_allocs, before) << c;
    pool.release(a);
    pool.release(b);
  }
  // Classes above the highest-used one are untouched.
  PoolAllocator::Block above = pool.acquire(std::size_t(1) << 17);
  EXPECT_EQ(pool.stats().upstream_allocs, before + 1);
  pool.release(above);
}

TEST(Alloc, PrewarmFloorStocksClassesNeverYetRequested) {
  PoolAllocator pool("t");
  // No acquires at all: the floor alone decides how far to stock.
  pool.prewarm(1, std::size_t(1) << 14);
  const auto before = pool.stats().upstream_allocs;
  for (int c = PoolAllocator::kMinClassLog; c <= 14; ++c) {
    PoolAllocator::Block b = pool.acquire(PoolAllocator::class_capacity(c));
    EXPECT_EQ(pool.stats().upstream_allocs, before) << c;
    pool.release(b);
  }
  // The floor is clamped to the pool's max class, never into oversize.
  PoolAllocator capped("t", /*max_class_log=*/10);
  capped.prewarm(1, std::size_t(1) << 20);
  EXPECT_EQ(capped.stats().cached_bytes,
            (std::size_t(1) << 8) + (std::size_t(1) << 9) +
                (std::size_t(1) << 10));
}

TEST(Alloc, TrimReturnsEverythingUpstream) {
  PoolAllocator pool("t");
  for (std::size_t b : {std::size_t(512), std::size_t(4096),
                        std::size_t(1 << 16)}) {
    PoolAllocator::Block blk = pool.acquire(b);
    pool.release(blk);
  }
  EXPECT_GT(pool.stats().cached_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  // The inventory is gone: the next acquire is a fresh system allocation.
  const auto before = pool.stats().upstream_allocs;
  PoolAllocator::Block blk = pool.acquire(512);
  EXPECT_EQ(pool.stats().upstream_allocs, before + 1);
  pool.release(blk);
}

// ----------------------------------------------------------------- stats

TEST(AllocStats, HwmAndFragmentation) {
  PoolAllocator pool("t");
  PoolAllocator::Block b = pool.acquire(300);  // class 512: 212 B padding
  auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 1u);
  EXPECT_EQ(s.outstanding_bytes, 512u);
  EXPECT_EQ(s.padding_bytes, 212u);
  EXPECT_DOUBLE_EQ(s.fragmentation(), 212.0 / 512.0);
  EXPECT_GE(s.hwm_bytes, 512u);
  pool.release(b);
  s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.fragmentation(), 0.0);
  EXPECT_GE(s.hwm_bytes, 512u);  // high-water mark survives the release
}

TEST(AllocStats, PerClassRows) {
  PoolAllocator pool("t");
  PoolAllocator::Block a = pool.acquire(1000);   // class 1024
  PoolAllocator::Block b = pool.acquire(100000); // class 131072
  pool.release(a);
  pool.release(b);
  PoolAllocator::Block c = pool.acquire(1024);   // hit on class 1024
  pool.release(c);
  const auto rows = pool.class_stats();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].capacity, 1024u);
  EXPECT_EQ(rows[0].acquires, 2u);
  EXPECT_EQ(rows[0].hits, 1u);
  EXPECT_EQ(rows[0].hwm_bytes, 1024u);
  EXPECT_EQ(rows[1].capacity, 131072u);
  EXPECT_EQ(rows[1].acquires, 1u);
}

TEST(AllocStats, GlobalUpstreamCounterTracksOnlyFreshAllocations) {
  PoolAllocator pool("t");
  const std::uint64_t c0 = upstream_alloc_count();
  PoolAllocator::Block a = pool.acquire(2048);
  EXPECT_EQ(upstream_alloc_count(), c0 + 1);
  pool.release(a);
  PoolAllocator::Block b = pool.acquire(2048);  // freelist hit
  EXPECT_EQ(upstream_alloc_count(), c0 + 1);
  pool.release(b);
}

// -------------------------------------------------------------- ArenaBuf

TEST(ArenaBuf, AssignSemanticsMatchVector) {
  PoolAllocator pool("t");
  ArenaBufT<double> buf(pool);
  buf.assign(100, 3.5);
  ASSERT_EQ(buf.size(), 100u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 3.5);
  buf.assign(10, -1.0);
  ASSERT_EQ(buf.size(), 10u);  // size tracks the last assign exactly
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], -1.0);
}

TEST(ArenaBuf, ShrinkKeepsLeaseGrowReleases) {
  PoolAllocator pool("t");
  ArenaBufT<float> buf(pool);
  buf.resize_discard(1000);
  float* p = buf.data();
  buf.resize_discard(10);  // within capacity: same storage, no pool call
  EXPECT_EQ(buf.data(), p);
  EXPECT_EQ(pool.stats().acquires, 1u);
  buf.resize_discard(100000);  // growth re-leases through the pool
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(buf.size(), 100000u);
  buf.reset();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(ArenaBuf, SteadyStateRegrowthIsAFreelistHit) {
  PoolAllocator pool("t");
  {
    ArenaBufT<double> warm(pool);
    warm.resize_discard(5000);
  }  // lease parked
  ArenaBufT<double> buf(pool);
  buf.resize_discard(100);
  buf.resize_discard(5000);  // grows into the parked block
  const auto s = pool.stats();
  EXPECT_EQ(s.upstream_allocs, 2u);  // only the two warmup allocations
  EXPECT_GE(s.hits + s.borrows, 1u);
}

TEST(ArenaBuf, BindAfterDefaultConstruction) {
  PoolAllocator pool("t");
  ArenaBufT<int> buf;
  EXPECT_FALSE(buf.bound());
  buf.bind(pool);
  EXPECT_TRUE(buf.bound());
  buf.assign(4, 7);
  EXPECT_EQ(buf[3], 7);
}

// ---------------------------------------------------------------- threads

TEST(AllocStress, ConcurrentAcquireReleaseStaysConsistent) {
  PoolAllocator pool("t");
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      std::vector<PoolAllocator::Block> held;
      for (int i = 0; i < kIters; ++i) {
        // Deterministic per-thread size mix spanning several classes.
        const std::size_t bytes =
            std::size_t(64) << ((t + i) % 10);
        held.push_back(pool.acquire(bytes));
        if (held.size() > 4) {
          pool.release(held.front());
          held.erase(held.begin());
        }
      }
      for (auto& b : held) pool.release(b);
    });
  }
  for (auto& th : threads) th.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_EQ(s.acquires,
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Reuse must dominate: the freelists serve the steady mix.
  EXPECT_GT(s.hit_rate(), 0.9);
}

// ---------------------------------------------------------------- hazard

TEST(AllocHazard, StaleTouchOfReleasedLeaseIsUseAfterFree) {
  HazardTracker hz("pool-hz");
  const int stream = hz.register_stream("s0");
  PoolAllocator pool("t");
  pool.set_hazard(&hz);

  PoolAllocator::Block b = pool.acquire(512);
  std::byte* stale = b.data;
  hz.on_enqueue(stream, "writer", nullptr, 0);
  pool.release(b);  // on_free: the range is now poisoned

  const MemSpan touch = span_write(stale, std::size_t(512));
  hz.on_enqueue(stream, "stale_writer", &touch, 1);
  EXPECT_EQ(hz.count_of(Kind::UseAfterFree), 1u);

  // Re-leasing the same block clears the freed marker: the next lessee's
  // writes are legitimate, pooled reuse notwithstanding.
  PoolAllocator::Block c = pool.acquire(512);
  ASSERT_EQ(c.data, stale);
  const MemSpan fresh = span_write(c.data, std::size_t(512));
  hz.on_enqueue(stream, "fresh_writer", &fresh, 1);
  EXPECT_EQ(hz.count_of(Kind::UseAfterFree), 1u);  // no new violation
  pool.release(c);
}

TEST(AllocHazard, UnreleasedLeaseReportsAsLeak) {
  HazardTracker hz("pool-hz");
  PoolAllocator pool("t");
  pool.set_hazard(&hz);
  PoolAllocator::Block kept = pool.acquire(1024);
  PoolAllocator::Block returned = pool.acquire(1024);
  pool.release(returned);
  hz.report_live_buffers_as_leaks();
  EXPECT_EQ(hz.count_of(Kind::Leak), 1u);
  pool.release(kept);
}

TEST(AllocHazard, CleanLeaseLifecycleIsSilent) {
  HazardTracker hz("pool-hz");
  PoolAllocator pool("t");
  pool.set_hazard(&hz);
  for (int i = 0; i < 5; ++i) {
    PoolAllocator::Block b = pool.acquire(4096);
    pool.release(b);
  }
  hz.report_live_buffers_as_leaks();
  EXPECT_EQ(hz.violation_count(), 0u);
}

}  // namespace
}  // namespace hplx::device
