/// The huge-page rule for big host blocks (util/large_alloc.hpp): where it
/// starts, that the pool's upstream blocks, LargeAllocator vectors and an
/// MxP matrix's fp64 source follow it, that the pool's diagnostic line
/// names the advised blocks, and that the kernel really sees a touched
/// large block as huge-page eligible where transparent huge pages are on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "comm/world.hpp"
#include "core/matrix.hpp"
#include "device/alloc.hpp"
#include "util/large_alloc.hpp"

namespace hplx::device {
namespace {

constexpr std::size_t kHuge = kHugePageBytes;

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHuge == 0;
}

/// Runs `fn` with HPLX_ALLOC_DEBUG set and returns what it printed to
/// stderr: one `ALLOC ... huge=0|1` line per upstream allocation.
std::string alloc_debug_output(const std::function<void()>& fn) {
  std::optional<std::string> saved;
  if (const char* v = std::getenv("HPLX_ALLOC_DEBUG")) saved = v;
  setenv("HPLX_ALLOC_DEBUG", "1", 1);
  testing::internal::CaptureStderr();
  fn();
  std::string out = testing::internal::GetCapturedStderr();
  if (saved) {
    setenv("HPLX_ALLOC_DEBUG", saved->c_str(), 1);
  } else {
    unsetenv("HPLX_ALLOC_DEBUG");
  }
  return out;
}

bool has_line(const std::string& out, std::size_t bytes, int huge) {
  std::ostringstream want;
  want << "bytes=" << bytes << " huge=" << huge << "\n";
  return out.find(want.str()) != std::string::npos;
}

TEST(LargeAlloc, RuleStartsAtExactlyTwoMiB) {
  EXPECT_FALSE(is_large(kHuge - 1));
  EXPECT_TRUE(is_large(kHuge));

  void* below = allocate_large(kHuge - 1, PoolAllocator::kAlignment);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(below) %
                PoolAllocator::kAlignment,
            0u);
  std::memset(below, 1, kHuge - 1);
  free_large(below, kHuge - 1, PoolAllocator::kAlignment);

  for (std::size_t bytes : {kHuge, kHuge + 1, 2 * kHuge + 4096}) {
    void* p = allocate_large(bytes);
    EXPECT_TRUE(huge_aligned(p)) << bytes;
    std::memset(p, 1, bytes);  // the whole block is usable
    free_large(p, bytes);
  }
}

TEST(LargeAlloc, PoolUpstreamBlocksFollowTheRule) {
  PoolAllocator pool("t");
  PoolAllocator::Block small{}, edge{}, exact{}, four{};
  const std::string out = alloc_debug_output([&] {
    small = pool.acquire(kHuge / 2);     // 1 MiB class: stays small
    edge = pool.acquire(kHuge - 1);      // rounds up into the 2 MiB class
    exact = pool.acquire(kHuge);
    four = pool.acquire(2 * kHuge - 1);  // 4 MiB class
  });
  EXPECT_EQ(small.capacity, kHuge / 2);
  EXPECT_EQ(edge.capacity, kHuge);
  EXPECT_EQ(four.capacity, 2 * kHuge);
  EXPECT_TRUE(has_line(out, kHuge / 2, 0)) << out;
  EXPECT_TRUE(has_line(out, kHuge, 1)) << out;
  EXPECT_TRUE(has_line(out, 2 * kHuge, 1)) << out;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.data) %
                PoolAllocator::kAlignment,
            0u);
  EXPECT_TRUE(huge_aligned(edge.data));
  EXPECT_TRUE(huge_aligned(exact.data));
  EXPECT_TRUE(huge_aligned(four.data));
  for (PoolAllocator::Block* b : {&small, &edge, &exact, &four})
    pool.release(*b);
  EXPECT_EQ(pool.stats().upstream_allocs, 4u);
}

TEST(LargeAlloc, OversizeBlockOfLowCapPoolFollowsTheRule) {
  // A 1 MiB class cap: 2 MiB requests bypass the freelists and go upstream
  // at their exact size, so the rule sees the request's own bytes.
  PoolAllocator pool("t", /*max_class_log=*/20);
  PoolAllocator::Block below{}, at{};
  const std::string out = alloc_debug_output([&] {
    below = pool.acquire(kHuge - 1);
    at = pool.acquire(kHuge);
  });
  EXPECT_EQ(below.cls, -1);
  EXPECT_EQ(at.cls, -1);
  EXPECT_EQ(below.capacity, kHuge - 1);
  EXPECT_TRUE(has_line(out, kHuge - 1, 0)) << out;
  EXPECT_TRUE(has_line(out, kHuge, 1)) << out;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(below.data) %
                PoolAllocator::kAlignment,
            0u);
  EXPECT_TRUE(huge_aligned(at.data));
  std::memset(below.data, 1, below.capacity);
  std::memset(at.data, 1, at.capacity);
  pool.release(below);
  pool.release(at);
  EXPECT_EQ(pool.stats().oversize, 2u);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);  // freed upstream at their size
}

TEST(LargeAlloc, LargeClassBlockIsReusedWithoutAnUpstreamCall) {
  PoolAllocator pool("t");
  const std::uint64_t c0 = upstream_alloc_count();
  PoolAllocator::Block a = pool.acquire(2 * kHuge);
  std::byte* p = a.data;
  EXPECT_TRUE(huge_aligned(p));
  std::memset(a.data, 1, a.capacity);
  pool.release(a);
  PoolAllocator::Block b = pool.acquire(2 * kHuge - 100);
  EXPECT_EQ(b.data, p);
  EXPECT_EQ(b.capacity, 2 * kHuge);
  pool.release(b);
  EXPECT_EQ(pool.stats().upstream_allocs, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(upstream_alloc_count(), c0 + 1);
}

TEST(LargeAlloc, VectorStorageIsHugeAligned) {
  LargeVector<double> v(kHuge / sizeof(double), 1.5);
  EXPECT_TRUE(huge_aligned(v.data()));
  // Growth moves the contents into a new huge-aligned block.
  v.push_back(2.5);
  EXPECT_TRUE(huge_aligned(v.data()));
  EXPECT_EQ(v.front(), 1.5);
  EXPECT_EQ(v.back(), 2.5);
  // A small vector crosses the threshold as it grows.
  LargeVector<float> small(100, 1.0f);
  small.resize(kHuge);  // 8 MiB of floats
  EXPECT_TRUE(huge_aligned(small.data()));
  EXPECT_EQ(small[99], 1.0f);
  EXPECT_EQ(small.back(), 0.0f);
}

TEST(LargeAlloc, MxpFp64SourceIsHugeAligned) {
  // 600×601 doubles is 2.75 MiB, over the threshold on one rank.
  comm::World::run(1, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    Device dev("d", 1ull << 26);
    ThreadTeam team(1);
    core::DistMatrixT<float> a(dev, g, team, 600, 64, 11);
    ASSERT_NE(a.fp64_source(), nullptr);
    EXPECT_TRUE(huge_aligned(a.fp64_source()));
    EXPECT_EQ(*a.at(5, 7),
              static_cast<float>(a.fp64_source()[7 * a.lda() + 5]));
    a.release_fp64_source();
  });
}

/// The transparent-huge-page mode's bracketed word, or "" when the kernel
/// has no such file.
std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(f, line)) return "";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

/// The THPeligible value of the mapping holding `p` in /proc/self/smaps,
/// or -1 when the mapping or the field is not found.
int thp_eligible(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = addr >= lo && addr < hi;
      continue;
    }
    if (inside && line.rfind("THPeligible:", 0) == 0)
      return std::stoi(line.substr(std::strlen("THPeligible:")));
  }
  return -1;
}

TEST(LargeAlloc, TouchedLargeBlockIsHugePageEligible) {
  const std::string mode = thp_mode();
  if (mode.empty() || mode == "never")
    GTEST_SKIP() << "transparent huge pages are off (mode '" << mode << "')";
  const std::size_t bytes = 2 * kHuge;
  void* p = allocate_large(bytes);
  std::memset(p, 1, bytes);
  EXPECT_EQ(thp_eligible(p), 1) << "mode " << mode;
  free_large(p, bytes);
}

}  // namespace
}  // namespace hplx::device
