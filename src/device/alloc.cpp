#include "device/alloc.hpp"

#include <cstdio>
#include <cstdlib>

#include "device/hazard.hpp"
#include "util/large_alloc.hpp"

namespace hplx::device {

namespace {

std::atomic<std::uint64_t> g_upstream_allocs{0};

}  // namespace

std::uint64_t upstream_alloc_count() {
  return g_upstream_allocs.load(std::memory_order_relaxed);
}

int PoolAllocator::class_of(std::size_t bytes) {
  int cls = kMinClassLog;
  while (cls <= kMaxClassLog && class_capacity(cls) < bytes) ++cls;
  return cls;  // kMaxClassLog + 1 == oversize
}

PoolAllocator::PoolAllocator(std::string name, int max_class_log)
    : name_(std::move(name)) {
  HPLX_CHECK(max_class_log >= kMinClassLog && max_class_log <= kMaxClassLog);
  max_log_ = max_class_log;
}

PoolAllocator::~PoolAllocator() { trim(); }

std::byte* PoolAllocator::upstream_alloc(std::size_t bytes) {
  // Blocks of 2 MiB and up take huge pages (util/large_alloc.hpp).
  auto* p = static_cast<std::byte*>(allocate_large(bytes, kAlignment));
  const std::uint64_t seq =
      g_upstream_allocs.fetch_add(1, std::memory_order_relaxed);
  ++stats_.upstream_allocs;
  // Diagnostic for zero-steady-state regressions: every system
  // allocation with its pool and global sequence number, correlatable
  // with the driver's steady-window marks, and whether the huge-page rule
  // applied to it.
  if (std::getenv("HPLX_ALLOC_DEBUG") != nullptr) {
    std::fprintf(stderr, "ALLOC #%llu pool=%s bytes=%zu huge=%d\n",
                 static_cast<unsigned long long>(seq + 1), name_.c_str(),
                 bytes, is_large(bytes) ? 1 : 0);
  }
  return p;
}

void PoolAllocator::upstream_free(std::byte* p, std::size_t bytes) {
  free_large(p, bytes, kAlignment);
}

void PoolAllocator::note_lease(int cls, std::size_t bytes,
                               std::size_t capacity) {
  ++stats_.outstanding;
  stats_.outstanding_bytes += capacity;
  stats_.padding_bytes += capacity - bytes;
  const std::size_t footprint = stats_.outstanding_bytes + stats_.cached_bytes;
  stats_.hwm_bytes = std::max(stats_.hwm_bytes, footprint);
  if (cls >= 0) {
    class_outstanding_[cls] += capacity;
    class_hwm_[cls] = std::max(class_hwm_[cls], class_outstanding_[cls]);
  }
}

PoolAllocator::Block PoolAllocator::acquire(std::size_t bytes) {
  // Zero-byte leases still get real storage so callers can rely on a
  // non-null, distinct pointer (matching `new double[0]`).
  const std::size_t want = bytes == 0 ? 1 : bytes;
  Block b;
  b.bytes = bytes;

  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.acquires;
  const int cls = class_of(want);

  if (cls > max_log_) {
    ++stats_.oversize;
    if (cls <= kMaxClassLog) ++class_acquires_[cls];
    b.capacity = want;
    b.cls = -1;
    b.data = upstream_alloc(b.capacity);
    note_lease(-1, b.bytes, b.capacity);
  } else {
    ++class_acquires_[cls];
    int from = -1;
    if (!freelist_[cls].empty()) {
      from = cls;
      ++stats_.hits;
      ++class_hits_[cls];
    } else {
      // Borrow the smallest cached block from a nearby larger class:
      // this is what keeps the shrinking trailing window allocation-free
      // — iteration k+1 asks for smaller classes than iteration k, and
      // the warmup inventory serves them without a system call.
      const int hi = std::min(cls + kMaxBorrowDistance, max_log_);
      for (int c = cls + 1; c <= hi; ++c) {
        if (!freelist_[c].empty()) {
          from = c;
          ++stats_.borrows;
          ++class_hits_[cls];
          break;
        }
      }
    }
    if (from >= 0) {
      b.data = freelist_[from].back();
      freelist_[from].pop_back();
      b.capacity = class_capacity(from);
      b.cls = from;
      stats_.cached_bytes -= b.capacity;
    } else {
      b.capacity = class_capacity(cls);
      b.cls = cls;
      b.data = upstream_alloc(b.capacity);
    }
    note_lease(b.cls, b.bytes, b.capacity);
  }
  HazardTracker* hz = hz_;
  lock.unlock();

  // The lease *is* the allocation from the tracker's point of view:
  // registering it here makes a stale touch of the previous lease of
  // this block a detectable use-after-free, and clears the freed marker
  // the previous release left on the reused range.
  if (hz != nullptr) hz->on_alloc(b.data, b.bytes == 0 ? 1 : b.bytes);
  return b;
}

void PoolAllocator::release(Block& b) {
  if (b.data == nullptr) return;
  HazardTracker* hz = hz_;
  if (hz != nullptr) hz->on_free(b.data, b.bytes == 0 ? 1 : b.bytes);

  std::lock_guard<std::mutex> lock(mutex_);
  --stats_.outstanding;
  stats_.outstanding_bytes -= b.capacity;
  stats_.padding_bytes -= b.capacity - b.bytes;
  if (b.cls >= 0) class_outstanding_[b.cls] -= b.capacity;

  if (b.cls < 0) {
    upstream_free(b.data, b.capacity);
  } else {
    freelist_[b.cls].push_back(b.data);
    stats_.cached_bytes += b.capacity;
  }
  b = {};
}

void PoolAllocator::set_hazard(HazardTracker* hz) {
  std::lock_guard<std::mutex> lock(mutex_);
  hz_ = hz;
}

void PoolAllocator::prewarm(int blocks_per_class, std::size_t floor_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  int top = -1;
  for (int c = kMinClassLog; c <= max_log_; ++c)
    if (class_acquires_[c] > 0) top = c;
  if (floor_bytes > 0)
    top = std::max(top, std::min(class_of(floor_bytes), max_log_));
  for (int c = kMinClassLog; c <= top; ++c) {
    while (freelist_[c].size() <
           static_cast<std::size_t>(blocks_per_class)) {
      freelist_[c].push_back(upstream_alloc(class_capacity(c)));
      stats_.cached_bytes += class_capacity(c);
      stats_.hwm_bytes = std::max(
          stats_.hwm_bytes, stats_.outstanding_bytes + stats_.cached_bytes);
    }
  }
}

void PoolAllocator::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int c = 0; c < kClasses; ++c) {
    for (std::byte* p : freelist_[c]) {
      upstream_free(p, class_capacity(c));
      stats_.cached_bytes -= class_capacity(c);
    }
    freelist_[c].clear();
  }
}

PoolAllocator::Stats PoolAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<PoolAllocator::ClassStats> PoolAllocator::class_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ClassStats> out;
  for (int c = kMinClassLog; c < kClasses; ++c) {
    if (class_acquires_[c] == 0 && freelist_[c].empty()) continue;
    ClassStats cs;
    cs.capacity = class_capacity(c);
    cs.acquires = class_acquires_[c];
    cs.hits = class_hits_[c];
    cs.hwm_bytes = class_hwm_[c];
    cs.cached_blocks = freelist_[c].size();
    out.push_back(cs);
  }
  return out;
}

}  // namespace hplx::device
