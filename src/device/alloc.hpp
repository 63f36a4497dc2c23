#pragma once

/// Unified size-classed memory allocator.
///
/// One `PoolAllocator` instance is a registry of power-of-two size
/// classes, each holding a freelist of 64-byte-aligned blocks. Every
/// subsystem that used to roll its own reuse scheme — `device::Buffer`'s
/// raw `new[]`, the per-fabric comm pools, the grow-only staging vectors
/// in the row swapper, and the per-block `std::vector` churn in
/// backsolve/pfact/refine — leases blocks from a pool instead, so after
/// the first (warmup) iterations a full solve performs zero upstream
/// (system) allocations on the iteration path.
///
/// The property that makes that guarantee hold as the trailing window
/// shrinks: a request whose own class is empty is served by *borrowing*
/// the smallest cached block from a nearby larger class instead of
/// touching the system allocator. Iteration k+1's buffers are never
/// larger than iteration k's, so the inventory built during warmup
/// covers every later request, even though the requested classes drift
/// downward. A borrowed block remembers its true class and returns
/// there on release.
///
/// Hazard integration: when a `HazardTracker` is attached, every lease
/// acquire/release flows through `on_alloc`/`on_free`, so use-after-free
/// and leak detection cover pooled *reuse* — a stale touch of a released
/// block is flagged even though the memory never went back to the
/// system. Upstream allocation and the final free of cached blocks are
/// deliberately silent: from the tracker's perspective the lease is the
/// allocation.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hplx::device {

class HazardTracker;

/// Process-wide count of upstream (system) allocations performed by any
/// PoolAllocator instance. This is the counting hook behind the
/// zero-steady-state-allocation test: the driver snapshots it after the
/// warmup iterations and asserts the delta at the end of the solve.
std::uint64_t upstream_alloc_count();

class PoolAllocator {
 public:
  /// Smallest class: 256 B. Everything below rounds up to it.
  static constexpr int kMinClassLog = 8;
  /// Largest class: 256 MiB. Larger requests bypass the freelists and
  /// are released straight back to the system.
  static constexpr int kMaxClassLog = 28;
  /// Every pooled block is aligned to a cache line pair (covers SIMD
  /// loads and keeps device-style buffers alignment-clean); a block of
  /// 2 MiB or more is huge-page aligned and backed (util/large_alloc.hpp).
  static constexpr std::size_t kAlignment = 64;
  /// A request whose class is empty may borrow from at most this many
  /// classes above its own (16x the request) — enough to absorb the
  /// shrinking trailing window without letting a 256 B lease pin a
  /// matrix-sized block.
  static constexpr int kMaxBorrowDistance = 4;

  /// `max_class_log` lowers the oversize threshold below kMaxClassLog
  /// (the comm adapter keeps its historical 16 MiB cutoff so
  /// pathological message sizes cannot pin memory).
  explicit PoolAllocator(std::string name, int max_class_log = kMaxClassLog);
  ~PoolAllocator();

  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;

  /// A leased block. `bytes` is the requested size, `capacity` what the
  /// block really holds; `cls` is the size-class log2 the block returns
  /// to on release (-1: oversize, freed upstream).
  struct Block {
    std::byte* data = nullptr;
    std::size_t bytes = 0;
    std::size_t capacity = 0;
    int cls = -1;
  };

  /// Lease a block of at least `bytes` bytes (zero-byte requests get a
  /// minimum-class block so callers can rely on a non-null pointer).
  /// Contents are indeterminate — pooled blocks carry their previous
  /// lease's bytes.
  Block acquire(std::size_t bytes);

  /// Return a lease. The block is cached on its class freelist (or
  /// freed upstream if oversize).
  void release(Block& b);

  /// Attach (or detach with nullptr) a hazard tracker; lease
  /// acquire/release then flow through on_alloc/on_free.
  void set_hazard(HazardTracker* hz);

  /// Free every cached block back to the system.
  void trim();

  /// Stock every class from kMinClassLog up to the highest class that
  /// has seen an acquire — or up to the class holding `floor_bytes`,
  /// whichever is higher — with at least `blocks_per_class` cached
  /// blocks. This closes the one hole borrowing cannot: a size class
  /// whose *first* request arrives mid-run (message sizes that depend on
  /// the pivot-row distribution are not monotone, so they can land in
  /// classes the warmup never touched) while every nearby larger block
  /// is concurrently in flight. The driver calls this when the steady
  /// window opens with `floor_bytes` set to the largest message the
  /// remaining iterations can send, so the fills are charged to warmup.
  void prewarm(int blocks_per_class, std::size_t floor_bytes = 0);

  struct ClassStats {
    std::size_t capacity = 0;   // block size of this class
    std::uint64_t acquires = 0; // requests whose class this is
    std::uint64_t hits = 0;     // served from a freelist (incl. borrows)
    std::size_t hwm_bytes = 0;  // peak leased capacity parked in this class
    std::size_t cached_blocks = 0;
  };

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t hits = 0;     // exact-class freelist hits
    std::uint64_t borrows = 0;  // served from a larger class's freelist
    std::uint64_t oversize = 0; // above kMaxClassLog, upstream direct
    std::uint64_t upstream_allocs = 0;  // system allocations by this pool
    std::size_t outstanding = 0;        // live leases
    std::size_t outstanding_bytes = 0;  // leased capacity
    std::size_t cached_bytes = 0;       // parked capacity
    std::size_t hwm_bytes = 0;          // peak leased + parked capacity
    std::size_t padding_bytes = 0;      // capacity - requested over leases

    double hit_rate() const {
      return acquires == 0
                 ? 1.0
                 : static_cast<double>(hits + borrows) /
                       static_cast<double>(acquires);
    }
    /// Fraction of leased capacity that is class-rounding padding.
    double fragmentation() const {
      return outstanding_bytes == 0
                 ? 0.0
                 : static_cast<double>(padding_bytes) /
                       static_cast<double>(outstanding_bytes);
    }
  };

  Stats stats() const;
  /// Per-class rows (only classes that saw at least one acquire).
  std::vector<ClassStats> class_stats() const;

  const std::string& name() const { return name_; }

  /// Smallest class log2 whose capacity holds `bytes`; kMaxClassLog+1
  /// when the request is oversize.
  static int class_of(std::size_t bytes);
  static std::size_t class_capacity(int cls) {
    return static_cast<std::size_t>(1) << cls;
  }

 private:
  static constexpr int kClasses = kMaxClassLog + 1;

  std::byte* upstream_alloc(std::size_t bytes);
  static void upstream_free(std::byte* p, std::size_t bytes);
  void note_lease(int cls, std::size_t bytes, std::size_t capacity);

  std::string name_;
  int max_log_ = kMaxClassLog;
  HazardTracker* hz_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<std::byte*> freelist_[kClasses];
  Stats stats_;
  std::uint64_t class_acquires_[kClasses] = {};
  std::uint64_t class_hits_[kClasses] = {};
  std::size_t class_outstanding_[kClasses] = {};
  std::size_t class_hwm_[kClasses] = {};
};

/// RAII lease handle over PoolAllocator::acquire/release.
class Lease {
 public:
  Lease() = default;
  Lease(PoolAllocator& pool, std::size_t bytes)
      : pool_(&pool), block_(pool.acquire(bytes)) {}
  ~Lease() { reset(); }

  Lease(Lease&& o) noexcept : pool_(o.pool_), block_(o.block_) {
    o.pool_ = nullptr;
    o.block_ = {};
  }
  Lease& operator=(Lease&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      block_ = o.block_;
      o.pool_ = nullptr;
      o.block_ = {};
    }
    return *this;
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  void reset() {
    if (pool_ != nullptr && block_.data != nullptr) pool_->release(block_);
    pool_ = nullptr;
    block_ = {};
  }

  std::byte* data() const { return block_.data; }
  std::size_t size() const { return block_.bytes; }
  std::size_t capacity() const { return block_.capacity; }
  explicit operator bool() const { return block_.data != nullptr; }

 private:
  PoolAllocator* pool_ = nullptr;
  PoolAllocator::Block block_{};
};

/// Typed grow-only scratch buffer over an arena pool — the replacement
/// for the per-block `std::vector` churn in the core layer. Capacity
/// only grows (re-leasing through the pool, so steady-state growth is a
/// freelist hit, not a system allocation); on growth the old contents
/// are discarded, which every call site tolerates because each panel
/// writes its bytes before reading them. `size()` tracks the extent of
/// the last resize/assign exactly, like `std::vector::assign`.
template <typename T>
class ArenaBufT {
 public:
  ArenaBufT() = default;
  explicit ArenaBufT(PoolAllocator& pool) : pool_(&pool) {}

  void bind(PoolAllocator& pool) { pool_ = &pool; }
  bool bound() const { return pool_ != nullptr; }

  /// Set the logical extent to n elements without initializing memory.
  T* resize_discard(std::size_t n) {
    HPLX_CHECK_MSG(pool_ != nullptr, "ArenaBufT used before bind()");
    const std::size_t need = n * sizeof(T);
    if (need > lease_.capacity()) {
      lease_.reset();  // park the old block first so a grow can reuse it
      lease_ = Lease(*pool_, need);
    }
    size_ = n;
    return data();
  }

  T* assign(std::size_t n, T value) {
    T* p = resize_discard(n);
    std::fill_n(p, n, value);
    return p;
  }

  T* data() { return reinterpret_cast<T*>(lease_.data()); }
  const T* data() const { return reinterpret_cast<const T*>(lease_.data()); }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  void reset() {
    lease_.reset();
    size_ = 0;
  }

 private:
  PoolAllocator* pool_ = nullptr;
  Lease lease_;
  std::size_t size_ = 0;
};

}  // namespace hplx::device
