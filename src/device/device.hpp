#pragma once
/// \file device.hpp
/// \brief A simulated accelerator: HBM capacity accounting plus the cost
/// model. One Device corresponds to one MI250X GCD; in rocHPL every MPI
/// rank manages exactly one GCD (§III.A), and hplx keeps that design.
///
/// Device memory is ordinary host memory — kernels really execute — but
/// allocations are tracked against the configured HBM capacity so that
/// problem sizing behaves like the real machine ("fill the GPUs' HBM",
/// §IV.A).

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "device/alloc.hpp"
#include "device/model.hpp"
#include "util/error.hpp"

namespace hplx::device {

class Device;
class HazardTracker;

/// RAII device allocation of doubles. Movable, not copyable.
class Buffer {
 public:
  Buffer() = default;
  Buffer(Device& dev, std::size_t count);
  ~Buffer();

  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  double* data() { return reinterpret_cast<double*>(block_.data); }
  const double* data() const {
    return reinterpret_cast<const double*>(block_.data);
  }
  std::size_t count() const { return count_; }
  std::size_t bytes() const { return count_ * sizeof(double); }
  bool allocated() const { return block_.data != nullptr; }

  /// View the storage as elements of T (float for the mxp engines). The
  /// backing array stays double-allocated — alignment is always
  /// sufficient and the hazard tracker's byte ranges coincide.
  template <typename T>
  T* data_as() {
    return reinterpret_cast<T*>(block_.data);
  }
  template <typename T>
  const T* data_as() const {
    return reinterpret_cast<const T*>(block_.data);
  }

 private:
  void release();
  Device* device_ = nullptr;
  PoolAllocator::Block block_{};
  std::size_t count_ = 0;
};

class Device {
 public:
  /// \param hbm_bytes capacity limit; allocation beyond it throws, like
  /// hipMalloc returning hipErrorOutOfMemory.
  /// \param hazard_check attach a HazardTracker (the racecheck-style
  /// instrumentation of hazard.hpp) to this device. OR-combined with the
  /// HPLX_HAZARD environment override, so any run can be checked without
  /// a rebuild. When off, hazard() is null and every instrumentation site
  /// in the runtime is a single pointer test.
  Device(std::string name, std::size_t hbm_bytes, bool hazard_check = false);

  /// Reports leaked allocations (hbm_used() != 0) under the tracker.
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  const DeviceModel& model() const { return model_; }
  std::size_t hbm_capacity() const { return hbm_bytes_; }
  std::size_t hbm_used() const { return used_bytes_.load(); }

  /// The hazard-checking runtime, or nullptr when checking is off.
  HazardTracker* hazard() { return hazard_.get(); }

  /// The size-classed pool backing Buffer storage (HBM accounting stays
  /// in logical bytes on this Device; class rounding is pool-internal).
  PoolAllocator& hbm_pool() { return *hbm_pool_; }
  /// Pinned-style host scratch arena for the core layer's per-panel
  /// staging (backsolve/pfact/refine temporaries, row-swap staging).
  PoolAllocator& host_arena() { return *host_arena_; }

  /// Allocate `count` doubles of device memory.
  Buffer alloc(std::size_t count) { return Buffer(*this, count); }

  /// Allocate room for `count` elements of T (rounded up to whole
  /// doubles); access via Buffer::data_as<T>().
  template <typename T>
  Buffer alloc_elems(std::size_t count) {
    return alloc((count * sizeof(T) + sizeof(double) - 1) / sizeof(double));
  }

 private:
  friend class Buffer;
  void account_alloc(std::size_t bytes);
  void account_free(std::size_t bytes);

  std::string name_;
  std::size_t hbm_bytes_;
  /// Every device bills the one MI250X GCD calibration.
  DeviceModel model_ = DeviceModel::mi250x_gcd();
  std::atomic<std::size_t> used_bytes_{0};
  std::unique_ptr<HazardTracker> hazard_;
  // Pools are declared after (so destroyed before) the tracker: their
  // teardown frees cached blocks while the tracker is still alive.
  std::unique_ptr<PoolAllocator> hbm_pool_;
  std::unique_ptr<PoolAllocator> host_arena_;
};

}  // namespace hplx::device
