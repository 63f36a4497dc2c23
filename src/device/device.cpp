#include "device/device.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

#include "device/hazard.hpp"

namespace hplx::device {

Buffer::Buffer(Device& dev, std::size_t count) : device_(&dev), count_(count) {
  // Accounting first: an over-capacity request throws before the pool is
  // touched, so a failed alloc leaks neither bytes nor a lease. The
  // charge is the logical byte count — class rounding stays inside the
  // pool, so exact-fit requests against a full device still succeed.
  device_->account_alloc(bytes());
  block_ = device_->hbm_pool().acquire(bytes());
  // Pooled blocks carry their previous lease's contents; device buffers
  // are zero-initialized by contract (the seed allocated with
  // make_unique<double[]>, and residual bitwise-reproducibility depends
  // on it).
  std::memset(block_.data, 0, bytes());
}

Buffer::~Buffer() { release(); }

Buffer::Buffer(Buffer&& other) noexcept
    : device_(other.device_), block_(other.block_), count_(other.count_) {
  other.device_ = nullptr;
  other.block_ = {};
  other.count_ = 0;
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  // Steal into locals first so self-move-assignment (`b = std::move(b)`)
  // cannot release the storage it is about to adopt.
  Device* dev = other.device_;
  const PoolAllocator::Block block = other.block_;
  const std::size_t count = other.count_;
  other.device_ = nullptr;
  other.block_ = {};
  other.count_ = 0;
  release();
  device_ = dev;
  block_ = block;
  count_ = count;
  return *this;
}

void Buffer::release() {
  if (block_.data != nullptr && device_ != nullptr) {
    device_->hbm_pool().release(block_);
    device_->account_free(bytes());
  }
  block_ = {};
  device_ = nullptr;
  count_ = 0;
}

Device::Device(std::string name, std::size_t hbm_bytes, bool hazard_check)
    : name_(std::move(name)), hbm_bytes_(hbm_bytes) {
  if (hazard_check || hazard_env_enabled())
    hazard_ = std::make_unique<HazardTracker>(name_);
  hbm_pool_ = std::make_unique<PoolAllocator>(name_ + ".hbm");
  host_arena_ = std::make_unique<PoolAllocator>(name_ + ".arena");
  hbm_pool_->set_hazard(hazard_.get());
  host_arena_->set_hazard(hazard_.get());
}

Device::~Device() {
  // Buffers normally die before their Device; anything still accounted
  // here leaked. Report each live allocation under the tracker (the
  // tracker kept their identities) — a destructor must not throw, so this
  // surfaces on stderr and in the tracker's records instead.
  if (hazard_ != nullptr && hbm_used() != 0) {
    hazard_->report_live_buffers_as_leaks();
    std::fprintf(stderr, "%s", hazard_->format_report().c_str());
  }
}

void Device::account_alloc(std::size_t bytes) {
  const std::size_t now = used_bytes_.fetch_add(bytes) + bytes;
  if (now > hbm_bytes_) {
    used_bytes_.fetch_sub(bytes);
    HPLX_CHECK_MSG(false, "device `" << name_ << "` out of HBM: requested "
                   << bytes << " bytes with " << (hbm_bytes_ - (now - bytes))
                   << " free of " << hbm_bytes_);
  }
}

void Device::account_free(std::size_t bytes) { used_bytes_.fetch_sub(bytes); }

}  // namespace hplx::device
