#pragma once
/// \file communicator.hpp
/// \brief MPI-style communicator over the in-process Fabric transport.
///
/// A Communicator is this reproduction's substitute for Cray-MPICH (see
/// DESIGN.md §1): ranks are threads, but the interface and the guarantees
/// mirror MPI — blocking tagged point-to-point messages with per-(source,
/// tag) FIFO ordering, communicator split, and collectives (implemented in
/// collectives.hpp strictly on top of p2p so that message counts and sizes
/// match the real algorithms). Sends are buffered-eager or delivered
/// straight into a posted receive, so a send never blocks.
///
/// User tags must lie in [0, kMaxUserTag); the range above it is reserved
/// for internal collective traffic.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "comm/fabric.hpp"
#include "util/error.hpp"

namespace hplx::comm {

inline constexpr int kMaxUserTag = 1 << 24;

class Communicator {
 public:
  /// World constructor: rank `rank` of `fabric`. Usually obtained via
  /// World::run() rather than directly.
  Communicator(std::shared_ptr<Fabric> fabric, int rank);

  int rank() const { return rank_; }
  int size() const { return fabric_->size(); }

  // ------------------------------------------------------------- raw p2p
  void send_bytes(const void* buf, std::size_t bytes, int dst, int tag);

  /// Blocking receive from rank `src` (there is no wildcard source). The
  /// matched message must carry exactly `bytes` bytes (HPL always knows
  /// its message sizes).
  void recv_bytes(void* buf, std::size_t bytes, int src, int tag);

  // ----------------------------------------------------------- typed p2p
  template <typename T>
  void send(const T* buf, std::size_t count, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(buf, count * sizeof(T), dst, tag);
  }

  template <typename T>
  void recv(T* buf, std::size_t count, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(buf, count * sizeof(T), src, tag);
  }

  // ---------------------------------------------------------- management
  /// Collective: partition ranks by `color`; within a color, ranks are
  /// ordered by (key, old rank). Every rank of this communicator must
  /// call split the same number of times, in the same order.
  Communicator split(int color, int key);

  /// Duplicate (same group, fresh traffic space).
  Communicator dup() { return split(0, rank_); }

  // ---------------------------------------------------------- internals
  /// Reserved-tag send/recv for collective implementations.
  void send_internal(const void* buf, std::size_t bytes, int dst,
                     int coll_tag);
  void recv_internal(void* buf, std::size_t bytes, int src, int coll_tag);

  /// Zero-copy receive for relay stages: the matched message's pooled
  /// payload is moved out and returned, so a rank that receives data only
  /// to forward it can read from the buffer once and pass the same storage
  /// on — no intermediate memcpy into a staging vector.
  device::Lease recv_internal_buffer(std::size_t bytes, int src,
                                     int coll_tag);

  /// Forward a pooled payload (typically one obtained from
  /// recv_internal_buffer) to `dst` without copying: ownership of the
  /// buffer transfers to the destination mailbox.
  void send_internal_buffer(device::Lease&& payload, int dst, int coll_tag);

  Fabric& fabric() { return *fabric_; }

 private:
  /// Enforce the user-tag contract (0 <= tag < kMaxUserTag): records a
  /// ReservedTag violation with the verifier (when attached), then throws.
  void check_user_tag(int tag, const char* op);

  std::shared_ptr<Fabric> fabric_;
  int rank_;
  std::uint64_t split_seq_ = 0;
};

}  // namespace hplx::comm
