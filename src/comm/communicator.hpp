#pragma once
/// \file communicator.hpp
/// \brief MPI-style communicator over the in-process Fabric transport.
///
/// A Communicator is this reproduction's substitute for Cray-MPICH (see
/// DESIGN.md §1): ranks are threads, but the interface and the guarantees
/// mirror MPI — tagged point-to-point messages with per-(source, tag) FIFO
/// ordering, nonblocking requests, communicator split, and collectives
/// (implemented in collectives.hpp strictly on top of p2p so that message
/// counts and sizes match the real algorithms).
///
/// User tags must lie in [0, kMaxUserTag); the range above it is reserved
/// for internal collective traffic.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "comm/fabric.hpp"
#include "util/error.hpp"

namespace hplx::comm {

inline constexpr int kMaxUserTag = 1 << 24;

/// Handle for a nonblocking operation. isend is buffered-eager so its
/// request completes immediately; irecv performs the matching at wait()
/// time. This degrades overlap (the copy happens at wait) but preserves
/// MPI's semantics, which is what the solver logic needs.
class Request {
 public:
  Request() = default;

  /// Block until the operation is complete.
  void wait();

  bool valid() const { return static_cast<bool>(action_); }

 private:
  friend class Communicator;
  explicit Request(std::function<void()> action) : action_(std::move(action)) {}
  std::function<void()> action_;
};

class Communicator {
 public:
  /// World constructor: rank `rank` of `fabric`. Usually obtained via
  /// World::run() rather than directly.
  Communicator(std::shared_ptr<Fabric> fabric, int rank);

  int rank() const { return rank_; }
  int size() const { return fabric_->size(); }

  // ------------------------------------------------------------- raw p2p
  void send_bytes(const void* buf, std::size_t bytes, int dst, int tag);

  /// Blocking receive. The matched message must carry exactly `bytes`
  /// bytes (HPL always knows its message sizes).
  void recv_bytes(void* buf, std::size_t bytes, int src, int tag);

  /// Non-blocking probe (MPI_Iprobe): true iff a message matching
  /// (src, tag) is waiting; *bytes (optional) receives its payload size.
  /// HPL's broadcast progress engine polls with this while the update
  /// computes.
  bool iprobe(int src, int tag, std::size_t* bytes = nullptr);

  /// Receive only if a matching message is already available.
  bool try_recv_bytes(void* buf, std::size_t bytes, int src, int tag);

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

  /// Simultaneous send+receive. The send completes before the receive
  /// starts and never blocks: small messages are eager-buffered by the
  /// fabric, and large ones either match an already-posted receive (direct
  /// delivery) or fall back to the eager path — so a symmetric exchange
  /// (every rank sendrecv'ing with a partner) cannot deadlock, and the
  /// comm verifier models the send as immediately complete (only the
  /// receive half ever enters the wait-for graph).
  template <typename T>
  void sendrecv(const T* sendbuf, std::size_t sendcount, int dst, int sendtag,
                T* recvbuf, std::size_t recvcount, int src, int recvtag) {
    send(sendbuf, sendcount, dst, sendtag);
    recv(recvbuf, recvcount, src, recvtag);
  }

  template <typename T>
  Request isend(const T* buf, std::size_t count, int dst, int tag) {
    send(buf, count, dst, tag);  // eager-buffered: completes immediately
    return Request([] {});
  }

  template <typename T>
  Request irecv(T* buf, std::size_t count, int src, int tag) {
    Communicator* self = this;
    return Request([self, buf, count, src, tag] {
      self->recv(buf, count, src, tag);
    });
  }

  static void waitall(std::vector<Request>& requests) {
    for (auto& r : requests) r.wait();
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
