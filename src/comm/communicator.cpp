#include "comm/communicator.hpp"

#include <algorithm>

namespace hplx::comm {

Communicator::Communicator(std::shared_ptr<Fabric> fabric, int rank)
    : fabric_(std::move(fabric)), rank_(rank) {
  HPLX_CHECK(fabric_ != nullptr);
  HPLX_CHECK(rank_ >= 0 && rank_ < fabric_->size());
}

namespace {
void do_send(Fabric& fabric, int src, const void* buf, std::size_t bytes,
             int dst, int tag) {
  HPLX_CHECK(dst >= 0 && dst < fabric.size());
  fabric.mailbox(dst).deliver(src, tag, buf, bytes, fabric.allocator(),
                              fabric.direct_threshold(),
                              fabric.direct_counter());
}

void do_recv(Fabric& fabric, int self, void* buf, std::size_t bytes, int src,
             int tag) {
  // Matching is by exact source: no rank outside the fabric ever sends.
  HPLX_CHECK(src >= 0 && src < fabric.size());
  // Posts the receive so a large sender can deliver straight into buf.
  fabric.mailbox(self).recv_into(src, tag, buf, bytes);
}
}  // namespace

void Communicator::check_user_tag(int tag, const char* op) {
  if (tag >= 0 && tag < kMaxUserTag) return;
  // Record the contract violation before the hard check throws so the
  // misuse shows up in the end-of-run report even when a test harness
  // swallows the exception.
  if (Verifier* v = fabric_->verifier()) v->on_reserved_tag(rank_, tag, op);
  HPLX_CHECK_MSG(tag >= 0 && tag < kMaxUserTag,
                 "user tag out of range: " << tag);
}

void Communicator::send_bytes(const void* buf, std::size_t bytes, int dst,
                              int tag) {
  check_user_tag(tag, "send");
  do_send(*fabric_, rank_, buf, bytes, dst, tag);
}

void Communicator::recv_bytes(void* buf, std::size_t bytes, int src, int tag) {
  check_user_tag(tag, "recv");
  do_recv(*fabric_, rank_, buf, bytes, src, tag);
}

void Communicator::send_internal(const void* buf, std::size_t bytes, int dst,
                                 int coll_tag) {
  do_send(*fabric_, rank_, buf, bytes, dst, kMaxUserTag + coll_tag);
}

void Communicator::recv_internal(void* buf, std::size_t bytes, int src,
                                 int coll_tag) {
  do_recv(*fabric_, rank_, buf, bytes, src, kMaxUserTag + coll_tag);
}

device::Lease Communicator::recv_internal_buffer(std::size_t bytes, int src,
                                              int coll_tag) {
  HPLX_CHECK(src >= 0 && src < fabric_->size());
  MessageEnvelope msg =
      fabric_->mailbox(rank_).match(src, kMaxUserTag + coll_tag);
  if (msg.payload.size() != bytes) {
    if (Verifier* v = fabric_->verifier())
      v->on_size_mismatch(rank_, msg.src, msg.tag, bytes, msg.payload.size());
  }
  HPLX_CHECK_MSG(msg.payload.size() == bytes,
                 "size mismatch in recv: expected " << bytes << " bytes, got "
                 << msg.payload.size() << " (src=" << msg.src << ")");
  return std::move(msg.payload);
}

void Communicator::send_internal_buffer(device::Lease&& payload, int dst,
                                        int coll_tag) {
  HPLX_CHECK(dst >= 0 && dst < fabric_->size());
  MessageEnvelope msg;
  msg.src = rank_;
  msg.tag = kMaxUserTag + coll_tag;
  msg.payload = std::move(payload);
  fabric_->mailbox(dst).deposit(std::move(msg));
}

Communicator Communicator::split(int color, int key) {
  Fabric& f = *fabric_;
  const std::uint64_t seq = split_seq_++;
  const int n = f.size();

  // Split is a collective: register it in the verifier's matching table
  // so a rank splitting while a peer runs bcast/barrier is reported as a
  // descriptor mismatch. Color and key legitimately differ across ranks,
  // so only the kind participates in matching.
  Verifier* v = f.verifier();
  const bool outermost =
      v != nullptr && v->begin_collective(rank_, Verifier::Coll::Split,
                                          /*root=*/-1, /*bytes=*/0,
                                          /*count_sum=*/0);
  (void)outermost;

  std::unique_lock<std::mutex> lock(f.split_mutex());
  Fabric::SplitSlot& slot = f.split_slot(seq);
  slot.color[static_cast<std::size_t>(rank_)] = color;
  slot.key[static_cast<std::size_t>(rank_)] = key;
  slot.arrived[static_cast<std::size_t>(rank_)] = 1;
  slot.arrivals += 1;

  if (slot.arrivals == n) {
    // Last arriver computes the whole partition.
    // Group ranks by color; order within a group by (key, old rank).
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto au = static_cast<std::size_t>(a);
      const auto bu = static_cast<std::size_t>(b);
      if (slot.color[au] != slot.color[bu]) return slot.color[au] < slot.color[bu];
      if (slot.key[au] != slot.key[bu]) return slot.key[au] < slot.key[bu];
      return a < b;
    });
    std::size_t i = 0;
    while (i < order.size()) {
      std::size_t j = i;
      const int c = slot.color[static_cast<std::size_t>(order[i])];
      while (j < order.size() &&
             slot.color[static_cast<std::size_t>(order[j])] == c)
        ++j;
      auto child = std::make_shared<Fabric>(static_cast<int>(j - i));
      if (v != nullptr) child->enable_verifier(v->config());
      for (std::size_t k = i; k < j; ++k) {
        const auto member = static_cast<std::size_t>(order[k]);
        slot.child_of_rank[member] = child;
        slot.child_rank_of_rank[member] = static_cast<int>(k - i);
      }
      i = j;
    }
    slot.ready = true;
    f.split_cv().notify_all();
  } else if (v == nullptr) {
    f.split_cv().wait(lock, [&] { return slot.ready; });
  } else {
    // Verified wait: register in the wait-for registry (null mailbox — a
    // split waiter is unstuck by peers arriving, never by a message) and
    // wake on the poll tick so the verifier's deadlock abort
    // (interrupt_all notifies split_cv) unsticks a rank whose peers never
    // arrive at the split.
    try {
      // Hook discipline (verify.hpp lock order): on_block/on_unblock/poll
      // are never invoked with a transport lock held — drop split_mutex_
      // across them, mirroring Mailbox::wait_verified. The wait_for
      // predicate re-checks slot.ready after the relock, so a split that
      // completed inside the window is not missed.
      lock.unlock();
      v->on_block(rank_, nullptr, /*src=*/-1, /*tag=*/-1, "split");
      lock.lock();
      while (!f.split_cv().wait_for(lock, v->poll_interval(),
                                    [&] { return slot.ready; })) {
        lock.unlock();
        v->poll();
        const bool dead = v->aborted();
        if (dead) v->on_unblock(rank_);
        lock.lock();
        if (dead) v->throw_aborted();
      }
      lock.unlock();
      v->on_unblock(rank_);
      lock.lock();
    } catch (...) {
      v->end_collective(rank_);
      throw;
    }
  }

  auto child = slot.child_of_rank[static_cast<std::size_t>(rank_)];
  const int child_rank = slot.child_rank_of_rank[static_cast<std::size_t>(rank_)];
  lock.unlock();
  if (v != nullptr) v->end_collective(rank_);
  return Communicator(child, child_rank);
}

}  // namespace hplx::comm
