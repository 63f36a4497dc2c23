#include "comm/fabric.hpp"

#include <chrono>
#include <cstring>

#include "util/error.hpp"
#include "util/spin_wait.hpp"

namespace hplx::comm {

void Mailbox::deposit(MessageEnvelope msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
    arrivals_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

namespace {
bool matches(const MessageEnvelope& m, int src, int tag) {
  return m.src == src && m.tag == tag;
}
}  // namespace

void Mailbox::deliver(int src, int tag, const void* data, std::size_t bytes,
                      device::PoolAllocator& pool,
                      std::size_t direct_threshold,
                      std::atomic<std::uint64_t>& direct_count) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    PostedRecv* pr = *it;
    if (pr->src != src || pr->tag != tag) continue;
    // Oldest matching posted receive. Direct delivery must not overtake a
    // message that arrived eagerly after the receive was posted but before
    // the receiver woke — FIFO says that older message is the match.
    bool queued_match = false;
    for (const auto& q : queue_) {
      if (matches(q, src, tag)) {
        queued_match = true;
        break;
      }
    }
    // Hand off directly when the message is large enough to be worth it
    // and the sizes agree; otherwise fall through to the eager queue and
    // let the receiver's own size check fire on its thread (keeps error
    // attribution on the receiver).
    if (!queued_match && bytes >= direct_threshold && bytes == pr->bytes) {
      if (bytes != 0) std::memcpy(pr->dst, data, bytes);
      pr->done = true;
      posted_.erase(it);
      arrivals_.fetch_add(1, std::memory_order_release);
      direct_count.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      cv_.notify_all();
      return;
    }
    break;
  }
  MessageEnvelope msg;
  msg.src = src;
  msg.tag = tag;
  if (bytes != 0) {
    msg.payload = device::Lease(pool, bytes);
    std::memcpy(msg.payload.data(), data, bytes);
  }
  queue_.push_back(std::move(msg));
  arrivals_.fetch_add(1, std::memory_order_release);
  lock.unlock();
  cv_.notify_all();
}

template <class Pred>
void Mailbox::wait_verified(std::unique_lock<std::mutex>& lock, int src,
                            int tag, const char* what, const bool* done,
                            Pred&& pred) {
  Verifier* v = verifier_;
  const int self = self_rank_;
  lock.unlock();
  try {
    // throws when already aborted
    v->on_block(self, this, src, tag, what, done);
  } catch (...) {
    lock.lock();
    throw;
  }
  lock.lock();
  while (!pred()) {
    cv_.wait_for(lock, v->poll_interval());
    if (pred()) break;
    lock.unlock();
    v->poll();
    if (v->aborted()) {
      v->on_unblock(self);
      lock.lock();
      v->throw_aborted();  // lock held: caller unposts, then unwinds
    }
    lock.lock();
  }
  lock.unlock();
  v->on_unblock(self);
  lock.lock();
  // on_unblock ran with the lock dropped, and a concurrent deliver()/
  // deposit() push_back in that window invalidates every queue_ iterator
  // the predicate may have cached (std::deque insertion invalidates all
  // iterators). pred only latches false->true — queued envelopes are
  // consumed solely by this mailbox's owning thread, and deliver()
  // disables direct completion while a queued match exists — so
  // re-evaluating here refreshes any cached state without waiting.
  const bool satisfied = pred();
  HPLX_CHECK(satisfied);
}

template <class Pred>
void Mailbox::wait_arrival(std::unique_lock<std::mutex>& lock, Pred&& pred) {
  // One window for the whole wait: traffic for other (src, tag) pairs
  // moves the counter too, and must not keep this waiter spinning.
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    const std::uint64_t seen = arrivals_.load(std::memory_order_relaxed);
    lock.unlock();
    const bool moved = spin_until(
        [&] { return arrivals_.load(std::memory_order_acquire) != seen; },
        deadline);
    lock.lock();
    if (pred()) return;
    if (!moved) break;
  }
  // The window closed: park. pred() is re-checked under the lock before
  // each sleep, and every arrival changes it under the same lock before
  // notifying, so no wakeup is lost.
  cv_.wait(lock, pred);
}

MessageEnvelope Mailbox::match(int src, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::deque<MessageEnvelope>::iterator it;
  auto pred = [&] {
    for (it = queue_.begin(); it != queue_.end(); ++it)
      if (matches(*it, src, tag)) return true;
    return false;
  };
  if (!pred()) {
    if (verifier_ == nullptr) {
      wait_arrival(lock, pred);
    } else {
      wait_verified(lock, src, tag, "recv", /*done=*/nullptr, pred);
    }
  }
  MessageEnvelope out = std::move(*it);
  queue_.erase(it);
  return out;
}

void Mailbox::recv_into(int src, int tag, void* dst, std::size_t bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto find_queued = [&] {
    for (auto it = queue_.begin(); it != queue_.end(); ++it)
      if (matches(*it, src, tag)) return it;
    return queue_.end();
  };
  auto consume = [&](std::deque<MessageEnvelope>::iterator it) {
    if (verifier_ != nullptr && it->payload.size() != bytes)
      verifier_->on_size_mismatch(self_rank_, it->src, it->tag, bytes,
                                  it->payload.size());
    HPLX_CHECK_MSG(it->payload.size() == bytes,
                   "recv size mismatch: expected " + std::to_string(bytes) +
                       " bytes, got " + std::to_string(it->payload.size()));
    if (bytes != 0) std::memcpy(dst, it->payload.data(), bytes);
    queue_.erase(it);  // envelope dies here, payload returns to the pool
  };
  PostedRecv pr{src, tag, dst, bytes, false};
  auto unpost = [&] {
    for (auto pit = posted_.begin(); pit != posted_.end(); ++pit) {
      if (*pit == &pr) {
        posted_.erase(pit);
        break;
      }
    }
  };

  auto it = find_queued();
  if (it != queue_.end()) {
    consume(it);
    return;
  }
  // Nothing queued: post the receive so a large incoming message can be
  // written straight into dst by the sender (single copy).
  posted_.push_back(&pr);
  std::deque<MessageEnvelope>::iterator qit;
  auto pred = [&] {
    if (pr.done) return true;
    qit = find_queued();
    return qit != queue_.end();
  };
  if (verifier_ == nullptr) {
    wait_arrival(lock, pred);
  } else {
    try {
      wait_verified(lock, src, tag, "recv", &pr.done, pred);
    } catch (...) {
      // wait_verified throws with the lock held; remove the posted
      // receive before unwinding so no dangling pointer stays behind.
      unpost();
      throw;
    }
  }
  if (pr.done) return;  // delivered directly; sender removed the post
  unpost();
  consume(qit);
}

bool Mailbox::probe(int src, int tag, std::size_t* bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : queue_) {
    if (matches(m, src, tag)) {
      if (bytes != nullptr) *bytes = m.payload.size();
      return true;
    }
  }
  return false;
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Mailbox::set_verifier(Verifier* v, int self_rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  verifier_ = v;
  self_rank_ = self_rank;
}

void Mailbox::interrupt() { cv_.notify_all(); }

Fabric::Fabric(int size) : size_(size) {
  HPLX_CHECK(size >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

Fabric::~Fabric() {
  // End-of-life leak audit: anything still queued was sent but never
  // received. Mailboxes are alive for the whole destructor body.
  if (Verifier* v = verifier()) v->check_orphans();
}

void Fabric::enable_verifier(const Verifier::Config& cfg) {
  std::lock_guard<std::mutex> lock(verifier_mutex_);
  if (verifier_ != nullptr) return;
  verifier_ = std::make_shared<Verifier>(*this, cfg);
  for (int i = 0; i < size_; ++i)
    mailboxes_[static_cast<std::size_t>(i)]->set_verifier(verifier_.get(), i);
  verifier_raw_.store(verifier_.get(), std::memory_order_release);
}

std::shared_ptr<Verifier> Fabric::verifier_shared() const {
  std::lock_guard<std::mutex> lock(verifier_mutex_);
  return verifier_;
}

void Fabric::interrupt_all() {
  for (auto& box : mailboxes_) box->interrupt();
  split_cv_.notify_all();
}

Mailbox& Fabric::mailbox(int rank) {
  HPLX_CHECK(rank >= 0 && rank < size_);
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

Fabric::SplitSlot& Fabric::split_slot(std::uint64_t seq) {
  // Caller holds split_mutex_.
  while (split_slots_.size() <= seq) {
    auto slot = std::make_unique<SplitSlot>();
    slot->color.assign(static_cast<std::size_t>(size_), 0);
    slot->key.assign(static_cast<std::size_t>(size_), 0);
    slot->arrived.assign(static_cast<std::size_t>(size_), 0);
    slot->child_of_rank.assign(static_cast<std::size_t>(size_), nullptr);
    slot->child_rank_of_rank.assign(static_cast<std::size_t>(size_), -1);
    split_slots_.push_back(std::move(slot));
  }
  return *split_slots_[seq];
}

}  // namespace hplx::comm
