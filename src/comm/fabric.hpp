#pragma once
/// \file fabric.hpp
/// \brief Shared-memory transport backing a communicator: one mailbox per
/// rank, tagged FIFO matching, pooled payloads, eager/rendezvous delivery.
///
/// This is the layer below Communicator. A Fabric owns `size` mailboxes
/// and one message pool (a device::PoolAllocator, so the steady-state
/// allocation accounting covers message payloads with the same counter as
/// device buffers and the host arena) shared by all of them. Two delivery
/// regimes:
///
///   - **Eager** (bytes < direct threshold, or the receiver has not posted
///     yet): the payload is copied into a pooled buffer and queued at the
///     destination; the sender never blocks (MPI's buffered send). The
///     matched receive copies out and the buffer returns to the freelist.
///   - **Direct** (bytes >= threshold and a matching receive is already
///     posted): the sender copies straight into the receiver's destination
///     buffer — a single copy end to end, no intermediate buffer at all.
///     This is the rendezvous-style handoff large transfers (panel bcast,
///     row-swap allgatherv) want, but with an eager fallback instead of a
///     blocking sender, so no send/recv ordering can deadlock.
///
/// Matching is FIFO among messages with the same (source, tag), which
/// gives the same non-overtaking guarantee MPI provides and is what the
/// collective algorithms rely on.
///
/// A blocking receive waits by the one wait policy (util/spin_wait.hpp):
/// it spins for at most kSpinWindow on the mailbox's arrival counter, then
/// parks on the mailbox condvar. A small-message hop between two rank
/// threads thus costs a cache-line handoff, not a kernel wakeup, which is
/// what the per-column pivot allreduce on FACT's critical path pays.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/verify.hpp"
#include "device/alloc.hpp"

namespace hplx::comm {

/// Default eager/direct cutover: below this, messages always travel
/// through the pool; at or above it, a posted receiver gets the payload
/// in one copy. Every fabric starts here; set_direct_threshold exists so
/// tests can force the direct path.
inline constexpr std::size_t kDefaultEagerThreshold = 32 * 1024;

/// Largest pooled message class: 16 MiB. Larger payloads are oversize —
/// allocated directly and freed on release — so pathological message
/// sizes cannot pin memory on the freelists.
inline constexpr int kMaxMessageClassLog = 24;

struct MessageEnvelope {
  int src = 0;
  int tag = 0;
  /// Empty (no lease) for a zero-byte message, which never touches the
  /// pool.
  device::Lease payload;
};

/// One rank's incoming-message queue plus its posted (waiting) receives.
class Mailbox {
 public:
  /// Queue a ready-made envelope (used by the zero-copy forwarding path;
  /// the payload changes owner without being copied).
  void deposit(MessageEnvelope msg);

  /// Deliver `bytes` from `data`: directly into a posted receive when one
  /// matches and bytes >= direct_threshold, else eagerly via a lease from
  /// `pool`. `direct_count` is bumped on the direct path.
  void deliver(int src, int tag, const void* data, std::size_t bytes,
               device::PoolAllocator& pool, std::size_t direct_threshold,
               std::atomic<std::uint64_t>& direct_count);

  /// Block until a message matching (src, tag) is available and return it.
  /// FIFO among matches.
  MessageEnvelope match(int src, int tag);

  /// Blocking receive of exactly `bytes` into `dst` — posts the receive so
  /// an incoming large message can be delivered directly (single copy).
  void recv_into(int src, int tag, void* dst, std::size_t bytes);

  /// Non-destructive probe: true iff a match exists; *bytes (optional)
  /// gets its payload size.
  bool probe(int src, int tag, std::size_t* bytes) const;

  /// Number of queued messages (diagnostics/tests).
  std::size_t pending() const;

  /// Attach the fabric's verifier; `self_rank` is the rank owning this
  /// mailbox (blocked receives register under it).
  void set_verifier(Verifier* v, int self_rank);

  /// Wake any blocked waiter without delivering anything (the verifier's
  /// deadlock abort: woken waiters observe Verifier::aborted and throw).
  void interrupt();

  /// Enumerate queued-but-unconsumed envelopes as (src, tag, bytes) — the
  /// verifier's orphan audit.
  template <class Fn>
  void for_each_queued(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& m : queue_) fn(m.src, m.tag, m.payload.size());
  }

  /// Read a posted receive's completion flag under the mailbox lock (the
  /// flag is written by deliver() under the same lock). Used by the
  /// verifier's poll to recognize a rank whose blocked receive was already
  /// satisfied by direct delivery but whose thread has not run yet. `flag`
  /// outlives the read: the receiver unregisters from the wait-for
  /// registry before its PostedRecv leaves scope, and poll() holds
  /// Verifier::blocked_mutex_ across the call.
  bool posted_done(const bool* flag) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return *flag;
  }

 private:
  struct PostedRecv {
    int src;
    int tag;
    void* dst;
    std::size_t bytes;
    bool done = false;
  };

  /// Verified blocking wait: registers the blocked receive, waits in poll
  /// ticks running the deadlock check, unregisters on wake. Entered and
  /// exited with `lock` held; on deadlock abort it throws with `lock`
  /// HELD so callers can unpost their receive under the same lock.
  /// on_block/on_unblock/poll are never invoked while `lock` is held
  /// (lock order: Verifier::blocked_mutex_ before Mailbox::mutex_).
  /// `done` (optional) is the caller's PostedRecv completion flag,
  /// registered so poll() can see a direct delivery that beat the wakeup.
  /// On normal return pred() has been re-evaluated under the lock held
  /// continuously since, so iterators it cached are valid.
  template <class Pred>
  void wait_verified(std::unique_lock<std::mutex>& lock, int src, int tag,
                     const char* what, const bool* done, Pred&& pred);

  /// Unverified blocking wait, spin then park. With the lock dropped it
  /// spins on arrivals_ for at most kSpinWindow; each time the counter
  /// moves it relocks and evaluates pred(). When the window closes it
  /// parks on cv_ with pred as the condvar predicate. Entered with `lock`
  /// held and pred() false; returns with `lock` held and pred() true, as
  /// evaluated under the lock held continuously since, so iterators it
  /// cached are valid.
  template <class Pred>
  void wait_arrival(std::unique_lock<std::mutex>& lock, Pred&& pred);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Bumped under mutex_ by every deposit() and deliver(), queued or
  /// direct: the spinning waiter's lock-free "something changed" test.
  std::atomic<std::uint64_t> arrivals_{0};
  std::deque<MessageEnvelope> queue_;
  std::deque<PostedRecv*> posted_;  // waiting blocking receives, FIFO
  Verifier* verifier_ = nullptr;    // guarded by mutex_
  int self_rank_ = -1;
};

/// The transport shared by all ranks of one communicator (and its
/// split-off children, each of which gets its own Fabric and pool).
class Fabric {
 public:
  explicit Fabric(int size);

  /// Runs the verifier's orphan audit (unconsumed queued messages) when
  /// checking is enabled; records land in the verifier, which test code
  /// can keep alive past the fabric via verifier_shared().
  ~Fabric();

  int size() const { return size_; }
  Mailbox& mailbox(int rank);

  /// Attach a Verifier to this fabric and all its mailboxes. Idempotent
  /// and thread-safe — every rank may call it concurrently; the first
  /// caller's config wins.
  void enable_verifier(const Verifier::Config& cfg);

  /// Null when checking is off; call sites pay one pointer test.
  Verifier* verifier() const {
    return verifier_raw_.load(std::memory_order_acquire);
  }

  /// Shared handle for inspection after the fabric dies. Only the results
  /// accessors (report/counts/format_report) are valid once the fabric is
  /// gone — the verifier holds a reference to it otherwise.
  std::shared_ptr<Verifier> verifier_shared() const;

  /// Wake every blocked waiter (mailbox cvs + split cv) without
  /// delivering; used by the verifier's deadlock abort.
  void interrupt_all();

  /// The message pool every eager payload is leased from.
  device::PoolAllocator& allocator() { return alloc_; }
  const device::PoolAllocator& allocator() const { return alloc_; }

  std::size_t direct_threshold() const {
    return direct_threshold_.load(std::memory_order_relaxed);
  }
  void set_direct_threshold(std::size_t bytes) {
    direct_threshold_.store(bytes, std::memory_order_relaxed);
  }

  /// Messages that skipped the intermediate buffer entirely.
  std::uint64_t direct_deliveries() const {
    return direct_deliveries_.load(std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t>& direct_counter() { return direct_deliveries_; }

  /// Collective coordination scratch used by Communicator::split: the
  /// nth split on this fabric uses slot n. Guarded by mutex_.
  struct SplitSlot {
    std::vector<int> color, key;
    std::vector<int> arrived;
    // Child fabrics keyed by color, plus each rank's (child fabric, rank).
    std::vector<std::shared_ptr<Fabric>> child_of_rank;
    std::vector<int> child_rank_of_rank;
    int arrivals = 0;
    bool ready = false;
  };
  SplitSlot& split_slot(std::uint64_t seq);
  std::mutex& split_mutex() { return split_mutex_; }
  std::condition_variable& split_cv() { return split_cv_; }

 private:
  const int size_;
  // Declared before the mailboxes: envelopes queued in a mailbox hold
  // leases, so the pool must outlive them at destruction.
  device::PoolAllocator alloc_{"comm", kMaxMessageClassLog};
  std::atomic<std::size_t> direct_threshold_{kDefaultEagerThreshold};
  std::atomic<std::uint64_t> direct_deliveries_{0};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex split_mutex_;
  std::condition_variable split_cv_;
  std::vector<std::unique_ptr<SplitSlot>> split_slots_;

  mutable std::mutex verifier_mutex_;
  std::shared_ptr<Verifier> verifier_;          // guarded by verifier_mutex_
  std::atomic<Verifier*> verifier_raw_{nullptr};
};

}  // namespace hplx::comm
