#pragma once
/// \file verify.hpp
/// \brief Opt-in runtime-verification layer for the minimpi transport —
/// the comm-layer sibling of device::HazardTracker (PR 5) and the MUST
/// analogue for a custom fabric.
///
/// The collectives are built strictly on p2p over threads of one process,
/// so the classic MPI verifier checks can be done exactly, not
/// heuristically:
///
/// - **Collective matching.** Every outermost collective call registers a
///   descriptor {collective kind, root, byte size, count sum} in a shared
///   per-fabric slot table keyed by the rank's collective sequence number
///   (the shadow channel — no piggyback bytes on the real wire, so the
///   checked traffic is bit-identical to the unchecked run). The first
///   arriver owns the slot; every later arriver compares and any mismatch
///   in kind/root/size/count-sum — including a rank calling split while a
///   peer calls bcast (split inconsistency / collective-p2p interleaving)
///   — is reported with both ranks' call descriptors.
/// - **P2p matching and leak detection.** Size-mismatched matches and user
///   tags in the reserved range (>= kMaxUserTag) are recorded before the
///   hard HPLX_CHECK fires, and messages still queued in a fabric's
///   mailboxes at destruction (or at an explicit end-of-run audit) are
///   reported per (dst, src, tag) — the comm-level analogue of the HBM
///   leak check.
/// - **Deadlock detection.** Blocked receives register in a wait-for
///   registry; blocked threads poll it on a short tick. When every rank of
///   the fabric is blocked with no deliverable match for longer than a
///   grace period (a stable cycle — in shared memory a sent message is
///   visible in the destination queue before the sender proceeds, so
///   "blocked with no match" edges are exact), or any single receive
///   exceeds the hard timeout, the verifier dumps every rank's blocked
///   operation and expected peer, records a Deadlock violation, and aborts
///   all blocked ranks with an exception instead of hanging CI forever.
/// - **Buffer-hazard bridge.** Collective entry points declare their
///   payload envelopes to the rank's device::HazardTracker (when both
///   checkers are attached), so a chunked collective writing a receive
///   buffer that unfenced device work still reads is caught at the comm
///   layer even when the caller forgot its own HostAccessScope.
///
/// Off by default: Fabric::verifier() is null and every call site is a
/// single pointer test — no locking, no allocation, identical wire
/// behavior. Enabled per fabric (comm_check in HplConfig/HPL.dat or
/// HPLX_COMM_CHECK=1); Communicator::split propagates enablement to child
/// fabrics. Reports are deduplicated trace::ViolationRecords, gathered
/// into HplResult::comm_violations exactly like HplResult::hazards.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "trace/records.hpp"

namespace hplx::device {
class HazardTracker;
}

namespace hplx::comm {

class Fabric;
class Mailbox;

class Verifier {
 public:
  enum class Kind {
    CollectiveMismatch,  ///< cross-rank kind/root/size/count-sum skew
    P2PSizeMismatch,     ///< matched message carried the wrong byte count
    ReservedTag,         ///< user p2p call with a tag >= kMaxUserTag
    OrphanMessage,       ///< message never consumed (comm-level leak)
    Deadlock,            ///< wait-for cycle or blocked-receive timeout
    Truncated,           ///< synthetic: violations past the record cap
  };
  static const char* kind_name(Kind k);

  /// Collective kinds registered in the matching table. Split rides the
  /// same sequence space: a rank splitting while its peer broadcasts is a
  /// descriptor mismatch like any other.
  enum class Coll {
    Barrier,
    Bcast,
    Allreduce,
    Scatterv,
    Allgatherv,
    Split,
  };
  static const char* coll_name(Coll c);

  struct Config {
    /// Tick between deadlock polls by blocked threads.
    std::chrono::milliseconds poll{25};
    /// A stable all-ranks-blocked cycle must persist this long before it
    /// is reported (absorbs the direct-delivery wakeup window).
    std::chrono::milliseconds grace{250};
    /// Hard watchdog: any single blocked receive older than this is
    /// reported as a deadlock even without a full cycle (catches waits on
    /// a rank that died or is stuck on another fabric).
    std::chrono::milliseconds timeout{30000};

    /// Apply HPLX_COMM_GRACE_MS / HPLX_COMM_TIMEOUT_MS overrides. 0 is
    /// accepted and means "report immediately"; malformed or negative
    /// values are ignored with a stderr warning.
    static Config from_env();
  };

  Verifier(Fabric& fabric, Config cfg);

  const Config& config() const { return cfg_; }

  // ------------------------------------------------- collective matching

  /// Register one collective call descriptor for `rank` and compare it
  /// against the slot's first arriver. Only the outermost call of a nested
  /// implementation registers (Ring2Mod delegating to Ring1Mod, chunked
  /// allgatherv falling back to the blocking one); returns true when this
  /// call was the outermost one.
  bool begin_collective(int rank, Coll c, int root, std::size_t bytes,
                        std::uint64_t count_sum);
  void end_collective(int rank);

  /// True while `rank` is inside at least one collective (labels blocked
  /// p2p ops with their collective context).
  bool in_collective(int rank) const;

  // ------------------------------------------------------- p2p matching

  void on_reserved_tag(int rank, int tag, const char* op);
  void on_size_mismatch(int rank, int src, int tag, std::size_t expected,
                        std::size_t got);

  /// Audit every mailbox of the fabric for unconsumed messages and record
  /// one OrphanMessage per queued envelope site. Called by ~Fabric and by
  /// the driver's end-of-run audit (after a barrier, before the gather).
  void check_orphans();

  // -------------------------------------------------- deadlock detection

  /// A receive on `box` (owned by `rank`) found no match and is about to
  /// block. Never called with the mailbox lock held. Throws immediately
  /// when the verifier has already aborted. `done` (optional) points at
  /// the caller's posted-receive completion flag — poll() reads it via
  /// Mailbox::posted_done so a receive already satisfied by direct
  /// delivery (but whose thread has not run yet) is not counted as stuck.
  void on_block(int rank, Mailbox* box, int src, int tag, const char* what,
                const bool* done = nullptr);
  void on_unblock(int rank);

  /// Periodic deadlock check, run by blocked threads on their wait tick
  /// (no watchdog thread: the last rank to block is the detector). Never
  /// called with a mailbox lock held.
  void poll();

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  [[noreturn]] void throw_aborted() const;
  std::chrono::milliseconds poll_interval() const { return cfg_.poll; }

  // ------------------------------------------------ buffer-hazard bridge

  /// Attach rank's device hazard tracker so collectives can declare their
  /// payload envelopes (null detaches; safe to skip entirely).
  void set_hazard_tracker(int rank, device::HazardTracker* hz);
  device::HazardTracker* hazard_tracker(int rank) const;

  // ------------------------------------------------------------- results

  /// Deduplicated violations (one record per kind × label pair with an
  /// occurrence count), ready for HplResult::comm_violations.
  std::vector<trace::ViolationRecord> report() const;
  std::uint64_t violation_count() const;
  std::uint64_t count_of(Kind k) const;
  std::size_t distinct_of(Kind k) const;

  /// End-of-run table ("comm check: N violations" + one row per record);
  /// empty string when the run was clean.
  std::string format_report() const;

 private:
  struct CollDescriptor {
    Coll kind = Coll::Barrier;
    int root = -1;
    std::size_t bytes = 0;
    std::uint64_t count_sum = 0;
    int first_rank = -1;
    int passed = 0;  ///< ranks that have registered this slot
  };
  struct BlockedOp {
    std::uint64_t id = 0;  ///< 0 = slot free
    Mailbox* box = nullptr;
    int src = 0;
    int tag = 0;
    const char* what = "";
    const bool* done = nullptr;  ///< posted-receive completion flag
    bool collective = false;
    std::chrono::steady_clock::time_point since;
  };

  void add_violation(Kind kind, const char* a, const char* b,
                     const char* detail);
  void format_blocked(const BlockedOp& op, int rank, char* out,
                      std::size_t cap) const;
  void report_deadlock(const char* why);

  Fabric& fabric_;
  const Config cfg_;

  // Lock order (strict): blocked_mutex_ -> any Mailbox::mutex_ ->
  // records_mutex_. coll_mutex_ is terminal and never nests with the
  // others except above records_mutex_. Fabric::split_mutex_ never nests
  // with any of these: on_block/on_unblock/poll are not invoked while it
  // is held (Communicator::split drops it around them, mirroring
  // Mailbox::wait_verified).
  mutable std::mutex coll_mutex_;
  std::vector<std::uint64_t> seq_;          ///< per-rank collective counter
  std::vector<int> depth_;                  ///< per-rank nesting depth
  std::deque<CollDescriptor> slots_;        ///< pruned descriptor window
  std::uint64_t slot_base_ = 0;             ///< seq of slots_.front()

  mutable std::mutex blocked_mutex_;
  std::vector<BlockedOp> blocked_;          ///< one slot per rank
  std::size_t blocked_count_ = 0;
  std::uint64_t next_block_id_ = 1;
  /// Stable-cycle tracking: hash of the blocked-op id set last seen fully
  /// stuck, and when it was first seen.
  std::uint64_t cycle_sig_ = 0;
  std::chrono::steady_clock::time_point cycle_since_;

  std::atomic<bool> aborted_{false};

  mutable std::mutex records_mutex_;
  std::vector<trace::ViolationRecord> records_;
  /// Occurrences of *new* distinct sites dropped once records_ hit its
  /// cap; surfaced as a synthetic Kind::Truncated record so counts and
  /// reports never silently undercount.
  std::uint64_t dropped_ = 0;

  std::vector<std::atomic<device::HazardTracker*>> hazard_;
};

/// True when the HPLX_COMM_CHECK environment variable requests checking
/// (set and not "0"); OR-combined with HplConfig::comm_check.
bool comm_check_env_enabled();

}  // namespace hplx::comm
