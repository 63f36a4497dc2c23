#include "comm/verify.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "comm/communicator.hpp"
#include "comm/fabric.hpp"
#include "util/error.hpp"

namespace hplx::comm {

namespace {

/// Cap on distinct violation records kept (deduplication labels); the
/// occurrence count stays exact past it via Verifier::dropped_.
constexpr std::size_t kMaxRecords = 256;

long env_ms(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  // 0 is a valid override (report immediately); only malformed or
  // negative values fall back, and never silently.
  if (end != v && *end == '\0' && parsed >= 0) return parsed;
  std::fprintf(stderr,
               "hplx comm verifier: ignoring %s=\"%s\" (expected a "
               "non-negative integer in ms); using %ld\n",
               name, v, fallback);
  return fallback;
}

/// Render a tag for humans: internal collective tags (>= kMaxUserTag) show
/// as their collective-tag offset so orphan reports stay readable.
void format_tag(char* out, std::size_t cap, int tag) {
  if (tag >= kMaxUserTag)
    std::snprintf(out, cap, "coll:%d", tag - kMaxUserTag);
  else
    std::snprintf(out, cap, "%d", tag);
}

}  // namespace

const char* Verifier::kind_name(Kind k) {
  switch (k) {
    case Kind::CollectiveMismatch: return "collective-mismatch";
    case Kind::P2PSizeMismatch: return "p2p-size-mismatch";
    case Kind::ReservedTag: return "reserved-tag";
    case Kind::OrphanMessage: return "orphan-message";
    case Kind::Deadlock: return "deadlock";
    case Kind::Truncated: return "records-truncated";
  }
  return "?";
}

const char* Verifier::coll_name(Coll c) {
  switch (c) {
    case Coll::Barrier: return "barrier";
    case Coll::Bcast: return "bcast";
    case Coll::Allreduce: return "allreduce";
    case Coll::Scatterv: return "scatterv";
    case Coll::Allgatherv: return "allgatherv";
    case Coll::Split: return "split";
  }
  return "?";
}

Verifier::Config Verifier::Config::from_env() {
  Config cfg;
  cfg.grace = std::chrono::milliseconds(
      env_ms("HPLX_COMM_GRACE_MS", cfg.grace.count()));
  cfg.timeout = std::chrono::milliseconds(
      env_ms("HPLX_COMM_TIMEOUT_MS", cfg.timeout.count()));
  return cfg;
}

Verifier::Verifier(Fabric& fabric, Config cfg)
    : fabric_(fabric),
      cfg_(cfg),
      seq_(static_cast<std::size_t>(fabric.size()), 0),
      depth_(static_cast<std::size_t>(fabric.size()), 0),
      blocked_(static_cast<std::size_t>(fabric.size())),
      hazard_(static_cast<std::size_t>(fabric.size())) {
  for (auto& h : hazard_) h.store(nullptr, std::memory_order_relaxed);
}

void Verifier::add_violation(Kind kind, const char* a, const char* b,
                             const char* detail) {
  std::lock_guard<std::mutex> lock(records_mutex_);
  for (auto& r : records_) {
    if (r.kind == static_cast<int>(kind) &&
        std::strncmp(r.op_a, a ? a : "", sizeof(r.op_a) - 1) == 0 &&
        std::strncmp(r.op_b, b ? b : "", sizeof(r.op_b) - 1) == 0) {
      ++r.count;
      return;
    }
  }
  if (records_.size() >= kMaxRecords) {
    // Bounded: labels keep the first kMaxRecords distinct sites, but the
    // occurrences beyond them stay counted and are surfaced as a
    // synthetic Truncated record in report()/format_report().
    ++dropped_;
    return;
  }
  trace::ViolationRecord rec;
  rec.kind = static_cast<int>(kind);
  rec.count = 1;
  rec.set_labels(a, b, detail);
  records_.push_back(rec);
}

// --------------------------------------------------- collective matching

bool Verifier::begin_collective(int rank, Coll c, int root, std::size_t bytes,
                                std::uint64_t count_sum) {
  const auto r = static_cast<std::size_t>(rank);
  std::lock_guard<std::mutex> lock(coll_mutex_);
  if (depth_[r]++ > 0) return false;  // nested implementation detail

  const std::uint64_t seq = seq_[r]++;
  HPLX_CHECK(seq >= slot_base_);
  while (slots_.size() <= seq - slot_base_) slots_.emplace_back();
  CollDescriptor& slot = slots_[seq - slot_base_];

  if (slot.passed == 0) {
    slot.kind = c;
    slot.root = root;
    slot.bytes = bytes;
    slot.count_sum = count_sum;
    slot.first_rank = rank;
  } else if (slot.kind != c || slot.root != root || slot.bytes != bytes ||
             slot.count_sum != count_sum) {
    char mine[sizeof(trace::ViolationRecord{}.op_a)];
    char theirs[sizeof(trace::ViolationRecord{}.op_b)];
    std::snprintf(mine, sizeof(mine), "r%d %s root=%d %zuB", rank,
                  coll_name(c), root, bytes);
    std::snprintf(theirs, sizeof(theirs), "r%d %s root=%d %zuB",
                  slot.first_rank, coll_name(slot.kind), slot.root,
                  slot.bytes);
    char detail[sizeof(trace::ViolationRecord{}.detail)];
    std::snprintf(detail, sizeof(detail),
                  "collective #%llu on %d-rank fabric: count %llu vs %llu",
                  static_cast<unsigned long long>(seq), fabric_.size(),
                  static_cast<unsigned long long>(count_sum),
                  static_cast<unsigned long long>(slot.count_sum));
    add_violation(Kind::CollectiveMismatch, mine, theirs, detail);
  }
  slot.passed += 1;

  // Prune fully-passed leading slots so the table stays at the skew window
  // between the fastest and slowest rank, not the whole run's history.
  while (!slots_.empty() && slots_.front().passed == fabric_.size()) {
    slots_.pop_front();
    ++slot_base_;
  }
  return true;
}

void Verifier::end_collective(int rank) {
  std::lock_guard<std::mutex> lock(coll_mutex_);
  --depth_[static_cast<std::size_t>(rank)];
}

bool Verifier::in_collective(int rank) const {
  std::lock_guard<std::mutex> lock(coll_mutex_);
  return depth_[static_cast<std::size_t>(rank)] > 0;
}

// ----------------------------------------------------------- p2p matching

void Verifier::on_reserved_tag(int rank, int tag, const char* op) {
  char label[sizeof(trace::ViolationRecord{}.op_a)];
  std::snprintf(label, sizeof(label), "r%d %s tag=%d", rank, op, tag);
  char detail[sizeof(trace::ViolationRecord{}.detail)];
  std::snprintf(detail, sizeof(detail),
                "user tags must lie in [0, %d); >= is reserved for "
                "collectives",
                kMaxUserTag);
  add_violation(Kind::ReservedTag, label, "", detail);
}

void Verifier::on_size_mismatch(int rank, int src, int tag,
                                std::size_t expected, std::size_t got) {
  char tagbuf[24];
  format_tag(tagbuf, sizeof(tagbuf), tag);
  char label[sizeof(trace::ViolationRecord{}.op_a)];
  std::snprintf(label, sizeof(label), "r%d recv src=%d tag=%s", rank, src,
                tagbuf);
  char detail[sizeof(trace::ViolationRecord{}.detail)];
  std::snprintf(detail, sizeof(detail), "expected %zu bytes, matched %zu",
                expected, got);
  add_violation(Kind::P2PSizeMismatch, label, "", detail);
}

void Verifier::check_orphans() {
  // Wire tag of barrier tokens (kMaxUserTag + collectives.cpp's
  // kTagBarrier). A rank exits a dissemination barrier as soon as it has
  // consumed its own tokens, while tokens between two *other* ranks may
  // still be queued — so in-flight barrier tokens are synchronization,
  // not leaks, and auditing right after a barrier stays exact for every
  // other tag (entering the barrier implies all prior receives finished).
  constexpr int kBarrierWireTag = kMaxUserTag + 0;
  for (int dst = 0; dst < fabric_.size(); ++dst) {
    fabric_.mailbox(dst).for_each_queued([&](int src, int tag,
                                             std::size_t bytes) {
      if (tag == kBarrierWireTag) return;
      char tagbuf[24];
      format_tag(tagbuf, sizeof(tagbuf), tag);
      char label[sizeof(trace::ViolationRecord{}.op_a)];
      std::snprintf(label, sizeof(label), "r%d <- r%d tag=%s", dst, src,
                    tagbuf);
      char detail[sizeof(trace::ViolationRecord{}.detail)];
      std::snprintf(detail, sizeof(detail),
                    "%zu bytes queued but never received", bytes);
      add_violation(Kind::OrphanMessage, label, "", detail);
    });
  }
}

// ------------------------------------------------------ deadlock detection

void Verifier::on_block(int rank, Mailbox* box, int src, int tag,
                        const char* what, const bool* done) {
  if (aborted()) throw_aborted();
  const bool coll = in_collective(rank);
  std::lock_guard<std::mutex> lock(blocked_mutex_);
  BlockedOp& op = blocked_[static_cast<std::size_t>(rank)];
  op.id = next_block_id_++;
  op.box = box;
  op.src = src;
  op.tag = tag;
  op.what = what;
  op.done = done;
  op.collective = coll;
  op.since = std::chrono::steady_clock::now();
  ++blocked_count_;
}

void Verifier::on_unblock(int rank) {
  std::lock_guard<std::mutex> lock(blocked_mutex_);
  BlockedOp& op = blocked_[static_cast<std::size_t>(rank)];
  if (op.id != 0) {
    op.id = 0;
    --blocked_count_;
  }
}

void Verifier::format_blocked(const BlockedOp& op, int rank, char* out,
                              std::size_t cap) const {
  char tagbuf[24];
  format_tag(tagbuf, sizeof(tagbuf), op.tag);
  std::snprintf(out, cap, "r%d %s src=%d tag=%s%s", rank, op.what, op.src,
                tagbuf, op.collective ? " (in collective)" : "");
}

void Verifier::report_deadlock(const char* why) {
  // Called with blocked_mutex_ held. Dump every rank's blocked operation
  // and its expected peer to stderr (the CI-log breadcrumb), record one
  // deduplicated Deadlock violation labeled by the first two blocked ops,
  // then abort every waiter.
  std::fprintf(stderr, "hplx comm verifier: DEADLOCK (%s) on %d-rank "
               "fabric — blocked operations:\n", why, fabric_.size());
  char first[sizeof(trace::ViolationRecord{}.op_a)] = "";
  char second[sizeof(trace::ViolationRecord{}.op_b)] = "";
  int found = 0;
  std::ostringstream all;
  for (int r = 0; r < fabric_.size(); ++r) {
    const BlockedOp& op = blocked_[static_cast<std::size_t>(r)];
    if (op.id == 0) continue;
    char line[96];
    format_blocked(op, r, line, sizeof(line));
    std::fprintf(stderr, "  %s  (expected peer: rank %d)\n", line, op.src);
    if (found > 0) all << " | ";
    all << line;
    if (found == 0) std::snprintf(first, sizeof(first), "%s", line);
    if (found == 1) std::snprintf(second, sizeof(second), "%s", line);
    ++found;
  }
  char detail[sizeof(trace::ViolationRecord{}.detail)];
  std::snprintf(detail, sizeof(detail), "%s: %s", why, all.str().c_str());
  add_violation(Kind::Deadlock, first, second, detail);
  aborted_.store(true, std::memory_order_release);
  fabric_.interrupt_all();
}

void Verifier::poll() {
  std::lock_guard<std::mutex> lock(blocked_mutex_);
  if (aborted()) return;
  const auto now = std::chrono::steady_clock::now();

  // A registered op whose posted receive was already completed by direct
  // delivery is logically awake — its thread just has not been scheduled
  // to unregister yet. On an oversubscribed host that descheduling can
  // outlast the grace period (or even the hard timeout), so such ops
  // must never count as stuck. Reading the flag takes the mailbox lock
  // (allowed: blocked_mutex_ -> Mailbox::mutex_).
  auto satisfied = [](const BlockedOp& op) {
    return op.box != nullptr && op.done != nullptr &&
           op.box->posted_done(op.done);
  };

  // Hard watchdog: any receive blocked past the timeout is reported even
  // without a full local cycle (the peer may be stuck on another fabric,
  // or its thread may have died unwinding an exception).
  for (int r = 0; r < fabric_.size(); ++r) {
    const BlockedOp& op = blocked_[static_cast<std::size_t>(r)];
    if (op.id != 0 && !satisfied(op) && now - op.since >= cfg_.timeout) {
      report_deadlock("timeout");
      return;
    }
  }

  // Cycle check: every rank of the fabric is blocked and none has a
  // deliverable match. Shared-memory delivery makes the edges exact — a
  // completed send is visible in the destination queue before the sender
  // proceeds — and the direct-delivery window where a posted receive is
  // done but the receiver has not woken is covered exactly by the
  // satisfied() flag check below; the grace period then only absorbs the
  // symmetric window in match()-style waits that post no receive.
  if (blocked_count_ != static_cast<std::size_t>(fabric_.size())) {
    cycle_sig_ = 0;
    return;
  }
  std::uint64_t sig = 0;
  for (int r = 0; r < fabric_.size(); ++r) {
    const BlockedOp& op = blocked_[static_cast<std::size_t>(r)];
    // Split waiters register with a null mailbox: no message can wake
    // them, so they always count as stuck.
    if (op.box != nullptr &&
        (op.box->probe(op.src, op.tag, nullptr) || satisfied(op))) {
      cycle_sig_ = 0;  // a match is deliverable or already delivered;
      return;          // this rank will wake
    }
    sig = sig * 1000003u + op.id;
  }
  if (sig != cycle_sig_) {
    cycle_sig_ = sig;
    cycle_since_ = now;
    return;
  }
  if (now - cycle_since_ >= cfg_.grace) report_deadlock("cycle");
}

void Verifier::throw_aborted() const {
  throw hplx::Error(
      "communication deadlock detected by the comm verifier; every rank's "
      "blocked operation was dumped to stderr and recorded as a Deadlock "
      "violation");
}

// ------------------------------------------------------------ hazard bridge

void Verifier::set_hazard_tracker(int rank, device::HazardTracker* hz) {
  hazard_[static_cast<std::size_t>(rank)].store(hz,
                                                std::memory_order_release);
}

device::HazardTracker* Verifier::hazard_tracker(int rank) const {
  return hazard_[static_cast<std::size_t>(rank)].load(
      std::memory_order_acquire);
}

// ------------------------------------------------------------------ results

std::vector<trace::ViolationRecord> Verifier::report() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::vector<trace::ViolationRecord> out = records_;
  if (dropped_ > 0) {
    // Synthetic truncation marker: flows through the gather and the
    // report table like any record, so downstream totals stay exact even
    // though the dropped sites' labels are gone.
    trace::ViolationRecord rec;
    rec.kind = static_cast<int>(Kind::Truncated);
    rec.count = dropped_;
    rec.set_labels("record table full", "", "");
    std::snprintf(rec.detail, sizeof(rec.detail),
                  "violation(s) at further distinct sites beyond the %zu-"
                  "record cap (labels untracked)",
                  kMaxRecords);
    out.push_back(rec);
  }
  return out;
}

std::uint64_t Verifier::violation_count() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::uint64_t total = dropped_;
  for (const auto& r : records_) total += r.count;
  return total;
}

std::uint64_t Verifier::count_of(Kind k) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::uint64_t total = (k == Kind::Truncated) ? dropped_ : 0;
  for (const auto& r : records_)
    if (r.kind == static_cast<int>(k)) total += r.count;
  return total;
}

std::size_t Verifier::distinct_of(Kind k) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::size_t n = 0;
  for (const auto& r : records_)
    if (r.kind == static_cast<int>(k)) ++n;
  return n;
}

std::string Verifier::format_report() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  if (records_.empty()) return "";
  std::ostringstream os;
  std::uint64_t total = dropped_;
  for (const auto& r : records_) total += r.count;
  os << "comm check: " << total << " violation(s), " << records_.size()
     << " distinct\n";
  for (const auto& r : records_) {
    os << "  " << kind_name(static_cast<Kind>(r.kind)) << " x" << r.count
       << "  " << r.op_a;
    if (r.op_b[0] != '\0') os << " vs " << r.op_b;
    os << "  (" << r.detail << ")\n";
  }
  if (dropped_ > 0)
    os << "  (+" << dropped_ << " violation(s) at further distinct sites "
       << "beyond the " << kMaxRecords << "-record cap)\n";
  return os.str();
}

bool comm_check_env_enabled() {
  const char* v = std::getenv("HPLX_COMM_CHECK");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace hplx::comm
