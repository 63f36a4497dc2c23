#pragma once
/// \file hazard.hpp
/// \brief Opt-in hazard-checking runtime for the simulated accelerator —
/// the gpusim analogue of `compute-sanitizer racecheck`.
///
/// The async device layer lets the host run a full iteration ahead of the
/// device (PR 4), which is exactly where its bug class lives: a kernel
/// captures raw pointers at enqueue time, and any later host write or
/// buffer free that is not ordered *behind* that kernel by an event or a
/// synchronize corrupts data nondeterministically. Those bugs were found
/// by eye; HazardTracker finds them by construction.
///
/// Mechanics (all bookkeeping happens on the enqueueing host thread; the
/// stream workers never touch the tracker):
///
/// - Every enqueued op may declare its access set: `{base, bytes,
///   read|write}` byte intervals (kernels in kernels.cpp annotate
///   themselves with conservative column-major envelopes — disjoint
///   column bands of one matrix still map to disjoint envelopes, so the
///   banded update does not false-positive). Spans are byte-granular so
///   the fp64 and fp32 engines share one tracker: a float region at an
///   odd element offset never rounds out to a phantom overlap.
/// - Happens-before is the transitive closure of stream program order,
///   Event record → wait_event edges, and host-side Event::wait /
///   Stream::synchronize joins, tracked with one vector clock per stream
///   plus a host clock.
/// - A new op that conflictingly overlaps (write/write or read/write) a
///   live access it is not ordered behind is an `UnorderedStreams`
///   violation. A host access (declared via the HostAccessScope RAII
///   guard) that overlaps a device access the host has not waited behind
///   is a `HostDevice` violation. Device Buffers additionally get an
///   identity with alloc/free epochs: enqueueing into a freed range is
///   `UseAfterFree`, freeing a range with unordered in-flight ops is
///   `FreePending`, and Buffers still allocated at Device destruction are
///   `Leak`s.
///
/// The tracker is opt-in per Device (`hazard_check` in HplConfig/HPL.dat,
/// or HPLX_HAZARD=1): when off, `Device::hazard()` is null and every
/// call site is a single pointer test — no allocation, no locking, no
/// span construction.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/records.hpp"

namespace hplx::device {

class HazardTracker;

/// One declared byte interval. `write` covers read-modify-write (gemm
/// with beta != 0 declares its C as a write).
struct MemSpan {
  const void* base = nullptr;
  std::size_t bytes = 0;
  bool write = false;
};

/// Element-typed helpers: `count` is in elements of T, converted to bytes
/// here so double and float call sites read identically.
template <typename T>
inline MemSpan span_read(const T* base, std::size_t count) {
  return {base, count * sizeof(T), false};
}
template <typename T>
inline MemSpan span_write(const T* base, std::size_t count) {
  return {base, count * sizeof(T), true};
}
/// Conservative envelope of an m×n column-major matrix with leading
/// dimension ld (in elements): [base, base + (n-1)·ld + m). Envelopes of
/// disjoint column ranges of one matrix never overlap when m <= ld.
template <typename T>
inline MemSpan span_matrix(const T* base, long m, long n, long ld,
                           bool write) {
  if (m <= 0 || n <= 0) return {nullptr, 0, write};
  const std::size_t elems =
      static_cast<std::size_t>(n - 1) * static_cast<std::size_t>(ld) +
      static_cast<std::size_t>(m);
  return {base, elems * sizeof(T), write};
}

/// Vector clock over the tracker's registered streams: clock[s] = highest
/// op sequence number on stream s known to happen-before the owner.
using HazardClock = std::vector<std::uint64_t>;

/// Per-event happens-before payload, shared through Event::State so a
/// copied Event handle keeps its edge. Captured by HazardTracker::record.
struct EventHazard {
  HazardTracker* tracker = nullptr;
  HazardClock clock;
};

/// RAII guard declaring a host-side touch of memory the device may also
/// be using (RowSwapper::communicate rewriting staging buffers, the
/// driver recycling panel double-buffers, backsolve's host vector math).
/// The check runs at construction: every declared span is compared
/// against live device accesses, and any conflicting overlap the host
/// clock does not dominate is reported. Constructing with a null tracker
/// is free.
class HostAccessScope {
 public:
  HostAccessScope(HazardTracker* tracker, const char* what,
                  std::initializer_list<MemSpan> spans);
  HostAccessScope(HazardTracker* tracker, const char* what,
                  const std::vector<MemSpan>& spans);
  ~HostAccessScope() = default;
  HostAccessScope(const HostAccessScope&) = delete;
  HostAccessScope& operator=(const HostAccessScope&) = delete;
};

class HazardTracker {
 public:
  enum class Kind {
    UnorderedStreams,  ///< write/write or read/write overlap, no HB edge
    HostDevice,        ///< host access overlapping un-waited device work
    UseAfterFree,      ///< op declared access into a freed Buffer range
    FreePending,       ///< Buffer freed with unordered in-flight ops
    Leak,              ///< Buffer still allocated at Device destruction
  };
  static const char* kind_name(Kind k);

  explicit HazardTracker(std::string device_name);

  // --- stream / op lifecycle (called by Stream) ------------------------

  /// Register a stream; returns its clock index.
  int register_stream(const std::string& name);

  /// Declare + order one enqueued op. Returns the op's sequence number on
  /// its stream. `what` must be a string with static storage duration.
  std::uint64_t on_enqueue(int stream, const char* what, const MemSpan* spans,
                           std::size_t nspans);

  /// Capture the happens-before payload for an event recorded on `stream`
  /// (the event's op itself must already have been declared).
  EventHazard on_record(int stream);

  /// stream waits on ev: join ev's clock into the stream's clock.
  void on_wait_event(int stream, const EventHazard& ev);

  /// Host waited for ev to complete (Event::wait): join into host clock.
  void on_host_wait(const EventHazard& ev);

  /// Host drained `stream` (Stream::synchronize / ~Stream): the host now
  /// happens-after everything enqueued on it.
  void on_synchronize(int stream);

  // --- buffer identity (called by Buffer/Device) -----------------------

  /// A Buffer came to life: remembers [base, base+bytes) with a fresh
  /// epoch and forgets any freed range it reuses.
  void on_alloc(const void* base, std::size_t bytes);

  /// A Buffer released its storage: checks for unordered in-flight ops on
  /// the range, then marks it freed (UseAfterFree detection for later
  /// enqueues until the allocator reuses it).
  void on_free(const void* base, std::size_t bytes);

  /// Device destruction with hbm_used() != 0: report one live buffer.
  void on_leak(const void* base, std::size_t bytes);

  /// Record a Leak for every Buffer still registered (the Device
  /// destructor's teardown audit).
  void report_live_buffers_as_leaks();

  // --- host accesses ---------------------------------------------------

  void on_host_access(const char* what, const MemSpan* spans,
                      std::size_t nspans);

  // --- results ---------------------------------------------------------

  /// Deduplicated violation records (one per kind × op-label pair, with
  /// an occurrence count), ready for HplResult / the report table.
  std::vector<trace::ViolationRecord> report() const;

  /// Total violation occurrences (sum of record counts).
  std::uint64_t violation_count() const;

  /// Occurrences of one kind.
  std::uint64_t count_of(Kind k) const;

  /// Number of distinct (deduplicated) records of one kind.
  std::size_t distinct_of(Kind k) const;

  /// Render the end-of-run table ("hazard check: N violations" + one row
  /// per record); empty string when no violations were seen.
  std::string format_report() const;

  const std::string& device_name() const { return name_; }

 private:
  struct LiveAccess {
    const char* base;
    const char* end;
    bool write;
    int stream;
    std::uint64_t seq;
    const char* what;
  };
  struct FreedRange {
    const char* base;
    const char* end;
    std::uint64_t epoch;
  };
  struct LiveBuffer {
    const char* base;
    std::size_t bytes;
    std::uint64_t epoch;
  };

  void add_violation(Kind kind, const char* a, const char* b,
                     const std::string& detail);
  void prune_dominated();
  bool host_ordered(const LiveAccess& acc) const {
    return acc.seq <= host_clock_[static_cast<std::size_t>(acc.stream)];
  }

  mutable std::mutex mutex_;
  std::string name_;

  std::vector<std::string> stream_names_;
  /// Per-stream vector clocks; clocks_[s][s] is also stream s's enqueue
  /// position (ops are numbered from 1).
  std::vector<HazardClock> clocks_;
  HazardClock host_clock_;

  std::vector<LiveAccess> live_;
  std::vector<FreedRange> freed_;
  std::vector<LiveBuffer> buffers_;
  std::uint64_t epoch_ = 0;
  std::uint64_t ops_since_prune_ = 0;

  std::vector<trace::ViolationRecord> records_;
};

/// True when the HPLX_HAZARD environment variable requests checking
/// (set and not "0"); the env override OR-combines with config knobs.
bool hazard_env_enabled();

}  // namespace hplx::device
