#pragma once
/// \file stream.hpp
/// \brief In-order execution streams and events for the simulated
/// accelerator (the HIP stream/event subset rocHPL uses).
///
/// Each Stream owns a worker thread draining a FIFO of operations, so
/// host code that enqueues work and continues — the whole point of the
/// paper's overlap optimizations — genuinely overlaps with "device"
/// execution. A stream keeps two busy clocks. The wall-clock one
/// (real_busy_seconds) is what the solver's per-iteration traces report
/// as "GPU active time" (Fig. 7's green line). The modeled one
/// (busy_seconds) sums each op's DeviceModel duration: what the work
/// would take on an MI250X GCD. It surfaces only as
/// core::HplResult::stream_busy_seconds.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "device/hazard.hpp"

namespace hplx::device {

/// Completion marker recorded on a stream; another stream (or the host)
/// can wait on it. Copyable handle, shared state.
class Event {
 public:
  Event();

  /// Host-side blocking wait. Under the hazard tracker this is also a
  /// happens-before edge: the host clock joins the event's clock, so
  /// everything ordered before the event is now safe to touch from host.
  void wait() const;

  /// Blocking wait that deliberately skips the tracker's happens-before
  /// join. Execution stays correct (the wait is real); only the hazard
  /// model treats the fence as absent. Test hook for re-introducing
  /// fence-omission bugs without actually racing.
  void wait_unordered() const;

  bool complete() const;

 private:
  friend class Stream;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    /// Happens-before payload, set once at record() before the handle
    /// escapes; null when tracking is off.
    std::shared_ptr<EventHazard> hazard;
  };
  std::shared_ptr<State> state_;
};

class Stream {
 public:
  explicit Stream(Device& device, std::string name = "stream");
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Device& device() { return device_; }
  const std::string& name() const { return name_; }

  /// Enqueue an operation: `fn` runs on the stream thread, after all
  /// previously enqueued work; `modeled_seconds` is charged to the
  /// stream's virtual busy clock.
  void enqueue(double modeled_seconds, std::function<void()> fn);

  /// enqueue() plus a hazard declaration: `what` names the op (static
  /// storage duration) and `spans` is its access set. With tracking off
  /// this is exactly enqueue() — one null-pointer test of overhead.
  void enqueue_annotated(double modeled_seconds, const char* what,
                         std::initializer_list<MemSpan> spans,
                         std::function<void()> fn);

  /// Record an event after the currently enqueued work.
  Event record();

  /// Make subsequent work on *this* stream wait until `ev` completes
  /// (cross-stream dependency, like hipStreamWaitEvent).
  void wait_event(Event ev);

  /// Host-side: block until everything enqueued so far has executed.
  void synchronize();

  /// Total modeled seconds of work this stream has *completed*.
  double busy_seconds() const;

  /// Total *wall-clock* seconds the stream worker spent executing ops
  /// (used by the real driver's per-iteration trace and phase totals; the
  /// calibrated figures come from hplx::sim, not from either stream
  /// clock). Time blocked in a wait_event() op and record()'s completion
  /// markers are idle time, not busy time.
  double real_busy_seconds() const;

 private:
  struct Op {
    double modeled = 0.0;
    std::function<void()> fn;
    bool idle = false;  ///< an event wait or marker: not busy time
  };

  void push(Op op);
  void worker_loop();

  Device& device_;
  std::string name_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<Op> queue_;
  bool executing_ = false;
  bool shutdown_ = false;
  double busy_seconds_ = 0.0;
  double real_busy_seconds_ = 0.0;

  /// Device's hazard tracker (null when checking is off) and this
  /// stream's clock index in it.
  HazardTracker* hz_ = nullptr;
  int hz_id_ = -1;

  std::thread worker_;
};

/// A fixed set of in-order streams used to fan the banded trailing update
/// out across the device (the generalization of rocHPL's U1/U2 stream
/// split). Stream 0 is the *primary* stream: the one the driver's
/// row-swap gather/scatter and U assembly run on, and the join point of
/// the update's bands. The pool only groups streams — each member is an
/// ordinary Stream, ordered against the others by its own events.
class StreamPool {
 public:
  /// Creates `count` streams named `<prefix>0..<prefix>{count-1}`.
  StreamPool(Device& device, int count, const std::string& prefix = "compute");

  int size() const { return static_cast<int>(streams_.size()); }
  Stream& stream(int i);
  /// Stream 0, the bands' join point and the legacy single stream.
  Stream& primary() { return stream(0); }

  /// Host-side: drain every stream.
  void synchronize();

 private:
  std::vector<std::unique_ptr<Stream>> streams_;
};

}  // namespace hplx::device
