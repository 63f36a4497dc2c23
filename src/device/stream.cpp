#include "device/stream.hpp"

#include "util/error.hpp"
#include "util/timer.hpp"

namespace hplx::device {

Event::Event() : state_(std::make_shared<State>()) {}

void Event::wait() const {
  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
  }
  // The host now happens-after everything ordered before this event.
  // state_->hazard is written once before the handle escapes record(),
  // so reading it unlocked here is safe.
  if (state_->hazard && state_->hazard->tracker != nullptr)
    state_->hazard->tracker->on_host_wait(*state_->hazard);
}

void Event::wait_unordered() const {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool Event::complete() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

Stream::Stream(Device& device, std::string name)
    : device_(device), name_(std::move(name)) {
  hz_ = device.hazard();
  if (hz_ != nullptr) hz_id_ = hz_->register_stream(name_);
  worker_ = std::thread([this] { worker_loop(); });
}

Stream::~Stream() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  worker_.join();  // the worker drains the queue before exiting
  if (hz_ != nullptr) hz_->on_synchronize(hz_id_);
}

void Stream::enqueue(double modeled_seconds, std::function<void()> fn) {
  HPLX_CHECK(modeled_seconds >= 0.0);
  push(Op{modeled_seconds, std::move(fn)});
}

void Stream::push(Op op) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(op));
  }
  cv_work_.notify_one();
}

void Stream::enqueue_annotated(double modeled_seconds, const char* what,
                               std::initializer_list<MemSpan> spans,
                               std::function<void()> fn) {
  if (hz_ != nullptr) hz_->on_enqueue(hz_id_, what, spans.begin(), spans.size());
  enqueue(modeled_seconds, std::move(fn));
}

Event Stream::record() {
  Event ev;
  auto state = ev.state_;
  // The HB payload must be in place before the handle escapes; waiters
  // read it without locking.
  if (hz_ != nullptr)
    state->hazard = std::make_shared<EventHazard>(hz_->on_record(hz_id_));
  push(Op{0.0,
          [state] {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->done = true;
            state->cv.notify_all();
          },
          /*idle=*/true});
  return ev;
}

void Stream::wait_event(Event ev) {
  if (hz_ != nullptr && ev.state_->hazard)
    hz_->on_wait_event(hz_id_, *ev.state_->hazard);
  // The worker must block on the raw state, not Event::wait(): the
  // tracked wait joins the *host* clock, and this wait runs on the
  // stream's worker thread.
  auto state = ev.state_;
  push(Op{0.0,
          [state] {
            std::unique_lock<std::mutex> lock(state->mutex);
            state->cv.wait(lock, [&] { return state->done; });
          },
          /*idle=*/true});
}

void Stream::synchronize() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_idle_.wait(lock, [&] { return queue_.empty() && !executing_; });
  }
  if (hz_ != nullptr) hz_->on_synchronize(hz_id_);
}

double Stream::busy_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_seconds_;
}

double Stream::real_busy_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return real_busy_seconds_;
}

void Stream::worker_loop() {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      op = std::move(queue_.front());
      queue_.pop_front();
      executing_ = true;
    }
    const double t0 = wall_seconds();
    if (op.fn) op.fn();
    const double real = op.idle ? 0.0 : wall_seconds() - t0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_seconds_ += op.modeled;
      real_busy_seconds_ += real;
      executing_ = false;
      if (queue_.empty()) cv_idle_.notify_all();
    }
  }
}

StreamPool::StreamPool(Device& device, int count, const std::string& prefix) {
  HPLX_CHECK_MSG(count >= 1, "stream pool needs >= 1 stream, got " << count);
  streams_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    streams_.push_back(
        std::make_unique<Stream>(device, prefix + std::to_string(i)));
}

Stream& StreamPool::stream(int i) {
  HPLX_CHECK_MSG(i >= 0 && i < size(),
                 "stream index " << i << " out of pool of " << size());
  return *streams_[static_cast<std::size_t>(i)];
}

void StreamPool::synchronize() {
  // Primary last: its queue may hold join waits on the other streams.
  for (int i = size() - 1; i >= 0; --i) stream(i).synchronize();
}

}  // namespace hplx::device
