#include "util/thread_team.hpp"

#include "util/error.hpp"
#include "util/spin_wait.hpp"

namespace hplx {

Barrier::Barrier(int participants) : participants_(participants) {
  HPLX_CHECK(participants >= 1);
}

void Barrier::arrive_and_wait() {
  if (participants_ == 1) return;
  // Read before arriving: the round cannot complete without this member,
  // so `gen` is the generation of the round it is joining.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // The reset precedes the release store below, so no member of the
    // next round can arrive before the count is back at zero.
    arrived_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      generation_.store(gen + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }
  auto released = [&] {
    return generation_.load(std::memory_order_acquire) != gen;
  };
  if (spin_until(released)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, released);
}

ThreadTeam::ThreadTeam(int size) : size_(size), region_barrier_(size) {
  HPLX_CHECK(size >= 1);
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int tid = 1; tid < size_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    ++epoch_;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::run(const std::function<void(int)>& fn) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    first_error_ = nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    done_count_ = 0;
    ++epoch_;
  }
  cv_start_.notify_all();

  // The caller is member 0.
  try {
    fn(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return done_count_ == size_ - 1; });
    job_ = nullptr;
  }

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadTeam::worker_loop(int tid) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return epoch_ != seen_epoch; });
      seen_epoch = epoch_;
      if (shutdown_) return;
      job = job_;
    }
    try {
      (*job)(tid);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++done_count_;
    }
    cv_done_.notify_one();
  }
}

}  // namespace hplx
