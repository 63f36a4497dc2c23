#pragma once
/// \file thread_team.hpp
/// \brief Persistent thread team, the stand-in for the paper's OpenMP
/// parallel region in the multi-threaded panel factorization (§III.A).
///
/// rocHPL opens an OpenMP parallel region of T threads at the start of each
/// FACT phase and round-robins NB-row tiles over them. hplx reproduces that
/// with a ThreadTeam: T-1 persistent worker threads plus the calling thread
/// as member 0 ("main thread" in the paper's terminology — the one that
/// talks to MPI and applies pivot rows). Workers park on a condition
/// variable between regions, so entering a region costs one wakeup, not a
/// thread spawn (cf. C++ Core Guidelines CP.41). Inside a region members
/// meet at a spin-then-park Barrier.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hplx {

/// Reusable barrier for a fixed number of participants: spin, then park.
///
/// An arriving member bumps an atomic count; the last one to arrive resets
/// it and advances an atomic generation, under the mutex, then notifies.
/// Everyone else waits by the one wait policy (util/spin_wait.hpp): spin
/// on the generation for at most kSpinWindow, then park on the condvar.
/// In the panel factorization's column loop the team meets every few
/// microseconds, so most waits end inside the spin and skip the kernel
/// wakeup that a condvar-only barrier pays on every round. The generation
/// changes only under the mutex, and a parked member re-checks it under
/// the same mutex, so no wakeup is lost.
class Barrier {
 public:
  explicit Barrier(int participants);

  /// Block until all participants arrive. Reusable immediately.
  void arrive_and_wait();

  int participants() const { return participants_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int participants_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// A team of `size` cooperating threads: the caller plus size-1 persistent
/// workers. `run(fn)` executes fn(tid) on every member (caller is tid 0)
/// and returns when all members finish. Inside fn, members may synchronize
/// with `barrier()`.
class ThreadTeam {
 public:
  /// \param size total members including the caller; size >= 1.
  explicit ThreadTeam(int size);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return size_; }

  /// Execute fn(tid) on all members; blocks until every member returns.
  /// Exceptions thrown by any member are rethrown on the caller (first one
  /// wins). Not reentrant.
  void run(const std::function<void(int)>& fn);

  /// Team-wide barrier; valid only inside the fn passed to run().
  void barrier() { region_barrier_.arrive_and_wait(); }

 private:
  void worker_loop(int tid);

  const int size_;
  Barrier region_barrier_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  int done_count_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::mutex error_mutex_;

  std::vector<std::thread> workers_;
};

}  // namespace hplx
