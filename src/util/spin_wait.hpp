#pragma once
/// \file spin_wait.hpp
/// \brief The one wait policy for a runtime wait on a peer: spin for a
/// bounded window, then park.
///
/// The team barrier (util/thread_team.hpp) and the fabric's mailbox
/// receives (comm/fabric.hpp) both wait for another thread that is
/// usually a few microseconds away. A condvar wait pays a kernel sleep and
/// wakeup on every such wait; spin_until lets the waiter watch a cheap
/// readiness test first, and only when the window closes does the caller
/// park on its own condvar and re-check its real predicate under its own
/// mutex. The helper holds no lock and knows nothing of the caller's
/// state, so no wakeup can be lost through it: the caller's park is the
/// usual predicate-checked condvar wait.
///
/// The spin is bounded in time, not in iterations, so it stays safe when
/// hplx oversubscribes hardware threads (ranks, team members and stream
/// workers are all threads): a waiter whose peer is descheduled burns at
/// most kSpinWindow before it parks, and it yields its core every few
/// microseconds of that window, so a peer queued on the same core runs
/// instead of waiting the window out.

#include <chrono>
#include <thread>

namespace hplx {

/// How long a waiter spins before it parks: a few hundred barrier round
/// trips or small-message hops, far below a scheduler time slice.
inline constexpr std::chrono::microseconds kSpinWindow{50};

/// Tell the core this is a spin-wait loop (x86 `pause`): it saves power
/// and yields issue slots to a hyper-threaded sibling.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Spin until `ready()` holds or the clock passes `deadline`. Returns
/// true when ready() held, false when the window closed first. `ready`
/// must be cheap and lock-free (an atomic load): it runs once per pause.
template <class Ready>
bool spin_until(Ready&& ready,
                std::chrono::steady_clock::time_point deadline) {
  for (unsigned spins = 1;; ++spins) {
    if (ready()) return true;
    cpu_relax();
    // Reading the clock costs more than a pause; look every 64 spins.
    // Yield there too: a peer that shares this CPU (where the kernel does
    // not balance load, threads stay where they start) then runs and
    // makes progress, instead of waiting out the window behind this spin.
    if (spins % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
  }
}

/// spin_until with a window of kSpinWindow from now.
template <class Ready>
bool spin_until(Ready&& ready) {
  return spin_until(ready, std::chrono::steady_clock::now() + kSpinWindow);
}

}  // namespace hplx
