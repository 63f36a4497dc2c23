#pragma once
/// \file threading.hpp
/// \brief Thread-team plumbing for the BLAS-3 engine.
///
/// The paper's CPU substrate (BLIS) runs its macro-kernel loops over an
/// OpenMP team; hplx reuses util::ThreadTeam the same way. A single
/// process-wide team is shared by every dgemm/dtrsm call site — the
/// solver's trailing update (via the gpusim stream thread in
/// device/kernels.cpp), the panel factorization, and direct library
/// callers — with a try-lock handshake: a BLAS-3 call that finds the team
/// busy (another rank's kernel, or a caller already inside a parallel
/// region) simply runs sequentially instead of deadlocking or
/// oversubscribing. Configuration is process-global on purpose: ranks are
/// threads here, so per-rank teams would multiply the worker count.

#include "util/thread_team.hpp"

namespace hplx::blas {

/// Size the process team to `n` members (n >= 1; 1 disbands it). Blocks
/// until any in-flight teamed kernel drains; cheap when the size is
/// unchanged.
void set_num_threads(int n);

namespace detail {

/// Scoped try-acquisition of the configured team. While a lease is held,
/// configuration calls block, so the team pointer stays valid.
class TeamLease {
 public:
  TeamLease();
  ~TeamLease();
  TeamLease(const TeamLease&) = delete;
  TeamLease& operator=(const TeamLease&) = delete;

  /// Non-null iff a team with >= 2 members was available and uncontended.
  ThreadTeam* team() const { return team_; }

 private:
  ThreadTeam* team_ = nullptr;
  bool locked_ = false;
};

}  // namespace detail
}  // namespace hplx::blas
