#include "blas/threading.hpp"

#include <memory>
#include <mutex>

#include "util/error.hpp"

namespace hplx::blas {

namespace {

// g_use_mutex serializes teamed kernel regions against each other and
// against reconfiguration. Kernels try-lock it (busy -> sequential
// fallback); set_num_threads locks it (waits for the in-flight kernel to
// drain before touching the team).
std::mutex g_use_mutex;
// Null or a team of >= 2 members; guarded by g_use_mutex.
std::unique_ptr<ThreadTeam> g_owned;

}  // namespace

void set_num_threads(int n) {
  HPLX_CHECK(n >= 1);
  std::lock_guard<std::mutex> lock(g_use_mutex);
  if (n == 1) {
    g_owned.reset();
    return;
  }
  if (g_owned && g_owned->size() == n) return;
  g_owned.reset();  // join old workers before spawning the new team
  g_owned = std::make_unique<ThreadTeam>(n);
}

namespace detail {

TeamLease::TeamLease() {
  if (!g_use_mutex.try_lock()) return;  // someone else's kernel is teamed
  locked_ = true;
  if (g_owned != nullptr) {
    team_ = g_owned.get();
  } else {
    g_use_mutex.unlock();
    locked_ = false;
  }
}

TeamLease::~TeamLease() {
  if (locked_) g_use_mutex.unlock();
}

}  // namespace detail

}  // namespace hplx::blas
