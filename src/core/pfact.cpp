#include "core/pfact.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "comm/collectives.hpp"
#include "trace/phase_ledger.hpp"
#include "util/error.hpp"

namespace hplx::core {

const char* to_string(FactVariant v) {
  switch (v) {
    case FactVariant::Left: return "left";
    case FactVariant::Right: return "right";
    case FactVariant::Crout: return "crout";
    case FactVariant::RecursiveRight: return "recursive";
  }
  return "?";
}

const char* to_string(PipelineMode m) {
  switch (m) {
    case PipelineMode::Simple: return "simple";
    case PipelineMode::Lookahead: return "lookahead";
    case PipelineMode::LookaheadSplit: return "lookahead+split";
  }
  return "?";
}

const char* to_string(RowSwapAlgo a) {
  switch (a) {
    case RowSwapAlgo::SpreadRoll: return "spread-roll";
    case RowSwapAlgo::BinaryExchange: return "binary-exchange";
    case RowSwapAlgo::Mix: return "mix";
  }
  return "?";
}

const char* to_string(PrecisionMode p) {
  switch (p) {
    case PrecisionMode::FP64: return "fp64";
    case PrecisionMode::MXP32: return "mxp32";
  }
  return "?";
}

const char* to_string(PivotMode p) {
  switch (p) {
    case PivotMode::Full: return "full";
    case PivotMode::None: return "none";
  }
  return "?";
}

namespace {

/// Header of the combined pivot exchange message (HPL_pdmxswp analogue).
/// The payload that follows is 2·jb elements of T: the candidate (pivot)
/// row and the current row. Exactly one rank — the diagonal-block owner —
/// sets has_cur and supplies the current row; the max-loc winner supplies
/// the pivot row. One allreduce delivers both to everyone. The magnitude
/// is carried as double at every precision so the combine below never
/// changes shape.
struct PivotHeader {
  double absmax = -1.0;
  long slot_glob = std::numeric_limits<long>::max();
  int has_cur = 0;
  int pad = 0;
};
static_assert(sizeof(PivotHeader) == 24);

template <typename T>
struct Shared {
  const PanelTaskT<T>& t;
  const HplConfig& cfg;
  comm::Communicator& comm;
  ThreadTeam& team;

  int T_;
  int tile;  // tile height in rows

  /// Arena for the per-panel scratch below (the task's). Leases die with
  /// this Shared, so in steady state every panel's scratch is a freelist
  /// hit, not an allocation.
  device::PoolAllocator& arena;

  // Per-thread local pivot candidates (index into w rows, or -1).
  device::ArenaBufT<double> cand_val;
  device::ArenaBufT<long> cand_idx;

  // Pivot exchange message: header + pivot row + current row.
  device::ArenaBufT<std::byte> msg;

  // No-pivot path only: contiguous jb×jb broadcast stage (+ the
  // diagonal-dominance verdict slot) and the |W| column sums — one jb row
  // per thread, plus the combined row at offset T_*jb.
  device::ArenaBufT<T> stage;
  device::ArenaBufT<double> colsum;

  std::atomic<bool> failed{false};
  std::atomic<bool> dom_failed{false};
  trace::PhaseLedger* ledger = nullptr;  ///< the caller's, or null

  Shared(const PanelTaskT<T>& task, const HplConfig& config,
         comm::Communicator& col_comm, ThreadTeam& thread_team)
      : t(task),
        cfg(config),
        comm(col_comm),
        team(thread_team),
        T_(thread_team.size()),
        tile(task.tile_rows > 0 ? task.tile_rows : task.jb),
        arena(*task.scratch),
        cand_val(arena),
        cand_idx(arena),
        msg(arena),
        stage(arena),
        colsum(arena) {
    // Every slot is written before it is read (local_search fills all T_
    // candidates, pivot_exchange rewrites the message per column), so the
    // leases stay uninitialized.
    cand_val.resize_discard(static_cast<std::size_t>(T_));
    cand_idx.resize_discard(static_cast<std::size_t>(T_));
    msg.resize_discard(sizeof(PivotHeader) +
                       2 * static_cast<std::size_t>(task.jb) * sizeof(T));
  }

  PivotHeader* header() { return reinterpret_cast<PivotHeader*>(msg.data()); }
  T* pivot_row() {
    return reinterpret_cast<T*>(msg.data() + sizeof(PivotHeader));
  }
  T* cur_row() { return pivot_row() + t.jb; }

  /// First active w row at step k: slots with global index >= j+k. On the
  /// diagonal-owning rank the first jb rows are exactly globals j..j+jb-1;
  /// on every other rank all rows are in later blocks.
  long active_start(int k) const { return t.is_curr ? k : 0; }

  T& W(long r, int c) const { return t.w[r + static_cast<long>(c) * t.ldw]; }
  T& Top(int r, int c) const {
    return t.top[r + static_cast<long>(c) * t.ldtop];
  }

  /// Visit thread tid's tile row ranges intersected with [lo, mw).
  template <typename F>
  void for_tiles(int tid, long lo, F&& f) const {
    for (long t0 = 0; t0 * tile < t.mw; ++t0) {
      if (t0 % T_ != tid) continue;
      const long r0 = std::max<long>(lo, t0 * tile);
      const long r1 = std::min<long>(t.mw, (t0 + 1) * tile);
      if (r0 < r1) f(r0, r1);
    }
  }

  /// Index of the w row with global index g, or -1.
  long find_slot(long g) const {
    const long* begin = t.glob;
    const long* end = t.glob + t.mw;
    const long* it = std::lower_bound(begin, end, g);
    return (it != end && *it == g) ? it - begin : -1;
  }
};

/// A thread's running pivot candidate for one column: the largest |w(i, k)|
/// seen so far over its tiles, ties to the lowest global row, NaN never.
template <typename T>
struct Candidate {
  double val = -1.0;
  long idx = -1;  ///< w row, or -1 for none yet

  /// Fold in rows [r0, r1) of column k. One iamax finds the range's first
  /// largest entry; w rows are in ascending global order, so within the
  /// range that is also the lowest global row.
  void scan(const Shared<T>& s, long r0, long r1, int k) {
    const long r =
        r0 + blas::iamax(static_cast<int>(r1 - r0), &s.W(r0, k), 1);
    const double v = std::fabs(static_cast<double>(s.W(r, k)));
    if (v > val || (v == val && idx >= 0 && s.t.glob[r] < s.t.glob[idx])) {
      val = v;
      idx = r;
    }
  }

  void publish(Shared<T>& s, int tid) const {
    s.cand_val[static_cast<std::size_t>(tid)] = val;
    s.cand_idx[static_cast<std::size_t>(tid)] = idx;
  }
};

/// Phase 1 of each column: every thread scans its tiles for the largest
/// |w(i, k)| among active rows (parallel reduction of §III.A).
template <typename T>
void local_search(Shared<T>& s, int tid, int k) {
  Candidate<T> c;
  s.for_tiles(tid, s.active_start(k),
              [&](long r0, long r1) { c.scan(s, r0, r1, k); });
  c.publish(s, tid);
}

/// Phase 2, main thread only: merge thread candidates, run the combined
/// max-loc + row exchange across the process column, store the pivot row
/// into the replicated top block, and apply the swap-in of the displaced
/// current row.
template <typename T>
void pivot_exchange(Shared<T>& s, int k) {
  const int jb = s.t.jb;

  // Merge the per-thread local candidates.
  double best = -1.0;
  long best_idx = -1;
  for (int t = 0; t < s.T_; ++t) {
    const double v = s.cand_val[static_cast<std::size_t>(t)];
    const long idx = s.cand_idx[static_cast<std::size_t>(t)];
    if (idx < 0) continue;
    if (v > best || (v == best && (best_idx < 0 ||
                                   s.t.glob[idx] < s.t.glob[best_idx]))) {
      best = v;
      best_idx = idx;
    }
  }

  PivotHeader* h = s.header();
  *h = PivotHeader{};
  T* prow = s.pivot_row();
  T* crow = s.cur_row();
  std::memset(prow, 0, 2 * static_cast<std::size_t>(jb) * sizeof(T));
  if (best_idx >= 0) {
    h->absmax = best;
    h->slot_glob = s.t.glob[best_idx];
    for (int c = 0; c < jb; ++c) prow[c] = s.W(best_idx, c);
  }
  if (s.t.is_curr) {
    h->has_cur = 1;
    for (int c = 0; c < jb; ++c) crow[c] = s.W(k, c);
  }

  {
    trace::PhaseScope comm_scope(s.ledger, trace::Phase::Mpi);
    trace::SubPhaseScope pivot_scope(s.ledger, trace::Phase::Pivot);
    comm::allreduce_bytes(
        s.comm, s.msg.data(), s.msg.size(),
        [jb](void* inout, const void* in) {
          auto* a = static_cast<PivotHeader*>(inout);
          const auto* b = static_cast<const PivotHeader*>(in);
          T* arows = reinterpret_cast<T*>(static_cast<std::byte*>(inout) +
                                          sizeof(PivotHeader));
          const T* brows = reinterpret_cast<const T*>(
              static_cast<const std::byte*>(in) + sizeof(PivotHeader));
          if (b->absmax > a->absmax ||
              (b->absmax == a->absmax && b->slot_glob < a->slot_glob)) {
            a->absmax = b->absmax;
            a->slot_glob = b->slot_glob;
            std::memcpy(arows, brows, static_cast<std::size_t>(jb) * sizeof(T));
          }
          if (b->has_cur) {
            a->has_cur = 1;
            std::memcpy(arows + jb, brows + jb,
                        static_cast<std::size_t>(jb) * sizeof(T));
          }
        });
  }

  HPLX_CHECK_MSG(h->slot_glob != std::numeric_limits<long>::max(),
                 "panel column has no candidate rows at step " << k);
  s.t.ipiv[k] = h->slot_glob;

  // The pivot row becomes row k of the replicated top block.
  for (int c = 0; c < jb; ++c) s.Top(k, c) = prow[c];

  // Swap-in: the displaced current row replaces the pivot's old slot
  // (unless the pivot *was* the current row).
  if (h->slot_glob != s.t.j + k) {
    const long slot = s.find_slot(h->slot_glob);
    if (slot >= 0) {
      for (int c = 0; c < jb; ++c) s.W(slot, c) = crow[c];
    }
  }

  if (s.Top(k, k) == T(0)) s.failed.store(true);
}

/// Phase 3: scale column k of active rows and (right-looking) apply the
/// rank-1 update over columns (k, cend). With `search_next`, each tile
/// then runs the next column's phase 1 while it is still in cache:
/// column k+1 of these rows is final once the update has touched it
/// (HPL_dlocmax after the rank-1 update in HPL's pdpanrlN).
template <typename T>
void scale_and_update(Shared<T>& s, int tid, int k, int cend, bool do_ger,
                      bool search_next = false) {
  const T pivk = s.Top(k, k);
  Candidate<T> next;
  s.for_tiles(tid, s.active_start(k + 1), [&](long r0, long r1) {
    const long m = r1 - r0;
    blas::scal(static_cast<int>(m), T(1) / pivk, &s.W(r0, k), 1);
    if (do_ger && cend > k + 1) {
      // y is the pivot row as the exchange delivered it, equal to top row
      // k but contiguous: one or two cache lines to pull from the main
      // thread's core instead of one per column.
      blas::ger(static_cast<int>(m), cend - (k + 1), T(-1), &s.W(r0, k), 1,
                s.pivot_row() + k + 1, 1, &s.W(r0, k + 1),
                static_cast<int>(s.t.ldw));
    }
    if (search_next) next.scan(s, r0, r1, k + 1);
  });
  if (search_next) next.publish(s, tid);
}

/// Unblocked right-looking base over columns [k0, k0+kb), two team
/// barriers per column: the update pass of column k also finds column
/// k+1's local candidates. Only the block's first column, which the
/// recursion's gemm has just updated, needs a search of its own.
template <typename T>
void base_right(Shared<T>& s, int tid, int k0, int kb) {
  local_search(s, tid, k0);
  s.team.barrier();
  for (int k = k0; k < k0 + kb; ++k) {
    if (tid == 0) pivot_exchange(s, k);
    s.team.barrier();
    if (s.failed.load()) return;
    scale_and_update(s, tid, k, k0 + kb, /*do_ger=*/true,
                     /*search_next=*/k + 1 < k0 + kb);
    s.team.barrier();
  }
}

/// Unblocked Crout base over columns [k0, k0+kb): trailing updates are
/// deferred; each column is brought up to date just before its pivot
/// search, and the pivot row's trailing entries are patched redundantly by
/// every rank after the exchange.
template <typename T>
void base_crout(Shared<T>& s, int tid, int k0, int kb) {
  for (int k = k0; k < k0 + kb; ++k) {
    if (k > k0) {
      // Column update: w(:, k) -= W(:, k0..k) · top(k0..k, k).
      s.for_tiles(tid, s.active_start(k), [&](long r0, long r1) {
        blas::gemv(blas::Trans::No, static_cast<int>(r1 - r0), k - k0, T(-1),
                   &s.W(r0, k0), static_cast<int>(s.t.ldw), &s.Top(k0, k), 1,
                   T(1), &s.W(r0, k), 1);
      });
      s.team.barrier();
    }
    local_search(s, tid, k);
    s.team.barrier();
    if (tid == 0) {
      pivot_exchange(s, k);
      // Patch the stored pivot row's deferred in-block columns:
      // top(k, c) -= Σ_{m∈[k0,k)} top(k, m)·top(m, c) for c in (k, k0+kb).
      if (!s.failed.load() && k > k0 && k0 + kb > k + 1) {
        blas::gemv(blas::Trans::Yes, k - k0, k0 + kb - (k + 1), T(-1),
                   &s.Top(k0, k + 1), static_cast<int>(s.t.ldtop),
                   &s.Top(k, k0), static_cast<int>(s.t.ldtop), T(1),
                   &s.Top(k, k + 1), static_cast<int>(s.t.ldtop));
      }
      if (!s.failed.load() && s.Top(k, k) == T(0)) s.failed.store(true);
    }
    s.team.barrier();
    if (s.failed.load()) return;
    scale_and_update(s, tid, k, k0 + kb, /*do_ger=*/false);
    s.team.barrier();
  }
}

/// Unblocked left-looking base over columns [k0, k0+kb): all updates are
/// deferred. When column k becomes current, its U entries above the
/// diagonal are recovered by a unit-lower triangular solve against the
/// accumulated top block (their stored values are still the original
/// pivot-row entries), after which the candidates' deferred column update,
/// the pivot search, and the scale proceed as in Crout — the pivot row's
/// own trailing entries stay untouched until their columns come up.
template <typename T>
void base_left(Shared<T>& s, int tid, int k0, int kb) {
  for (int k = k0; k < k0 + kb; ++k) {
    if (k > k0) {
      if (tid == 0) {
        // top(k0..k, k) := L1(k0..k, k0..k)^{-1} · top(k0..k, k):
        // the deferred U column solve (in place; the strict lower
        // multipliers it reads are never overwritten).
        blas::trsv(blas::Uplo::Lower, blas::Trans::No, blas::Diag::Unit,
                   k - k0, &s.Top(k0, k0), static_cast<int>(s.t.ldtop),
                   &s.Top(k0, k), 1);
      }
      s.team.barrier();
      // Candidates' deferred column update, exactly as in Crout.
      s.for_tiles(tid, s.active_start(k), [&](long r0, long r1) {
        blas::gemv(blas::Trans::No, static_cast<int>(r1 - r0), k - k0, T(-1),
                   &s.W(r0, k0), static_cast<int>(s.t.ldw), &s.Top(k0, k), 1,
                   T(1), &s.W(r0, k), 1);
      });
      s.team.barrier();
    }
    local_search(s, tid, k);
    s.team.barrier();
    if (tid == 0) pivot_exchange(s, k);
    s.team.barrier();
    if (s.failed.load()) return;
    scale_and_update(s, tid, k, k0 + kb, /*do_ger=*/false);
    s.team.barrier();
  }
}

template <typename T>
void base(Shared<T>& s, int tid, int k0, int kb, FactVariant v) {
  switch (v) {
    case FactVariant::Left:
      base_left(s, tid, k0, kb);
      break;
    case FactVariant::Crout:
      base_crout(s, tid, k0, kb);
      break;
    default:
      base_right(s, tid, k0, kb);
      break;
  }
}

/// Recursive factorization (HPL's rfact): factor the left part, update the
/// right part (main-thread DTRSM on the replicated top block + per-thread
/// DGEMM on their own tiles), recurse on the right part.
template <typename T>
void recurse(Shared<T>& s, int tid, int k0, int kb, FactVariant bv) {
  const int nbmin = std::max(1, s.cfg.rfact_nbmin);
  const int ndiv = std::max(2, s.cfg.rfact_ndiv);
  if (kb <= nbmin) {
    base(s, tid, k0, kb, bv);
    return;
  }
  int k1 = ((kb / ndiv + nbmin - 1) / nbmin) * nbmin;
  k1 = std::clamp(k1, nbmin, kb - 1);

  recurse(s, tid, k0, k1, bv);
  if (s.failed.load()) return;

  if (tid == 0) {
    // top(k0..k0+k1, trail) := L11^{-1} · top(k0..k0+k1, trail); every rank
    // holds the replicated top block, so this is redundant compute with
    // zero communication (exactly HPL's design).
    blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
               blas::Diag::Unit, k1, kb - k1, T(1), &s.Top(k0, k0),
               static_cast<int>(s.t.ldtop), &s.Top(k0, k0 + k1),
               static_cast<int>(s.t.ldtop));
  }
  s.team.barrier();

  s.for_tiles(tid, s.active_start(k0 + k1), [&](long r0, long r1) {
    blas::gemm(blas::Trans::No, blas::Trans::No, static_cast<int>(r1 - r0),
               kb - k1, k1, T(-1), &s.W(r0, k0), static_cast<int>(s.t.ldw),
               &s.Top(k0, k0 + k1), static_cast<int>(s.t.ldtop), T(1),
               &s.W(r0, k0 + k1), static_cast<int>(s.t.ldw));
  });
  s.team.barrier();

  recurse(s, tid, k0 + k1, kb - k1, bv);
}

/// No-pivot factorization of the whole panel (gesv_nopiv-style, for
/// diagonally-dominant inputs). The diagonal-owning rank LU-factors its
/// jb×jb top block in place with no pivot search, the factored block is
/// broadcast once down the process column, and every rank retires its
/// trailing rows with one triangular solve per tile: L2 := A2 · U1^{-1}.
/// Against full pivoting this replaces jb combined max-loc allreduces
/// with a single jb×jb broadcast and makes ipiv the identity (ipiv[k] =
/// j+k), which in turn collapses the row-swap plan to "copy U, move
/// nothing".
template <typename T>
void factor_nopiv(Shared<T>& s, int tid) {
  const int jb = s.t.jb;
  const int ldtop = static_cast<int>(s.t.ldtop);

  // Runtime diagonal-dominance guard: skipping the pivot search is only
  // stable when every panel column is diagonally dominant over the
  // trailing rows (a property the generator's +N diagonal shift provides
  // and Schur complements preserve, so checking the current panel is the
  // induction step). Each thread sums |W| over its own tiles; thread 0
  // combines, allreduces across the process column, and the diagonal
  // owner tests 2|W(c,c)| >= colsum[c] (the sum includes the diagonal).
  // The verdict travels in the broadcast block below — like the
  // zero-diagonal case, every rank agrees without an extra message.
  if (tid == 0) {
    s.colsum.resize_discard(static_cast<std::size_t>(s.T_ + 1) *
                            static_cast<std::size_t>(jb));
  }
  s.team.barrier();
  double* part = s.colsum.data() +
                 static_cast<std::size_t>(tid) * static_cast<std::size_t>(jb);
  std::fill_n(part, jb, 0.0);
  s.for_tiles(tid, 0, [&](long r0, long r1) {
    for (int c = 0; c < jb; ++c)
      for (long r = r0; r < r1; ++r)
        part[c] += std::fabs(static_cast<double>(s.W(r, c)));
  });
  s.team.barrier();

  if (tid == 0) {
    double* total = s.colsum.data() + static_cast<std::size_t>(s.T_) *
                                          static_cast<std::size_t>(jb);
    std::fill_n(total, jb, 0.0);
    for (int t = 0; t < s.T_; ++t)
      for (int c = 0; c < jb; ++c)
        total[c] += s.colsum[static_cast<std::size_t>(t) *
                                 static_cast<std::size_t>(jb) +
                             static_cast<std::size_t>(c)];
    {
      trace::PhaseScope comm_scope(s.ledger, trace::Phase::Mpi);
      trace::SubPhaseScope pivot_scope(s.ledger, trace::Phase::Pivot);
      comm::allreduce(s.comm, total, static_cast<std::size_t>(jb),
                      comm::ReduceOp::Sum);
    }
    bool dom_bad = false;
    if (s.t.is_curr) {
      for (int c = 0; c < jb; ++c)
        if (2.0 * std::fabs(static_cast<double>(s.W(c, c))) < total[c])
          dom_bad = true;
    }
    if (s.t.is_curr) {
      // The first jb w rows are exactly globals j..j+jb-1 (ascending), so
      // the top block is a straight copy — no pivot rows to collect.
      for (int c = 0; c < jb; ++c)
        for (int r = 0; r < jb; ++r) s.Top(r, c) = s.W(r, c);
      // Unpivoted right-looking LU of the top block.
      for (int k = 0; k < jb; ++k) {
        const T pivk = s.Top(k, k);
        if (pivk == T(0)) break;  // reported via the diagonal scan below
        const int m = jb - (k + 1);
        if (m > 0) {
          blas::scal(m, T(1) / pivk, &s.Top(k + 1, k), 1);
          blas::ger(m, m, T(-1), &s.Top(k + 1, k), 1, &s.Top(k, k + 1),
                    ldtop, &s.Top(k + 1, k + 1), ldtop);
        }
      }
    }
    // One broadcast replicates the factored block (ldtop may exceed jb,
    // so stage it contiguously for the wire). The extra trailing element
    // carries the diagonal owner's dominance verdict.
    const std::size_t cnt = static_cast<std::size_t>(jb) * jb;
    s.stage.resize_discard(cnt + 1);
    if (s.t.is_curr) {
      for (int c = 0; c < jb; ++c)
        for (int r = 0; r < jb; ++r)
          s.stage[static_cast<std::size_t>(c) * jb + r] = s.Top(r, c);
    }
    s.stage[cnt] = dom_bad ? T(1) : T(0);
    {
      trace::PhaseScope comm_scope(s.ledger, trace::Phase::Mpi);
      trace::SubPhaseScope pivot_scope(s.ledger, trace::Phase::Pivot);
      comm::bcast(s.comm, s.stage.data(), cnt + 1, s.t.diag_root);
    }
    if (!s.t.is_curr) {
      for (int c = 0; c < jb; ++c)
        for (int r = 0; r < jb; ++r)
          s.Top(r, c) = s.stage[static_cast<std::size_t>(c) * jb + r];
    }
    if (s.stage[cnt] != T(0)) s.dom_failed.store(true);
    // A zero diagonal travels with the block, so every rank agrees on
    // failure without an extra message.
    for (int k = 0; k < jb; ++k)
      if (s.Top(k, k) == T(0)) s.failed.store(true);
    for (int k = 0; k < jb; ++k) s.t.ipiv[k] = s.t.j + k;
  }
  s.team.barrier();
  if (s.failed.load() || s.dom_failed.load()) return;
  s.for_tiles(tid, s.active_start(jb), [&](long r0, long r1) {
    blas::trsm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::No,
               blas::Diag::NonUnit, static_cast<int>(r1 - r0), jb, T(1),
               s.t.top, ldtop, &s.W(r0, 0), static_cast<int>(s.t.ldw));
  });
  s.team.barrier();
}

}  // namespace

template <typename T>
void panel_factorize(comm::Communicator& col_comm, const HplConfig& cfg,
                     ThreadTeam& team, const PanelTaskT<T>& task,
                     trace::PhaseLedger* ledger) {
  HPLX_CHECK(task.jb >= 1);
  HPLX_CHECK(task.w != nullptr || task.mw == 0);
  HPLX_CHECK(task.top != nullptr && task.ipiv != nullptr);
  HPLX_CHECK(task.ldtop >= task.jb);
  HPLX_CHECK(task.ldw >= task.mw || task.mw == 0);
  HPLX_CHECK(task.scratch != nullptr);

  trace::PhaseScope fact_scope(ledger, trace::Phase::Fact);
  Shared<T> s(task, cfg, col_comm, team);
  s.ledger = ledger;
  team.run([&](int tid) {
    if (cfg.pivoting == PivotMode::None) {
      factor_nopiv(s, tid);
    } else if (cfg.fact == FactVariant::RecursiveRight) {
      recurse(s, tid, 0, task.jb, cfg.rfact_base);
    } else {
      base(s, tid, 0, task.jb, cfg.fact);
    }
  });

  HPLX_CHECK_MSG(!s.dom_failed.load(),
                 "pivoting=none requires a column diagonally dominant "
                 "matrix, but dominance fails inside the panel at column "
                 << task.j << " (generate with diag_dominant, or use full "
                 "pivoting)");
  HPLX_CHECK_MSG(!s.failed.load(),
                 "panel factorization hit an exactly-zero pivot at column "
                 << task.j << " (singular matrix?)");
}

template void panel_factorize<double>(comm::Communicator&, const HplConfig&,
                                      ThreadTeam&, const PanelTaskT<double>&,
                                      trace::PhaseLedger*);
template void panel_factorize<float>(comm::Communicator&, const HplConfig&,
                                     ThreadTeam&, const PanelTaskT<float>&,
                                     trace::PhaseLedger*);

}  // namespace hplx::core
