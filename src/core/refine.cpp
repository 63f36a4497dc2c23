#include "core/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "blas/blas.hpp"
#include "comm/collectives.hpp"
#include "core/backsolve.hpp"
#include "device/alloc.hpp"
#include "util/error.hpp"

namespace hplx::core {

namespace {

/// Everything the refinement loop reuses across iterations: the fp64
/// operator the low-precision matrix was cast from, replicated b, the
/// local→global row map, and ||A||_∞ for the scaled-residual denominator.
template <typename T>
struct RefineCtx {
  grid::ProcessGrid& g;
  DistMatrixT<T>& a;
  ThreadTeam& team;  ///< splits the residual's rows (a.member_rows)
  device::Stream& stream;
  const std::vector<std::vector<long>>& pivots;
  trace::PhaseLedger* ledger;  ///< communication time goes here, or null

  long n, nrhs, ml, nl, ldh;
  long ldb;                  ///< leading dimension of dh, max(ml, 1)
  const double* ah;          ///< fp64 local [A|B] (ldh×nl), a's source
  std::vector<long> igmap;   ///< local row il → global row index
  std::vector<double> rloc;  ///< per-local-row sums before the scatter
  std::vector<double> b;     ///< replicated rhs panel (n×nrhs column-major)
  double norm_a = 0.0;       ///< ||A||_∞
  std::vector<double> norm_b;  ///< per-RHS ||b_r||_∞

  /// Per-correction vectors, leased from the device's host arena once:
  /// dh is d on b's home column (ldb rows), d the replicated result.
  device::ArenaBufT<T> dh, d;

  RefineCtx(grid::ProcessGrid& g_, DistMatrixT<T>& a_, ThreadTeam& team_,
            device::Stream& stream_,
            const std::vector<std::vector<long>>& pivots_,
            trace::PhaseLedger* ledger_)
      : g(g_),
        a(a_),
        team(team_),
        stream(stream_),
        pivots(pivots_),
        ledger(ledger_),
        ah(a_.fp64_source()),
        dh(a_.dev().host_arena()),
        d(a_.dev().host_arena()) {
    n = a.n();
    nrhs = a.nrhs();
    ml = a.mloc();
    nl = a.nloc();
    ldh = a.lda();

    // The residual is always measured against the original full-precision
    // system, including its diagonal shift when the run is diagonally
    // dominant: the fp64 values the working matrix was cast from.
    HPLX_CHECK(ah != nullptr);

    igmap.resize(static_cast<std::size_t>(std::max<long>(ml, 1)));
    for (long il = 0; il < ml; ++il)
      igmap[static_cast<std::size_t>(il)] =
          a.rows().to_global(il, g.myrow());

    // Replicated B panel: each owner of a piece of a rhs column (global
    // columns n..n+nrhs) writes its rows, everyone else holds zeros, one
    // sum assembles the full panel.
    b.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs),
             0.0);
    for (long jl = 0; jl < nl; ++jl) {
      const long jg = a.cols().to_global(jl, g.mycol());
      if (jg < n || jg >= n + nrhs) continue;
      double* bcol = b.data() + (jg - n) * n;
      for (long il = 0; il < ml; ++il)
        bcol[igmap[static_cast<std::size_t>(il)]] = ah[il + jl * ldh];
    }
    sum_all(b.data(), b.size());
    norm_b.assign(static_cast<std::size_t>(nrhs), 0.0);
    for (long rhs = 0; rhs < nrhs; ++rhs)
      for (long i = 0; i < n; ++i)
        norm_b[static_cast<std::size_t>(rhs)] =
            std::max(norm_b[static_cast<std::size_t>(rhs)],
                     std::fabs(b[static_cast<std::size_t>(i + rhs * n)]));

    // ||A||_∞ over the replicated row sums, which the matrix added up
    // while it generated the source.
    HPLX_CHECK(a.row_abs_sums() != nullptr);
    std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
    scatter_rows(a.row_abs_sums(), rowsum);
    sum_all(rowsum.data(), rowsum.size());
    for (long i = 0; i < n; ++i)
      norm_a = std::max(norm_a, rowsum[static_cast<std::size_t>(i)]);
    rloc.resize(static_cast<std::size_t>(ml));
    ldb = std::max<long>(ml, 1);
    dh.resize_discard(static_cast<std::size_t>(ldb));
    d.resize_discard(static_cast<std::size_t>(n));
  }

  /// Copy the per-local-row sums `sums` (ml values) into their global rows
  /// of the zeroed length-n `out`. Each global row has exactly one local
  /// row, so summing locally first and scattering once gives every row the
  /// same additions, in the same column order, as scattering every
  /// element.
  void scatter_rows(const double* sums, std::vector<double>& out) const {
    for (long il = 0; il < ml; ++il)
      out[static_cast<std::size_t>(igmap[static_cast<std::size_t>(il)])] =
          sums[il];
  }

  /// r = b_rhs − A·x into `r` (replicated); `x` is one solution column
  /// (length n). Returns that column's HPL scaled residual.
  double residual(const std::vector<double>& x, std::vector<double>& r,
                  long rhs) {
    // Each member sums its own rows, every row over its columns in order,
    // so the sums do not depend on the team size.
    team.run([this, &x](int member) {
      const auto [r0, r1] = a.member_rows(member, team.size());
      std::fill(rloc.begin() + r0, rloc.begin() + r1, 0.0);
      for (long jl = 0; jl < nl; ++jl) {
        const long jg = a.cols().to_global(jl, g.mycol());
        if (jg >= n) continue;
        // rloc += col · x[jg] on the vector-width ger leaf. It skips a
        // zero x[jg], which leaves every sum's bits alone: rloc starts at
        // +0 and a sum of finite terms never becomes −0.
        blas::dger(static_cast<int>(r1 - r0), 1, 1.0, ah + jl * ldh + r0, 1,
                   &x[static_cast<std::size_t>(jg)], 1, rloc.data() + r0,
                   static_cast<int>(ml));
      }
    });
    r.assign(static_cast<std::size_t>(n), 0.0);
    scatter_rows(rloc.data(), r);
    sum_all(r.data(), r.size());

    const double* bcol = b.data() + rhs * n;
    double norm_r = 0.0, norm_x = 0.0;
    for (long i = 0; i < n; ++i) {
      r[static_cast<std::size_t>(i)] =
          bcol[i] - r[static_cast<std::size_t>(i)];
      norm_r = std::max(norm_r, std::fabs(r[static_cast<std::size_t>(i)]));
      norm_x = std::max(norm_x, std::fabs(x[static_cast<std::size_t>(i)]));
    }
    const double eps = std::numeric_limits<double>::epsilon();
    const double denom =
        eps * (norm_a * norm_x + norm_b[static_cast<std::size_t>(rhs)]) *
        static_cast<double>(n);
    return denom > 0.0 ? norm_r / denom : norm_r;
  }

  /// Sum `count` values at `x` over the grid.
  template <typename V>
  void sum_all(V* x, std::size_t count) {
    trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
    comm::allreduce(g.all_comm(), x, count, comm::ReduceOp::Sum);
  }

  /// Solve L·U·d = P·r in precision T against the factors in device
  /// memory. d lives in b's home-column rows through both sweeps (the
  /// unit-lower one replays the pivots) and is replicated once at the end.
  /// The returned pointer is the reusable `d` member — valid until the
  /// next correct() call.
  const T* correct(const std::vector<double>& r) {
    if (g.mycol() == a.cols().owner(n))
      for (long il = 0; il < ml; ++il)
        dh[static_cast<std::size_t>(il)] = static_cast<T>(
            r[static_cast<std::size_t>(igmap[static_cast<std::size_t>(il)])]);
    triangular_sweep(g, a, stream, Triangle::UnitLower, dh.data(), ldb, 1,
                     &pivots, ledger);
    triangular_sweep(g, a, stream, Triangle::Upper, dh.data(), ldb, 1,
                     nullptr, ledger);
    replicate_panel(g, a, dh.data(), ldb, 1, d.data(), ledger);
    return d.data();
  }
};

}  // namespace

template <typename T>
RefineResult iterative_refine(grid::ProcessGrid& g, DistMatrixT<T>& a,
                              ThreadTeam& team, device::Stream& stream,
                              const std::vector<std::vector<long>>& pivots,
                              std::vector<double> x0, int max_iters,
                              double tol, trace::PhaseLedger* ledger) {
  RefineCtx<T> ctx(g, a, team, stream, pivots, ledger);
  const long n = a.n();
  const long nrhs = a.nrhs();
  RefineResult out;
  out.x = std::move(x0);
  HPLX_CHECK(static_cast<long>(out.x.size()) == n * nrhs);
  out.converged = true;

  // Each RHS column refines independently against its own b column; the
  // fp64 operator, row map, and pivot replay are shared through the one
  // context. Reported iters/residual are the worst column's, and
  // `converged` requires every column to pass.
  std::vector<double> xcol(static_cast<std::size_t>(n)), r;
  for (long rhs = 0; rhs < nrhs; ++rhs) {
    for (long i = 0; i < n; ++i)
      xcol[static_cast<std::size_t>(i)] =
          out.x[static_cast<std::size_t>(i + rhs * n)];

    double prev = std::numeric_limits<double>::infinity();
    double resid = 0.0;
    int iters = 0;
    bool conv = false;
    for (int it = 0;; ++it) {
      const double scaled = ctx.residual(xcol, r, rhs);
      resid = scaled;
      if (!std::isfinite(scaled)) break;  // low-precision solve blew up
      if (scaled < tol) {
        conv = true;
        break;
      }
      // Stalled (no strict decrease) or out of budget: let the driver fall
      // back to fp64 rather than polishing a hopeless iterate.
      if (it >= max_iters || scaled >= prev) break;
      prev = scaled;

      const T* d = ctx.correct(r);
      for (long i = 0; i < n; ++i)
        xcol[static_cast<std::size_t>(i)] +=
            static_cast<double>(d[static_cast<std::size_t>(i)]);
      ++iters;
    }

    for (long i = 0; i < n; ++i)
      out.x[static_cast<std::size_t>(i + rhs * n)] =
          xcol[static_cast<std::size_t>(i)];
    out.iters = std::max(out.iters, iters);
    out.converged = out.converged && conv;
    // max over columns, but keep a non-finite residual visible (NaN
    // compares false, so assign the first column unconditionally).
    if (rhs == 0 || resid > out.residual) out.residual = resid;
  }

  return out;
}

template RefineResult iterative_refine<float>(
    grid::ProcessGrid&, DistMatrixT<float>&, ThreadTeam&, device::Stream&,
    const std::vector<std::vector<long>>&, std::vector<double>, int, double,
    trace::PhaseLedger*);

}  // namespace hplx::core
