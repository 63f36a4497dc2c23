#include "core/backsolve.hpp"

#include <algorithm>
#include <utility>

#include "comm/collectives.hpp"
#include "core/rowswap.hpp"
#include "device/engine.hpp"
#include "device/hazard.hpp"
#include "device/kernels.hpp"
#include "util/error.hpp"

namespace hplx::core {

namespace {
constexpr int kTagB = 101;   ///< b segment moving to the diagonal owner
constexpr int kTagY = 102;   ///< partial update flowing back to b's column

/// dst[i] -= src[i] over [0, m), tiled over the kernel engine: elements
/// are "columns" (disjoint, write-once), so the subtraction fans out over
/// the leased BLAS team exactly like the device data-motion kernels and
/// falls back to the sequential sweep when the team is busy.
template <typename T>
void sub_vector(T* dst, const T* src, long m) {
  device::run_column_tiles(m, [&](long c0, long c1) {
    for (long i = c0; i < c1; ++i) dst[i] -= src[i];
  });
}

/// dst[i] = src[i] over [0, m), same tiling.
template <typename T>
void copy_vector(T* dst, const T* src, long m) {
  device::run_column_tiles(m, [&](long c0, long c1) {
    for (long i = c0; i < c1; ++i) dst[i] = src[i];
  });
}

/// Copy `rows` rows × nrhs columns between two column-major panels.
template <typename T>
void copy_panel(T* dst, long ldd, const T* src, long lds, long rows,
                long nrhs) {
  for (long r = 0; r < nrhs; ++r)
    copy_vector(dst + r * ldd, src + r * lds, rows);
}

/// Apply panel k's swaps — row jk+kk exchanges with ip[kk], kk ascending —
/// to the home panel (called on the home column only). One process row
/// holds every row and swaps in place. Otherwise the swaps' net effect
/// (build_rowswap_plan) rewrites at most 2·jbk rows, one slot each: slot
/// s < jbk is row jk+s, taking u_source[s]'s value, and slot jbk+i is
/// displaced[i]. The source row's owner fills a slot, every other rank
/// leaves it zero, and one column allreduce hands it to the destination.
template <typename T>
void replay_pivots(grid::ProcessGrid& g, const DistMatrixT<T>& a,
                   const std::vector<long>& ip, long jk, T* bh, long ldb,
                   long nrhs, RowSwapPlan& plan, device::ArenaBufT<T>& w,
                   trace::PhaseLedger* ledger) {
  const long jbk = static_cast<long>(ip.size());
  bool identity = true;
  for (long kk = 0; kk < jbk; ++kk)
    identity = identity && ip[static_cast<std::size_t>(kk)] == jk + kk;
  if (identity) return;  // every rank of the column sees the same pivots
  if (g.nprow() == 1) {  // local row index == global row index
    for (long kk = 0; kk < jbk; ++kk)
      for (long r = 0; r < nrhs; ++r)
        std::swap(bh[jk + kk + r * ldb],
                  bh[ip[static_cast<std::size_t>(kk)] + r * ldb]);
    return;
  }
  build_rowswap_plan(jk, static_cast<int>(jbk), ip.data(), plan);
  auto slot = [&](long s) -> std::pair<long, long> {  // (dest, source)
    if (s < jbk) return {jk + s, plan.u_source[static_cast<std::size_t>(s)]};
    return plan.displaced[static_cast<std::size_t>(s - jbk)];
  };
  const long cnt = jbk + static_cast<long>(plan.displaced.size());
  const grid::CyclicDim& rows = a.rows();
  w.assign(static_cast<std::size_t>(cnt * nrhs), T(0));
  for (long s = 0; s < cnt; ++s)
    if (rows.owner(slot(s).second) == g.myrow())
      for (long r = 0; r < nrhs; ++r)
        w[static_cast<std::size_t>(s + r * cnt)] =
            bh[rows.to_local(slot(s).second) + r * ldb];
  {
    trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
    comm::allreduce(g.col_comm(), w.data(), w.size(), comm::ReduceOp::Sum);
  }
  for (long s = 0; s < cnt; ++s)
    if (rows.owner(slot(s).first) == g.myrow())
      for (long r = 0; r < nrhs; ++r)
        bh[rows.to_local(slot(s).first) + r * ldb] =
            w[static_cast<std::size_t>(s + r * cnt)];
}
}  // namespace

template <typename T>
void triangular_sweep(grid::ProcessGrid& g, DistMatrixT<T>& a,
                      device::Stream& stream, Triangle tri, T* bh, long ldb,
                      long nrhs, const std::vector<std::vector<long>>* pivots,
                      trace::PhaseLedger* ledger) {
  const long n = a.n();
  const int nb = a.nb();
  const long nblocks = (n + nb - 1) / nb;
  const bool upper = tri == Triangle::Upper;
  const auto solve =
      upper ? device::trsm_upper<T> : device::trsm_left_lower_unit<T>;
  HPLX_CHECK(upper == (pivots == nullptr));
  HPLX_CHECK(upper || static_cast<long>(pivots->size()) == nblocks);
  HPLX_CHECK(ldb >= std::max<long>(a.mloc(), 1));
  // All RHS columns share the trailing column block (enforced by run_hpl),
  // so one process column owns the whole panel.
  const int pc_b = a.cols().owner(n);
  const bool have_b = g.mycol() == pc_b;

  // Scratch leases from the device's host arena: on the repeated sweeps
  // of the refinement loop each is a freelist hit, not an allocation.
  // Every element a block reads is written first (xk by the copy, recv or
  // broadcast before the solve reads it, y by the gemm's beta = 0
  // overwrite or the recv), so one maximum-size lease serves every block.
  device::PoolAllocator& arena = a.dev().host_arena();
  device::ArenaBufT<T> xk(arena);  // jbk×nrhs segment, ld = jbk
  device::ArenaBufT<T> y(arena);   // m×nrhs update (ld = m), then segment
  device::ArenaBufT<T> w(arena);   // pivot exchange slots
  RowSwapPlan plan;
  xk.resize_discard(static_cast<std::size_t>(nb) *
                    static_cast<std::size_t>(nrhs));
  y.resize_discard(static_cast<std::size_t>(ldb + nb) *
                   static_cast<std::size_t>(nrhs));

  for (long step = 0; step < nblocks; ++step) {
    const long k = upper ? nblocks - 1 - step : step;
    const long jk = k * nb;
    const int jbk = static_cast<int>(std::min<long>(nb, n - jk));
    const std::size_t seg = static_cast<std::size_t>(jbk) *
                            static_cast<std::size_t>(nrhs);
    const int prow_k = a.rows().owner(jk);
    const int pcol_k = a.cols().owner(jk);
    const bool diag_row = g.myrow() == prow_k;
    const bool diag_col = g.mycol() == pcol_k;
    const long il = diag_row ? a.rows().to_local(jk) : 0;
    const long jl = diag_col ? a.cols().to_local(jk) : 0;
    // The local rows block k's contribution reaches: those above it
    // (upper) or below it (lower). On the diagonal row the message back
    // to the home column also carries the solved segment.
    const long r0 = upper ? 0 : a.row_offset(jk + jbk);
    const long m = (upper ? a.row_offset(jk) : a.mloc()) - r0;
    const std::size_t ycnt = static_cast<std::size_t>(m) *
                             static_cast<std::size_t>(nrhs);
    const std::size_t msg = ycnt + (diag_row ? seg : 0);

    // 0. Forward only: replay panel k's swaps first. The factorization
    //    swapped only the trailing window, so panel k's stored L rows live
    //    in the ordering after pivots 1..k — replaying all swaps up front
    //    would land earlier panels' updates in the wrong rows.
    if (!upper && have_b)
      replay_pivots(g, a, (*pivots)[static_cast<std::size_t>(k)], jk, bh,
                    ldb, nrhs, plan, w, ledger);

    // 1. Move the segment from its home rows to the diagonal owner: jbk
    //    rows of every RHS column, packed ld = jbk.
    if (diag_row) {
      if (have_b) copy_panel(xk.data(), jbk, bh + il, ldb, jbk, nrhs);
      if (have_b && !diag_col) {
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().send(xk.data(), seg, pcol_k, kTagB);
      } else if (diag_col && !have_b) {
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().recv(xk.data(), seg, pc_b, kTagB);
      }
    }

    // 2. The diagonal owner solves its triangle in place on the device —
    //    the block is read straight from the distributed matrix with no
    //    d2h staging copy.
    if (diag_row && diag_col) {
      solve(stream, jbk, nrhs, a.at(il, jl), a.lda(), xk.data(), jbk);
      stream.synchronize();
    }

    // 3. Broadcast the segment down the diagonal column; apply the local
    //    update A(r0.., block k)·x_k and ship it to the home column, which
    //    subtracts it and stores the solved segment in its home rows.
    if (diag_col) {
      // The synchronize after the triangular solve is the edge that makes
      // this host read of the device-written xk legal.
      {
        device::HostAccessScope bcast_guard(
            a.dev().hazard(), "backsolve.bcast_xk",
            {device::span_read(xk.data(), seg)});
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        comm::bcast(g.col_comm(), xk.data(), seg, prow_k);
      }
      if (m > 0) {
        // y = A(r0..r0+m, block k) · x_k on the device (an m×nrhs GEMM).
        // x_k is staged through a device-visible scratch via the kernels'
        // host-memory equivalence.
        device::gemm(stream, m, nrhs, static_cast<long>(jbk), T(1),
                     a.at(r0, jl), a.lda(), xk.data(), static_cast<long>(jbk),
                     T(0), y.data(), m);
        stream.synchronize();
      }
      if (!have_b) {
        // The gemm's and the solve's synchronizes order these host reads
        // of y and xk.
        device::HostAccessScope send_guard(
            a.dev().hazard(), "backsolve.send_y",
            {device::span_read(xk.data(), seg),
             device::span_write(y.data(), msg)});
        if (diag_row) copy_vector(y.data() + ycnt, xk.data(), seg);
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().send(y.data(), msg, pc_b, kTagY);
      }
    } else if (have_b) {
      trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
      g.row_comm().recv(y.data(), msg, pcol_k, kTagY);
    }
    if (have_b) {
      // On the diagonal column y and xk were produced by the device ops
      // above; their synchronizes are the ordering edge for this host
      // read-modify-write.
      device::HostAccessScope axpy_guard(
          a.dev().hazard(), "backsolve.axpy",
          {device::span_read(y.data(), msg),
           device::span_read(xk.data(), seg),
           device::span_write(bh, static_cast<std::size_t>(ldb * nrhs))});
      for (long r = 0; r < nrhs; ++r)
        sub_vector(bh + r0 + r * ldb, y.data() + r * m, m);
      if (diag_row)
        copy_panel(bh + il, ldb, diag_col ? xk.data() : y.data() + ycnt,
                   jbk, jbk, nrhs);
    }
  }
}

template <typename T>
void replicate_panel(grid::ProcessGrid& g, const DistMatrixT<T>& a,
                     const T* bh, long ldb, long nrhs, T* out,
                     trace::PhaseLedger* ledger) {
  const long n = a.n();
  std::fill(out, out + n * nrhs, T(0));
  if (g.mycol() == a.cols().owner(n)) {
    for (long r = 0; r < nrhs; ++r)
      for (long il = 0; il < a.mloc(); ++il)
        out[a.rows().to_global(il, g.myrow()) + r * n] = bh[il + r * ldb];
  }
  trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
  comm::allreduce(g.all_comm(), out, static_cast<std::size_t>(n * nrhs),
                  comm::ReduceOp::Sum);
}

template <typename T>
std::vector<double> backsolve(grid::ProcessGrid& g, DistMatrixT<T>& a,
                              device::Stream& stream,
                              trace::PhaseLedger* ledger) {
  const long n = a.n();
  const long nrhs = a.nrhs();
  device::PoolAllocator& arena = a.dev().host_arena();

  // Host copy of my piece of the b̂ panel (mloc×nrhs, solved in place).
  const long ldb = std::max<long>(a.mloc(), 1);
  device::ArenaBufT<T> bh(arena);
  bh.assign(static_cast<std::size_t>(ldb) * static_cast<std::size_t>(nrhs),
            T(0));
  if (g.mycol() == a.cols().owner(n) && a.mloc() > 0) {
    device::copy_matrix_d2h(stream, a.mloc(), nrhs,
                            a.at(0, a.cols().to_local(n)), a.lda(),
                            bh.data(), ldb);
    stream.synchronize();
  }
  triangular_sweep(g, a, stream, Triangle::Upper, bh.data(), ldb, nrhs,
                   nullptr, ledger);

  device::ArenaBufT<T> x(arena);
  x.resize_discard(static_cast<std::size_t>(n) *
                   static_cast<std::size_t>(nrhs));
  replicate_panel(g, a, bh.data(), ldb, nrhs, x.data(), ledger);
  return std::vector<double>(x.data(), x.data() + x.size());
}

#define HPLX_BACKSOLVE_INSTANTIATE(T)                                     \
  template void triangular_sweep<T>(                                      \
      grid::ProcessGrid&, DistMatrixT<T>&, device::Stream&, Triangle, T*, \
      long, long, const std::vector<std::vector<long>>*,                  \
      trace::PhaseLedger*);                                               \
  template void replicate_panel<T>(                                       \
      grid::ProcessGrid&, const DistMatrixT<T>&, const T*, long, long, T*, \
      trace::PhaseLedger*);                                               \
  template std::vector<double> backsolve<T>(                              \
      grid::ProcessGrid&, DistMatrixT<T>&, device::Stream&,               \
      trace::PhaseLedger*);
HPLX_BACKSOLVE_INSTANTIATE(double)
HPLX_BACKSOLVE_INSTANTIATE(float)
#undef HPLX_BACKSOLVE_INSTANTIATE

}  // namespace hplx::core
