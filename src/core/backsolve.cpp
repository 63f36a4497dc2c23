#include "core/backsolve.hpp"

#include <algorithm>

#include "blas/blas.hpp"
#include "comm/collectives.hpp"
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
}  // namespace

template <typename T>
std::vector<double> backsolve(grid::ProcessGrid& g, DistMatrixT<T>& a,
                              device::Stream& stream,
                              trace::PhaseLedger* ledger) {
  const long n = a.n();
  const int nb = a.nb();
  const long nrhs = a.nrhs();
  const long nblocks = (n + nb - 1) / nb;
  // All RHS columns share the trailing column block (enforced by run_hpl),
  // so one process column owns the whole b̂ panel and its local columns
  // are contiguous.
  const int pc_b = a.cols().owner(n);
  const bool have_b = g.mycol() == pc_b;

  // All solve-path scratch leases from the device's host arena: on the
  // repeated backsolves of the refinement loop every panel below is a
  // freelist hit, not an allocation.
  device::PoolAllocator& arena = a.dev().host_arena();

  // Host copy of my piece of the b̂ panel (mloc×nrhs, updated in place
  // during the sweep).
  const long ldb = std::max<long>(a.mloc(), 1);
  device::ArenaBufT<T> bh(arena);
  bh.assign(static_cast<std::size_t>(ldb) * static_cast<std::size_t>(nrhs),
            T(0));
  if (have_b && a.mloc() > 0) {
    const long jl_b = a.cols().to_local(n);
    device::copy_matrix_d2h(stream, a.mloc(), nrhs, a.at(0, jl_b), a.lda(),
                            bh.data(), ldb);
    stream.synchronize();
  }

  device::ArenaBufT<T> x(arena);
  x.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs),
           T(0));

  // Hoisted out of the block sweep: both panels used to be assign()ed —
  // allocated and zeroed — once per block, but every element either
  // branch reads is written first (xk is filled by the copy/recv/bcast
  // before the solve reads it, y by the gemm's beta = 0 overwrite or the
  // recv), so one maximum-size lease up front serves all nblocks
  // iterations with no per-block work at all.
  device::ArenaBufT<T> xk(arena);  // jbk×nrhs segment, ld = jbk (contiguous)
  device::ArenaBufT<T> y(arena);
  xk.resize_discard(static_cast<std::size_t>(nb) *
                    static_cast<std::size_t>(nrhs));
  y.resize_discard(static_cast<std::size_t>(ldb) *
                   static_cast<std::size_t>(nrhs));

  for (long k = nblocks - 1; k >= 0; --k) {
    const long jk = k * nb;
    const int jbk = static_cast<int>(std::min<long>(nb, n - jk));
    const std::size_t seg = static_cast<std::size_t>(jbk) *
                            static_cast<std::size_t>(nrhs);
    const int prow_k = a.rows().owner(jk);
    const int pcol_k = a.cols().owner(jk);
    const bool diag_row = g.myrow() == prow_k;
    const bool diag_col = g.mycol() == pcol_k;

    // 1. Move the b_k panel segment from b's column to the diagonal
    //    owner: jbk rows of every RHS column, packed ld=jbk.
    if (diag_row) {
      const long il = a.rows().to_local(jk);
      if (have_b && !diag_col) {
        for (long r = 0; r < nrhs; ++r)
          copy_vector(xk.data() + r * jbk, bh.data() + il + r * ldb, jbk);
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().send(xk.data(), seg, pcol_k, kTagB);
      } else if (diag_col && !have_b) {
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().recv(xk.data(), seg, pc_b, kTagB);
      } else if (diag_col && have_b) {
        for (long r = 0; r < nrhs; ++r)
          copy_vector(xk.data() + r * jbk, bh.data() + il + r * ldb, jbk);
      }
    }

    // 2. The diagonal owner solves its triangle in place on the device —
    //    the block is read straight from the distributed matrix with no
    //    d2h staging copy.
    if (diag_row && diag_col) {
      const long il = a.rows().to_local(jk);
      const long jl = a.cols().to_local(jk);
      device::trsm_upper(stream, static_cast<long>(jbk), nrhs, a.at(il, jl),
                         a.lda(), xk.data(), static_cast<long>(jbk));
      stream.synchronize();
    }

    // 3. Broadcast x_k down the diagonal column; apply the local update
    //    U(:, k)·x_k to the rows above block k and ship it to b's column.
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
      for (long r = 0; r < nrhs; ++r)
        copy_vector(x.data() + jk + r * n, xk.data() + r * jbk, jbk);

      const long m_above = a.row_offset(jk);
      if (m_above > 0) {
        const long jl = a.cols().to_local(jk);
        // y = A(0..m_above, block k) · x_k on the device (an m×nrhs GEMM).
        // x_k is staged through a device-visible scratch via the kernels'
        // host-memory equivalence.
        device::gemm(stream, m_above, nrhs, static_cast<long>(jbk), T(1),
                     a.at(0, jl), a.lda(), xk.data(), static_cast<long>(jbk),
                     T(0), y.data(), m_above);
        stream.synchronize();
      }
      const std::size_t ycnt = static_cast<std::size_t>(m_above) *
                               static_cast<std::size_t>(nrhs);
      if (!have_b) {
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().send(y.data(), ycnt, pc_b, kTagY);
      } else {
        // y was produced by the device gemm above; its synchronize is the
        // ordering edge for this host read-modify-write.
        device::HostAccessScope axpy_guard(
            a.dev().hazard(), "backsolve.axpy",
            {device::span_read(y.data(), ycnt),
             device::span_write(bh.data(), bh.size())});
        for (long r = 0; r < nrhs; ++r)
          sub_vector(bh.data() + r * ldb, y.data() + r * m_above, m_above);
      }
    } else if (have_b) {
      const long m_above = a.row_offset(jk);
      {
        trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
        g.row_comm().recv(y.data(),
                          static_cast<std::size_t>(m_above) *
                              static_cast<std::size_t>(nrhs),
                          pcol_k, kTagY);
      }
      for (long r = 0; r < nrhs; ++r)
        sub_vector(bh.data() + r * ldb, y.data() + r * m_above, m_above);
    }
  }

  // 4. Combine the x segments: exactly one rank per diagonal column —
  //    grid row 0 — contributes each block; everyone else holds zeros.
  device::ArenaBufT<T> xsum(arena);
  xsum.assign(x.size(), T(0));
  for (long k = 0; k < nblocks; ++k) {
    const long jk = k * nb;
    const int jbk = static_cast<int>(std::min<long>(nb, n - jk));
    if (g.mycol() == a.cols().owner(jk) && g.myrow() == 0) {
      for (long r = 0; r < nrhs; ++r)
        copy_vector(xsum.data() + jk + r * n, x.data() + jk + r * n, jbk);
    }
  }
  {
    trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
    comm::allreduce(g.all_comm(), xsum.data(), xsum.size(),
                    comm::ReduceOp::Sum);
  }

  std::vector<double> out(xsum.size());
  for (std::size_t i = 0; i < xsum.size(); ++i)
    out[i] = static_cast<double>(xsum[i]);
  return out;
}

template std::vector<double> backsolve<double>(grid::ProcessGrid&,
                                               DistMatrixT<double>&,
                                               device::Stream&,
                                               trace::PhaseLedger*);
template std::vector<double> backsolve<float>(grid::ProcessGrid&,
                                              DistMatrixT<float>&,
                                              device::Stream&,
                                              trace::PhaseLedger*);

}  // namespace hplx::core
