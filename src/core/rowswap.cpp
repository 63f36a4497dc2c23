#include "core/rowswap.hpp"

#include <algorithm>
#include <atomic>

#include "comm/collectives.hpp"
#include "device/hazard.hpp"
#include "device/kernels.hpp"
#include "util/error.hpp"

namespace hplx::core {

RowSwapPlan build_rowswap_plan(long j, int jb, const long* ipiv) {
  RowSwapPlan plan;
  build_rowswap_plan(j, jb, ipiv, plan);
  return plan;
}

void build_rowswap_plan(long j, int jb, const long* ipiv,
                        RowSwapPlan& plan) {
  plan.j = j;
  plan.jb = jb;
  plan.ipiv.assign(ipiv, ipiv + jb);

  // Replay the sequential swaps on flat content arrays (the former
  // std::map allocated O(jb log jb) nodes on every panel of the hot
  // loop): the jb top-block slots index directly into u_source, and the
  // few displaced below-block slots live in a small flat vector probed
  // linearly — it holds at most jb entries and is typically much smaller.
  std::vector<long>& top = plan.u_source;
  top.resize(static_cast<std::size_t>(jb));
  for (int k = 0; k < jb; ++k) top[static_cast<std::size_t>(k)] = j + k;

  std::vector<std::pair<long, long>>& below = plan.displaced;
  below.clear();
  below.reserve(static_cast<std::size_t>(jb));

  for (int k = 0; k < jb; ++k) {
    const long a = j + k;
    const long b = ipiv[k];
    HPLX_CHECK_MSG(b >= a, "pivot row " << b << " above current row " << a);
    if (a == b) continue;
    long& ca = top[static_cast<std::size_t>(k)];
    if (b < j + jb) {
      std::swap(ca, top[static_cast<std::size_t>(b - j)]);
      continue;
    }
    std::pair<long, long>* entry = nullptr;
    for (auto& p : below) {
      if (p.first == b) {
        entry = &p;
        break;
      }
    }
    if (entry == nullptr) {
      below.emplace_back(b, b);
      entry = &below.back();
    }
    std::swap(ca, entry->second);
  }

  // u_source already holds get(j+k) for every k (it *is* the top-block
  // content array). The displaced list keeps only slots whose content
  // changed, sorted by destination — the order prepare() packs in.
  below.erase(
      std::remove_if(below.begin(), below.end(),
                     [](const auto& p) { return p.first == p.second; }),
      below.end());
  std::sort(below.begin(), below.end());
  for (const auto& [slot, orig] : below) {
    (void)slot;
    HPLX_CHECK(orig >= j && orig < j + jb);  // sources always from the top
  }
}

template <typename T>
void RowSwapperT<T>::reserve(device::PoolAllocator& arena, int max_jb,
                             long max_njl, int nprow) {
  if (nprow == 1) {
    local_ipiv_.reserve(static_cast<std::size_t>(max_jb));
    return;
  }
  my_u_.bind(arena);
  gathered_u_.bind(arena);
  disp_send_.bind(arena);
  disp_recv_.bind(arena);
  // Lease the maximum-window capacity up front and keep it for the
  // swapper's lifetime: per-panel resize_discard calls below capacity
  // never touch the pool, so the hot loop is re-lease-free as well as
  // allocation-free.
  const std::size_t u = static_cast<std::size_t>(max_jb) *
                        static_cast<std::size_t>(std::max<long>(max_njl, 1));
  my_u_.resize_discard(u);
  gathered_u_.resize_discard(u);
  disp_send_.resize_discard(u);
  disp_recv_.resize_discard(u);
  my_u_slots_.reserve(static_cast<std::size_t>(max_jb));
  u_dest_of_packed_.reserve(static_cast<std::size_t>(max_jb));
  disp_src_slots_.reserve(static_cast<std::size_t>(max_jb));
  my_disp_dest_slots_.reserve(static_cast<std::size_t>(max_jb));
  u_counts_.reserve(static_cast<std::size_t>(nprow));
  u_displs_.reserve(static_cast<std::size_t>(nprow));
  disp_counts_.reserve(static_cast<std::size_t>(nprow));
}

template <typename T>
void RowSwapperT<T>::prepare(const RowSwapPlan& plan, const DistMatrixT<T>& a,
                             int myrow, long jl0, long njl, RowSwapAlgo algo,
                             long threshold) {
  j_ = plan.j;
  jb_ = plan.jb;
  jl0_ = jl0;
  njl_ = njl;
  nprow_ = a.rows().nprocs();
  myrow_ = myrow;
  const grid::CyclicDim& rows = a.rows();
  diag_root_ = rows.owner(j_);
  in_diag_row_ = diag_root_ == myrow_;
  if (nprow_ == 1) {
    // Every row of the window is local: scatter() replays the pivots in
    // place. Identity pivots (always, in no-pivot mode) move no row.
    bool moves = false;
    for (int k = 0; k < jb_; ++k)
      moves = moves || plan.ipiv[static_cast<std::size_t>(k)] != j_ + k;
    local_ipiv_.clear();
    if (moves)
      for (long p : plan.ipiv) local_ipiv_.push_back(p - j_);
    return;
  }
  HPLX_CHECK_MSG(my_u_.bound(), "RowSwapperT: reserve() before prepare()");
  // The previous cycle's scatter kernels captured raw pointers into
  // gathered_u_ / disp_recv_ at enqueue time. Before this cycle resizes
  // those buffers (a growing resize_discard re-leases — the displaced-row
  // count varies per panel) or communicate() rewrites them, wait for the
  // unpacks to drain. The wait is usually already satisfied; it only blocks when
  // the host has run a full iteration ahead of the device.
  if (scatter_pending_) {
    if (SkipScatterFenceScope::active()) {
      // Test seam: the wait still happens (no real race), but without the
      // tracker's happens-before join — modeling the fence as omitted.
      scatter_done_.wait_unordered();
    } else {
      scatter_done_.wait();
    }
    scatter_pending_ = false;
  }
  // Declare the staging rewrite this cycle is about to do (the resizes
  // below plus communicate()'s collectives) against whatever the tracker
  // still considers in flight. With the fence above intact the pending
  // unpacks are host-ordered and this is silent; without it, this is the
  // PR-4 bug reported as a host-write-vs-device-read hazard.
  device::HostAccessScope rewrite_guard(
      hz_, "rowswap.prepare",
      {device::span_write(gathered_u_.data(), gathered_u_.size()),
       device::span_write(disp_recv_.data(), disp_recv_.size())});
  const bool binexch = algo == RowSwapAlgo::BinaryExchange ||
                       (algo == RowSwapAlgo::Mix && njl <= threshold);
  u_algo_ = binexch ? comm::AllgatherAlgo::RecursiveDoubling
                    : comm::AllgatherAlgo::Ring;

  if (nopiv_) {
    // No pivoting: U is the top block verbatim and nothing is displaced.
    // All index bookkeeping collapses to empty lists (so gather/scatter
    // take their no-op branches); the only workspace is the broadcast
    // staging block.
    my_u_slots_.clear();
    u_dest_of_packed_.clear();
    u_counts_.assign(static_cast<std::size_t>(nprow_), 0);
    u_displs_.assign(static_cast<std::size_t>(nprow_), 0);
    disp_src_slots_.clear();
    my_disp_dest_slots_.clear();
    disp_counts_.assign(static_cast<std::size_t>(nprow_), 0);
    gathered_u_.resize_discard(static_cast<std::size_t>(jb_) *
                               static_cast<std::size_t>(njl_));
    return;
  }

  // --- U assembly bookkeeping -------------------------------------------
  // Determine, for each U row k, the owning grid row of its source and the
  // pack order: ranks contribute their sources in ascending k. All ranks
  // compute the same tables (the plan is replicated). The grouping runs
  // owner-major over the jb sources directly — no per-owner scratch
  // vectors in the hot loop.
  my_u_slots_.clear();
  u_dest_of_packed_.clear();
  u_counts_.assign(static_cast<std::size_t>(nprow_), 0);
  u_displs_.assign(static_cast<std::size_t>(nprow_), 0);

  const std::size_t row_bytes = static_cast<std::size_t>(njl_) * sizeof(T);
  for (int k = 0; k < jb_; ++k) {
    const long src = plan.u_source[static_cast<std::size_t>(k)];
    u_counts_[static_cast<std::size_t>(rows.owner(src))] += row_bytes;
  }
  std::size_t off = 0;
  for (int r = 0; r < nprow_; ++r) {
    u_displs_[static_cast<std::size_t>(r)] = off;
    off += u_counts_[static_cast<std::size_t>(r)];
    for (int k = 0; k < jb_; ++k) {
      const long src = plan.u_source[static_cast<std::size_t>(k)];
      if (rows.owner(src) != r) continue;
      u_dest_of_packed_.push_back(k);
      if (r == myrow_) my_u_slots_.push_back(rows.to_local(src));
    }
  }

  // resize_discard never initializes: every byte a kernel or collective
  // reads is written first (pack fills exactly the packed row count, the
  // collectives move exact byte counts), so stale content past the live
  // region is never observed and re-zeroing each panel — what assign()
  // did — would be pure overhead.
  my_u_.resize_discard(my_u_slots_.size() * static_cast<std::size_t>(njl_));
  gathered_u_.resize_discard(static_cast<std::size_t>(jb_) *
                             static_cast<std::size_t>(njl_));

  // --- displaced rows ----------------------------------------------------
  disp_src_slots_.clear();
  my_disp_dest_slots_.clear();
  disp_counts_.assign(static_cast<std::size_t>(nprow_), 0);

  // Rank order for the scatter: destination owner, then ascending dest.
  // plan.displaced is already sorted by destination (build_rowswap_plan's
  // contract), so the per-owner sweeps below visit it in that order.
  for (const auto& [dest, orig] : plan.displaced) {
    (void)orig;
    disp_counts_[static_cast<std::size_t>(rows.owner(dest))] += row_bytes;
  }
  // Root packs sources grouped by destination owner, ascending dest within
  // a group — matching the order destinations will unpack.
  for (int r = 0; r < nprow_; ++r) {
    for (const auto& [dest, orig] : plan.displaced) {
      if (rows.owner(dest) != r) continue;
      if (in_diag_row_) disp_src_slots_.push_back(rows.to_local(orig));
      if (r == myrow_) my_disp_dest_slots_.push_back(rows.to_local(dest));
    }
  }
  if (!in_diag_row_) disp_src_slots_.clear();

  disp_send_.resize_discard(in_diag_row_ ? disp_src_slots_.size() *
                                               static_cast<std::size_t>(njl_)
                                         : 0);
  disp_recv_.resize_discard(my_disp_dest_slots_.size() *
                            static_cast<std::size_t>(njl_));
}

template <typename T>
void RowSwapperT<T>::gather(device::Stream& stream, DistMatrixT<T>& a) {
  hz_ = stream.device().hazard();
  gather_pending_ = false;
  if (njl_ == 0 || nprow_ == 1) return;
  if (nopiv_) {
    // The diagonal row stages its jb×njl top block (local rows of
    // j_..j_+jb_-1 are contiguous — panels start on block boundaries) for
    // the column broadcast.
    if (in_diag_row_ && jb_ > 0) {
      const long il0 = a.rows().to_local(j_);
      device::copy_matrix_d2h(stream, static_cast<long>(jb_), njl_,
                              a.at(il0, jl0_), a.lda(), gathered_u_.data(),
                              static_cast<long>(jb_));
      gather_done_ = stream.record();
      gather_pending_ = true;
    }
    return;
  }
  T* window = a.at(0, jl0_);
  bool enqueued = false;
  if (!my_u_slots_.empty()) {
    // Column-major wire: no layout crossing in the pack, and every wire
    // column is an independently deliverable unit for the chunked
    // collective.
    device::pack_rows_cm(stream, window, a.lda(), my_u_slots_, njl_,
                         my_u_.data());
    enqueued = true;
  }
  if (in_diag_row_ && !disp_src_slots_.empty()) {
    // Displaced rows travel on the same wire: each destination owner's
    // rows become one nd_r×njl column-major segment of the scatterv send
    // buffer. disp_src_slots_ is grouped by owner (ascending dest within
    // a group), and disp_counts_ gives each group's length in whole rows.
    const std::size_t row_elems = static_cast<std::size_t>(njl_);
    std::size_t first = 0;
    for (std::size_t count : disp_counts_) {
      const std::size_t nd = count / (row_elems * sizeof(T));
      if (nd == 0) continue;
      const auto src =
          disp_src_slots_.begin() + static_cast<std::ptrdiff_t>(first);
      device::pack_rows_cm(
          stream, window, a.lda(),
          std::vector<long>(src, src + static_cast<std::ptrdiff_t>(nd)), njl_,
          disp_send_.data() + first * row_elems);
      first += nd;
    }
    enqueued = true;
  }
  // Record the fence immediately after the last pack: communicate() then
  // waits for exactly these kernels, not for whatever the driver queues on
  // the stream between gather and the communication hop.
  if (enqueued) {
    gather_done_ = stream.record();
    gather_pending_ = true;
  }
}

template <typename T>
void RowSwapperT<T>::communicate(comm::Communicator& col_comm,
                                 trace::PhaseLedger* ledger,
                                 device::Stream& stream, T* u, long ldu) {
  if (nprow_ == 1) return;
  if (gather_pending_) {
    gather_done_.wait();
    gather_pending_ = false;
  }
  if (nopiv_) {
    // Broadcast the packed top block down the process column. This is the
    // panel's U replication, not swap traffic: the time goes to Phase::Mpi
    // alone (zero row-swap wire seconds/bytes is the no-pivot invariant
    // the tests assert).
    if (njl_ > 0 && jb_ > 0) {
      const std::size_t cnt =
          static_cast<std::size_t>(jb_) * static_cast<std::size_t>(njl_);
      // Root reads what its d2h pack wrote (ordered by the event wait
      // above); receivers rewrite the staging block scatter() will read.
      device::HostAccessScope guard(
          hz_, "rowswap.nopiv_bcast",
          {in_diag_row_ ? device::span_read(gathered_u_.data(), cnt)
                        : device::span_write(gathered_u_.data(), cnt)});
      trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
      comm::bcast(col_comm, gathered_u_.data(), cnt, diag_root_);
    }
    return;
  }
  HPLX_CHECK(ldu >= jb_);
  // Host touches of device-visible staging: reads what the gather kernels
  // packed, writes what the scatter kernels will read. gather()'s event
  // wait above is the edge that makes the reads safe.
  device::HostAccessScope comm_guard(
      hz_, "rowswap.communicate",
      {device::span_read(my_u_.data(),
                         my_u_slots_.size() * static_cast<std::size_t>(njl_)),
       device::span_read(disp_send_.data(),
                         disp_src_slots_.size() *
                             static_cast<std::size_t>(njl_)),
       device::span_write(gathered_u_.data(),
                          static_cast<std::size_t>(jb_) *
                              static_cast<std::size_t>(njl_)),
       device::span_write(disp_recv_.data(),
                          my_disp_dest_slots_.size() *
                              static_cast<std::size_t>(njl_))});
  trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
  // U assembly: everyone ends up with all jb rows, rank-major, each rank's
  // segment an nr_r×njl column-major block. The indivisible wire unit of
  // a segment is one wire column of nr_r elements, so every delivered
  // chunk unpacks as whole columns and the result is bitwise-identical
  // for any chunk size. An empty window (all counts zero) still joins
  // the collective here and moves no bytes.
  const std::size_t row_bytes = static_cast<std::size_t>(njl_) * sizeof(T);
  std::vector<std::size_t> grains(u_counts_.size());
  for (std::size_t r = 0; r < u_counts_.size(); ++r)
    grains[r] = u_counts_[r] / std::max<std::size_t>(row_bytes, 1) * sizeof(T);
  auto on_chunk = [&](const comm::ChunkDelivery& d) {
    // The chunk is resident in gathered_u_[d.offset, d.offset+d.bytes) =
    // wire columns [c0, c0+nc) of rank d.rank's segment; enqueue its
    // scatter into the U strip while later chunks are still on the wire.
    // On the diagonal row the strip is A's top block: the packs that read
    // it were waited on above and run earlier on this same stream.
    // Packed positions are rank-major, so the rank's rows start at packed
    // index u_displs_[rank]/row_bytes.
    const std::size_t displ = u_displs_[static_cast<std::size_t>(d.rank)];
    const std::size_t p0 = displ / row_bytes;
    const std::size_t nr =
        u_counts_[static_cast<std::size_t>(d.rank)] / row_bytes;
    const std::size_t col_bytes = nr * sizeof(T);
    const std::size_t c0 = (d.offset - displ) / col_bytes;
    const long nc = static_cast<long>(d.bytes / col_bytes);
    std::vector<long> rows(
        u_dest_of_packed_.begin() + static_cast<std::ptrdiff_t>(p0),
        u_dest_of_packed_.begin() + static_cast<std::ptrdiff_t>(p0 + nr));
    device::unpack_rows_cm(
        stream, gathered_u_.data() + displ / sizeof(T) + c0 * nr,
        std::move(rows), nc, u + (jl0_ + static_cast<long>(c0)) * ldu, ldu);
  };
  {
    trace::SubPhaseScope wire_scope(ledger, trace::Phase::RsWire);
    comm::allgatherv_chunked(col_comm, my_u_.data(), u_counts_, u_displs_,
                             gathered_u_.data(),
                             static_cast<std::size_t>(chunk_bytes_), grains,
                             on_chunk, u_algo_);
  }

  // Displaced rows: scattered from the diagonal row to their destinations,
  // one column-major segment each, in messages of whole-row size under the
  // same chunk cap as the U assembly (so one message-size bound covers all
  // swap traffic).
  bool any_disp = false;
  for (std::size_t c : disp_counts_)
    if (c != 0) any_disp = true;
  if (any_disp) {
    comm::scatterv_bytes(col_comm, disp_send_.data(), disp_counts_,
                         disp_recv_.data(), diag_root_,
                         static_cast<std::size_t>(chunk_bytes_), row_bytes);
  }
  if (ledger != nullptr) {
    // Wire traffic of this window: the full rank-packed U assembly every
    // rank receives plus the displaced rows scattered from the root.
    std::size_t wb = 0;
    for (std::size_t c : u_counts_) wb += c;
    for (std::size_t c : disp_counts_) wb += c;
    ledger->add_wire_bytes(static_cast<long>(wb));
  }
}

template <typename T>
void RowSwapperT<T>::scatter(device::Stream& stream, DistMatrixT<T>& a,
                             T* u, long ldu) {
  if (njl_ == 0) return;
  // U has one home: the diagonal row's is A's own top block.
  HPLX_CHECK(in_diag_row_
                 ? u == a.at(a.rows().to_local(j_), 0) && ldu == a.lda()
                 : ldu >= jb_);
  if (nprow_ == 1) {
    // The window is resident: exchange its rows in place, and its top
    // block is U. No staging, so no fence either.
    if (!local_ipiv_.empty())
      device::laswp(stream, u + jl0_ * ldu, ldu, njl_, local_ipiv_);
    return;
  }
  if (nopiv_) {
    // The diagonal row's top block is U already; the other rows land the
    // broadcast block in their strip.
    if (!in_diag_row_ && jb_ > 0) {
      device::copy_matrix_h2d(stream, static_cast<long>(jb_), njl_,
                              gathered_u_.data(), static_cast<long>(jb_),
                              u + jl0_ * ldu, ldu);
    }
    // Fence for the next prepare()/communicate() rewrite of gathered_u_
    // (the h2d copy reads it through a pointer captured at enqueue time).
    scatter_done_ = stream.record();
    scatter_pending_ = true;
    return;
  }

  // Displaced rows land back in A. The U rows were already unpacked into
  // pivot order per chunk by communicate(), on this same stream.
  if (!my_disp_dest_slots_.empty()) {
    device::unpack_rows_cm(stream, disp_recv_.data(), my_disp_dest_slots_,
                           njl_, a.at(0, jl0_), a.lda());
  }

  // Fence for the next cycle's prepare(): the displaced-row unpack above
  // and communicate()'s chunk unpacks read disp_recv_ / gathered_u_
  // through pointers captured at enqueue time.
  scatter_done_ = stream.record();
  scatter_pending_ = true;
}

template class RowSwapperT<double>;
template class RowSwapperT<float>;

namespace {
std::atomic<int> skip_scatter_fence_scopes{0};
}  // namespace

SkipScatterFenceScope::SkipScatterFenceScope() {
  skip_scatter_fence_scopes.fetch_add(1);
}

SkipScatterFenceScope::~SkipScatterFenceScope() {
  skip_scatter_fence_scopes.fetch_sub(1);
}

bool SkipScatterFenceScope::active() {
  return skip_scatter_fence_scopes.load() > 0;
}

}  // namespace hplx::core
