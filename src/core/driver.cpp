#include "core/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "blas/threading.hpp"
#include "comm/collectives.hpp"
#include "core/backsolve.hpp"
#include "core/matrix.hpp"
#include "core/panel_bcast.hpp"
#include "core/pfact.hpp"
#include "core/refine.hpp"
#include "core/rowswap.hpp"
#include "core/steady_window.hpp"
#include "core/update.hpp"
#include "device/alloc.hpp"
#include "device/engine.hpp"
#include "device/kernels.hpp"
#include "grid/process_grid.hpp"
#include "trace/phase_ledger.hpp"
#include "util/error.hpp"
#include "util/large_alloc.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace hplx::core {

namespace {

constexpr int kTagTrace = 201;
constexpr int kTagHazard = 202;
constexpr int kTagComm = 203;

/// The whole factorization machine, templated over the working precision.
/// Solver<double> is classic HPL; Solver<float> is the HPL-MxP
/// low-precision pass whose solution run_hpl then polishes with fp64
/// iterative refinement (core/refine.hpp).
template <typename T>
class Solver {
 public:
  Solver(comm::Communicator& world, const HplConfig& cfg)
      : cfg_(cfg),
        grid_(world, cfg.p, cfg.q,
              cfg.row_major_grid ? grid::GridOrder::RowMajor
                                 : grid::GridOrder::ColMajor),
        dev_("gcd" + std::to_string(world.rank()), cfg.hbm_bytes,
             cfg.hazard_check),
        team_(std::max(1, cfg.fact_threads)),
        a_(dev_, grid_, team_, cfg.n, cfg.nb, cfg.seed, cfg.nrhs,
           cfg.diag_dominant ? static_cast<double>(cfg.n) : 0.0),
        pool_(dev_,
              std::clamp(cfg.update_streams, 1, trace::kMaxUpdateStreams),
              "compute"),
        compute_(pool_.primary()),
        data_(dev_, "data"),
        steady_(cfg, sizeof(T), grid_, dev_) {
    // Every pipeline mode runs the same schedule (DESIGN.md decision 3),
    // resolved here to two values: the look-ahead depth (0 for Simple, 1
    // otherwise) and csplit_, the local column where the right section
    // of the split update starts — nloc (no right section) unless the
    // mode is LookaheadSplit. nloc is equal within a process column, so
    // the right-section collectives stay uniform over col_comm.
    lookahead_ = cfg.pipeline != PipelineMode::Simple;
    csplit_ = a_.nloc();
    if (cfg.pipeline == PipelineMode::LookaheadSplit) {
      const long want_left = static_cast<long>(
          static_cast<double>(a_.nloc()) * (1.0 - cfg.split_fraction));
      csplit_ = (want_left / cfg.nb) * cfg.nb;
    }
    // Reserve only the staging the schedule uses: the look-ahead swapper
    // always (it carries the whole window without a right section), the
    // left/right swappers only for Fig. 6, and the shared U strip only
    // where some panel's diagonal row is another rank (u_of). All swap
    // staging is reserved once at its maximum size, so the per-iteration
    // prepare() calls reuse the same allocations instead of reallocating
    // (and re-zeroing) per panel.
    if (cfg.p > 1) {
      u_strip_ = dev_.alloc_elems<T>(
          static_cast<std::size_t>(cfg.nb) *
          static_cast<std::size_t>(std::max<long>(a_.nloc(), 1)));
    }
    std::vector<RowSwapperT<T>*> swappers = {&rs_la_};
    if (csplit_ < a_.nloc())
      swappers = {&rs_la_, &rs_left_, rs_right_, rs_right_next_};
    for (RowSwapperT<T>* rs : swappers) {
      rs->reserve(dev_.host_arena(), cfg.nb, a_.nloc(), cfg.p);
      rs->set_pipeline(cfg.swap_chunk_bytes);
      rs->set_pivot_mode(cfg.pivoting);
    }
    w_.reserve(static_cast<std::size_t>(std::max<long>(a_.mloc(), 1)) *
               static_cast<std::size_t>(cfg.nb));
    glob_.reserve(static_cast<std::size_t>(std::max<long>(a_.mloc(), 1)));
    pivots_.resize(
        static_cast<std::size_t>((cfg.n + cfg.nb - 1) / cfg.nb));
    // Keep the per-iteration bookkeeping off the hot path too: pivot rows
    // and trace records grow to known maxima, so size them up front.
    for (auto& p : pivots_) p.reserve(static_cast<std::size_t>(cfg.nb));
    my_records_.reserve(pivots_.size());
    // Buffer-hazard bridge: when both checkers run, collectives declare
    // their payload envelopes to this rank's hazard tracker, so a
    // collective touching a buffer that unfenced device work still uses
    // is caught at the comm layer.
    if (dev_.hazard() != nullptr) {
      for (comm::Communicator* c :
           {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
        if (comm::Verifier* v = c->fabric().verifier())
          v->set_hazard_tracker(c->rank(), dev_.hazard());
      }
    }
  }

  HplResult solve() {
    HplResult result;
    Timer wall;
    wall.start();

    factorize();

    // One end-of-factorization drain: backsolve reads A on the primary
    // stream, but the final iteration's band streams and the data stream's
    // panel write-back are only ordered against the primary queue — not
    // against the host reads below (per-stream clocks, verification).
    pool_.synchronize();
    data_.synchronize();

    // Backsolve U x = b̂ and (optionally) verify against regenerated data.
    x_ = backsolve(grid_, a_, compute_, &ledger_);

    result.seconds = wall.stop();
    result.gflops =
        trace::hpl_flops(static_cast<double>(cfg_.n)) / result.seconds / 1e9;

    if (cfg_.verify) {
      result.verify =
          verify_solution(grid_, cfg_.n, cfg_.nb, cfg_.seed, x_,
                          /*threshold=*/16.0, cfg_.nrhs, a_.diag_shift());
    }

    collect_totals(result);
    collect_trace(result);
    collect_hazards(result);
    steady_.collect(result.alloc);
    collect_comm(result);
    return result;
  }

  /// The whole-run phase totals: the ledger's final sums and the streams'
  /// busy clocks. solve() takes them after backsolve; the mixed-precision
  /// run takes them again after refinement, whose correction sweeps charge
  /// the same ledger and run on the same primary stream.
  void collect_totals(HplResult& result) {
    result.fact_seconds = ledger_.seconds(trace::Phase::Fact);
    result.mpi_seconds = ledger_.seconds(trace::Phase::Mpi);
    result.rs_wire_seconds = ledger_.seconds(trace::Phase::RsWire);
    result.pivot_seconds = ledger_.seconds(trace::Phase::Pivot);
    result.panel_bcast_seconds = ledger_.seconds(trace::Phase::PanelBcast);
    result.rs_wire_bytes = ledger_.rs_wire_bytes();
    result.transfer_seconds = data_.real_busy_seconds();
    result.stream_busy_seconds.clear();
    result.stream_real_seconds.clear();
    result.gpu_seconds = 0.0;
    for (int i = 0; i < pool_.size(); ++i) {
      result.stream_busy_seconds.push_back(pool_.stream(i).busy_seconds());
      result.stream_real_seconds.push_back(
          pool_.stream(i).real_busy_seconds());
      result.gpu_seconds += result.stream_real_seconds.back();
    }
  }

  // What the mixed-precision wrapper (run_hpl's IR loop) needs after the
  // low-precision solve: the factored matrix still in HBM, the replicated
  // pivot history, the low-precision solution, and the phase ledger the
  // refinement keeps charging.
  grid::ProcessGrid& grid() { return grid_; }
  DistMatrixT<T>& matrix() { return a_; }
  ThreadTeam& team() { return team_; }
  device::Stream& stream() { return compute_; }
  const std::vector<std::vector<long>>& pivots() const { return pivots_; }
  const std::vector<double>& solution() const { return x_; }
  trace::PhaseLedger& ledger() { return ledger_; }

 private:
  // ------------------------------------------------------------- helpers

  long col_of(long g) const { return a_.col_offset(g); }
  long row_of(long g) const { return a_.row_offset(g); }
  int jb_at(long j) const {
    return static_cast<int>(std::min<long>(cfg_.nb, cfg_.n - j));
  }
  bool my_col(long j) const {
    return a_.cols().owner(j) == grid_.mycol();
  }
  bool my_row(long j) const {
    return a_.rows().owner(j) == grid_.myrow();
  }

  /// Where U of panel `j` lives (DESIGN.md decision 3): a jb×nloc strip
  /// whose column c belongs to local column c of A. The diagonal process
  /// row keeps it in A's own rows j..j+jb-1; every other row uses the one
  /// shared strip. Sharing is safe because the sections of an iteration
  /// are column-disjoint, a panel's right section never starts left of
  /// its predecessor's, and a strip column range is rewritten only on the
  /// primary stream after the bands that read it have been joined there.
  struct UStrip {
    T* u;
    long ld;
  };
  UStrip u_of(long j) {
    if (my_row(j)) return {a_.at(row_of(j), 0), a_.lda()};
    return {u_strip_.template data_as<T>(), cfg_.nb};
  }

  /// Every rank sees every panel's pivots (they ride the row broadcast);
  /// keep them for the refinement loop's swap replay.
  void record_pivots(const PanelDataT<T>& panel) {
    pivots_[static_cast<std::size_t>(panel.j / cfg_.nb)].assign(
        panel.ipiv.begin(), panel.ipiv.begin() + panel.jb);
  }

  /// Stage the panel to the host, factor it with the thread team, write
  /// the factors back, and fill `panel` for broadcasting.
  void fact_and_pack(long j, int jb, PanelDataT<T>& panel) {
    const long ii = row_of(j);
    const long mw = a_.mloc() - ii;
    const long jlp = col_of(j);
    const bool is_curr = my_row(j);
    const long ml2 = mw - (is_curr ? jb : 0);

    glob_.resize(static_cast<std::size_t>(std::max<long>(mw, 1)));
    for (long i = 0; i < mw; ++i)
      glob_[static_cast<std::size_t>(i)] =
          a_.rows().to_global(ii + i, grid_.myrow());

    const long ldw = std::max<long>(mw, 1);
    w_.resize(static_cast<std::size_t>(ldw) * jb);
    if (mw > 0) {
      device::copy_matrix_d2h(data_, mw, jb, a_.at(ii, jlp), a_.lda(),
                              w_.data(), ldw);
    }
    // Unconditional even when mw == 0 (nothing staged): the synchronize is
    // also the ordering edge the guard below relies on — data_'s queue
    // waited on the look-ahead section, and bands read panel.top on every
    // rank with local columns, including row-less ones.
    data_.synchronize();

    // Host rewrite of the recycled panel double-buffer and workspace: the
    // previous iteration's bands read this buffer's top/l2 through raw
    // pointers. The data_ synchronize above is the ordering edge (its
    // queue waited on the look-ahead section, which the primary joined
    // behind everything older), so under the tracker this is silent in a
    // correctly fenced schedule.
    device::HostAccessScope fact_guard(
        dev_.hazard(), "driver.fact",
        {device::span_write(w_.data(), w_.size()),
         device::span_write(panel.top.data(), panel.top.size()),
         device::span_write(panel.l2.data(), panel.l2.size())});

    panel.j = j;
    panel.resize(jb, ml2);
    PanelTaskT<T> task;
    task.j = j;
    task.jb = jb;
    task.w = w_.data();
    task.mw = mw;
    task.ldw = ldw;
    task.glob = glob_.data();
    task.top = panel.top.data();
    task.ldtop = jb;
    task.ipiv = panel.ipiv.data();
    task.is_curr = is_curr;
    task.tile_rows = cfg_.nb;
    // col_comm ranks are process rows, so the diagonal block's owner row
    // is its broadcast root for the no-pivot factorization.
    task.diag_root = a_.rows().owner(j);
    task.scratch = &dev_.host_arena();

    panel_factorize(grid_.col_comm(), cfg_, team_, task, &ledger_);

    // Write the factors back: L2 rows below the top block, and (on the
    // diagonal row) the factored top block itself.
    const long l2_start = is_curr ? jb : 0;
    if (ml2 > 0) {
      device::copy_matrix_h2d(data_, ml2, jb, w_.data() + l2_start, ldw,
                              a_.at(ii + l2_start, jlp), a_.lda());
    }
    if (is_curr) {
      device::copy_matrix_h2d(data_, jb, jb, panel.top.data(), jb,
                              a_.at(ii, jlp), a_.lda());
    }
    data_.synchronize();

    // Pack L2 for the row broadcast (ld mw -> ld ml2). ml2 can be zero on
    // ranks that own no rows below the panel (e.g. a one-panel problem on a
    // taller grid) — an empty l2 has a null data(), so skip the pack.
    for (int c = 0; ml2 > 0 && c < jb; ++c) {
      std::memcpy(panel.l2.data() + static_cast<std::size_t>(c) * ml2,
                  w_.data() + l2_start + static_cast<std::size_t>(c) * ldw,
                  static_cast<std::size_t>(ml2) * sizeof(T));
    }
  }

  /// Produce panel `j` in `panel`: the owning process column factors it;
  /// every other rank sizes the buffer to receive it, after fencing the
  /// previous update's bands, which may still read this recycled
  /// double-buffer on spare streams (nothing to fence at panel 0).
  void factor_or_receive(long j, PanelDataT<T>& panel) {
    const int jb = jb_at(j);
    if (my_col(j)) {
      fact_and_pack(j, jb, panel);
      return;
    }
    prev_update_.host_wait();
    device::HostAccessScope recv_guard(
        dev_.hazard(), "driver.panel_recv",
        {device::span_write(panel.top.data(), panel.top.size()),
         device::span_write(panel.l2.data(), panel.l2.size())});
    panel.j = j;
    panel.resize(jb, a_.mloc() - row_of(j + jb));
  }

  /// Broadcast `panel` along the process row from its owning column and
  /// keep its pivots.
  void broadcast_panel(PanelDataT<T>& panel) {
    panel_broadcast(grid_.row_comm(), cfg_.bcast, a_.cols().owner(panel.j),
                    panel, &ledger_, &cfg_.custom_bcast);
    record_pivots(panel);
  }

  /// One sample of the clocks an iteration record is the difference of:
  /// wall time, this rank's phase ledger, and the streams' wall-clock busy
  /// clocks; the modeled stream clock stays out of the records. The
  /// stream clocks advance as ops *complete*, so with overlap enabled an
  /// op may be charged to the iteration that drained it rather than the
  /// one that enqueued it — the whole-run sums are exact either way.
  struct ClockSample {
    double wall = 0.0;
    trace::PhaseLedger phases;
    double transfer = 0.0;
    double real[trace::kMaxUpdateStreams] = {};
  };

  ClockSample sample_clocks() {
    ClockSample c;
    c.wall = wall_seconds();
    c.phases = ledger_;
    c.transfer = data_.real_busy_seconds();
    for (int i = 0; i < pool_.size(); ++i)
      c.real[i] = pool_.stream(i).real_busy_seconds();
    return c;
  }

  /// Iteration `iter` (panel column `j`) is recorded by the rank owning
  /// its diagonal block, as the clocks now minus their sample `start`.
  void record_iteration(long j, int iter, const ClockSample& start) {
    if (!my_col(j) || !my_row(j)) return;
    const ClockSample end = sample_clocks();
    const trace::PhaseLedger d = end.phases.since(start.phases);
    trace::IterationRecord rec;
    rec.iteration = iter;
    rec.column = j;
    rec.total_s = end.wall - start.wall;
    rec.fact_s = d.seconds(trace::Phase::Fact);
    rec.mpi_s = d.seconds(trace::Phase::Mpi);
    rec.transfer_s = end.transfer - start.transfer;
    rec.rs_wire_s = d.seconds(trace::Phase::RsWire);
    rec.pivot_s = d.seconds(trace::Phase::Pivot);
    rec.panel_bcast_s = d.seconds(trace::Phase::PanelBcast);
    rec.update_streams = pool_.size();
    for (int i = 0; i < pool_.size(); ++i) {
      rec.stream_real_s[i] = end.real[i] - start.real[i];
      rec.gpu_s += rec.stream_real_s[i];
    }
    my_records_.push_back(rec);
  }

  // ------------------------------------------------------------ schedule

  /// The factorization loop of every pipeline mode: a prologue factors and
  /// broadcasts panel 0 (and communicates its right-section swap when the
  /// split update has one), then each iteration updates its trailing
  /// window and produces the next panel, so iteration j's record carries
  /// the FACT of panel j+1 in every mode.
  void factorize() {
    PanelDataT<T> panel_a, panel_b;
    panel_a.reserve(cfg_.nb, a_.mloc());
    panel_b.reserve(cfg_.nb, a_.mloc());
    PanelDataT<T>* cur = &panel_a;
    PanelDataT<T>* nxt = &panel_b;

    factor_or_receive(0, *cur);
    broadcast_panel(*cur);
    if (csplit_ < a_.nloc()) communicate_right(0, gather_right(0, *cur));

    int iter = 0;
    for (long j = 0; j < cfg_.n; j += cfg_.nb, ++iter) {
      const ClockSample start = sample_clocks();
      iterate(j, *cur, *nxt);
      // No host synchronize here: each iteration joins its banded sections
      // back into the primary stream, so the next iteration's gathers are
      // event-ordered behind this one's update while the host runs ahead
      // (the driver-level fan-in the multi-stream schedule relies on).
      std::swap(cur, nxt);
      record_iteration(j, iter, start);
      steady_.mark(iter);
    }
    steady_.finish(iter);

    // Drain the pool before the panel double-buffers (locals of this
    // function) are destroyed: the last iteration's bands still read
    // cur->top / cur->l2 through raw pointers captured at enqueue time.
    pool_.synchronize();
  }

  void prepare_and_gather(RowSwapperT<T>& rs, const RowSwapPlan& plan,
                          long c0, long c1) {
    rs.prepare(plan, a_, grid_.myrow(), c0, c1 - c0, cfg_.swap,
               cfg_.swap_threshold);
    rs.gather(compute_, a_);
  }

  /// RS2 stage 1: gather panel `j`'s right-section rows into the next
  /// right swapper. Returns where that right section starts.
  long gather_right(long j, const PanelDataT<T>& panel) {
    const int jb = jb_at(j);
    build_rowswap_plan(j, jb, panel.ipiv.data(), plan_next_);
    const long start = std::max<long>(csplit_, col_of(j + jb));
    prepare_and_gather(*rs_right_next_, plan_next_, start, a_.nloc());
    return start;
  }

  /// RS2 stage 2: communicate panel `j`'s gathered right section into its
  /// U strip; the iteration of panel `j` scatters it.
  void communicate_right(long j, long start) {
    const UStrip u = u_of(j);
    rs_right_next_->communicate(grid_.col_comm(), &ledger_, compute_, u.u,
                                u.ld);
    right_start_ = start;
    pending_right_ = true;
    std::swap(rs_right_, rs_right_next_);
  }

  /// One iteration at panel `j` over three ranges of the local trailing
  /// window [jl0, nloc):
  ///   look-ahead [jl0, left_start)          the next panel's columns
  ///                                         (look-ahead depth 1 only)
  ///   left       [left_start, right_start)
  ///   right      [right_start, nloc)        swap communicated last
  ///                                         iteration (split update)
  /// Without a right section (Fig. 3) the look-ahead band and the left
  /// section share one swap, and FACT/LBCAST of the next panel hides
  /// behind the left update — or, at depth 0, waits for the whole update
  /// to drain. With one (Fig. 6) the right update (UPDATE2) hides FACT,
  /// LBCAST and the deferred left swap (RS1), and the left update
  /// (UPDATE1) hides the next panel's right swap (RS2). When the right
  /// section has reached jl0 it covers the whole window and the iteration
  /// runs the Fig. 3 shape on its pre-communicated U.
  void iterate(long j, PanelDataT<T>& cur, PanelDataT<T>& nxt) {
    const int jb = jb_at(j);
    const long next = j + jb;
    const bool has_next = next < cfg_.n;
    const int jb_next = has_next ? jb_at(next) : 0;
    const long nloc = a_.nloc();
    const long jl0 = col_of(next);
    const long left_start =
        (lookahead_ && has_next && my_col(next)) ? col_of(next + jb_next)
                                                 : jl0;
    const long la_cols = left_start - jl0;
    const bool pending = pending_right_;
    pending_right_ = false;
    const bool split = pending && jl0 < right_start_;
    const long right_start = split ? right_start_ : nloc;
    const long tail = row_of(next);
    // One U strip carries every section of this panel.
    const UStrip u = u_of(j);
    auto bands = [&](const device::Event& ready, long c0, long c1,
                     BandPlacement where) {
      return enqueue_update_bands(pool_, ready, a_, cur, u.u, u.ld, c0,
                                  c1 - c0, tail, where);
    };

    // Swap stage: assemble U of the look-ahead band, and of the left
    // section too unless its swap is deferred.
    std::optional<device::Event> right_ready;
    BandSection right;
    if (pending && !split) {
      HPLX_CHECK(right_start_ == jl0);
      rs_right_->scatter(compute_, a_, u.u, u.ld);
    } else {
      build_rowswap_plan(j, jb, cur.ipiv.data(), plan_);
      prepare_and_gather(rs_la_, plan_, jl0, split ? left_start : nloc);
      if (split) {
        // Gather the left rows now; scatter the pre-communicated right
        // rows (they must land before UPDATE2 reads the window).
        prepare_and_gather(rs_left_, plan_, left_start, right_start);
        rs_right_->scatter(compute_, a_, u.u, u.ld);
        right_ready = compute_.record();
        // UPDATE2 — the work that hides everything below. With spare
        // streams it launches *now*, off the primary, so the device is
        // busy during the look-ahead communication; single-stream pools
        // keep the seed order (look-ahead first, or its completion event
        // — and with it FACT — would wait behind the whole right section).
        if (pool_.size() > 1)
          right = bands(*right_ready, right_start, nloc,
                        BandPlacement::SparePrimary);
      }
      rs_la_.communicate(grid_.col_comm(), &ledger_, compute_, u.u, u.ld);
      rs_la_.scatter(compute_, a_, u.u, u.ld);
    }
    const device::Event u_ready = compute_.record();

    // The look-ahead band runs on the primary alone, so its completion
    // event fires the moment it finishes and FACT starts while the rest
    // of the window still computes (Fig. 3). A left section sharing the
    // swap fans out across the whole pool.
    const BandSection la =
        bands(u_ready, jl0, left_start, BandPlacement::PrimaryOnly);
    BandSection left;
    if (!split) {
      left = bands(u_ready, left_start, nloc, BandPlacement::Spread);
    } else if (pool_.size() == 1) {
      right = bands(*right_ready, right_start, nloc,
                    BandPlacement::SparePrimary);
    }

    // The next panel: its owner factors it once the look-ahead band is
    // done (depth 1) or the whole update has drained (depth 0).
    if (la_cols > 0) {
      for (const device::Event& ev : la.done) data_.wait_event(ev);
      factor_or_receive(next, nxt);
    }
    if (!split) left.join(compute_);
    if (!lookahead_) pool_.synchronize();
    if (has_next && la_cols == 0) factor_or_receive(next, nxt);
    if (has_next) broadcast_panel(nxt);

    if (split) {
      // RS1, hidden by UPDATE2 (its rows were gathered up front). The
      // fused unpacks land on the primary and only write the left columns
      // of the strip, which nothing reads until UPDATE1's bands (gated on
      // left_ready below) — UPDATE2 reads the right columns.
      rs_left_.communicate(grid_.col_comm(), &ledger_, compute_, u.u, u.ld);
      // After UPDATE2: gather the next panel's right-section rows (RS2).
      // The gather reads columns UPDATE2 writes, and UPDATE2's bands live
      // on other streams now — join them into the primary first.
      right.join(compute_);
      const long next_right = has_next ? gather_right(next, nxt) : nloc;
      // UPDATE1: scatter the RS1 rows, update across the pool.
      rs_left_.scatter(compute_, a_, u.u, u.ld);
      const device::Event left_ready = compute_.record();
      left = bands(left_ready, left_start, right_start,
                   BandPlacement::Spread);
      // RS2 communication, hidden by UPDATE1. Its fused unpacks write the
      // next panel's strip columns [next_right, nloc): right of every
      // column UPDATE1 reads, and enqueued after right.join(compute_), so
      // ordered behind this iteration's reads of those columns.
      if (has_next) communicate_right(next, next_right);
      left.join(compute_);
    }

    prev_update_ = la;
    for (const BandSection* sec : {&right, &left})
      prev_update_.done.insert(prev_update_.done.end(), sec->done.begin(),
                               sec->done.end());
  }

  // ------------------------------------------------------ rank-0 gathers

  /// Gather every rank's records onto rank 0, appended in rank order
  /// after rank 0's own; the other ranks get their own records back.
  /// Records are trivially copyable and travel as raw bytes.
  template <typename Record>
  std::vector<Record> gather_to_root(std::vector<Record> mine, int tag) {
    comm::Communicator& world = grid_.all_comm();
    if (world.rank() != 0) {
      const long count = static_cast<long>(mine.size());
      world.send(&count, 1, 0, tag);
      if (count > 0) world.send(mine.data(), mine.size(), 0, tag);
      return mine;
    }
    for (int r = 1; r < world.size(); ++r) {
      long c = 0;
      world.recv(&c, 1, r, tag);
      const std::size_t have = mine.size();
      mine.resize(have + static_cast<std::size_t>(c));
      if (c > 0)
        world.recv(mine.data() + have, static_cast<std::size_t>(c), r, tag);
    }
    return mine;
  }

  /// The per-iteration trace lives on rank 0 only, in iteration order.
  void collect_trace(HplResult& result) {
    std::vector<trace::IterationRecord> all =
        gather_to_root(my_records_, kTagTrace);
    if (grid_.all_comm().rank() != 0) return;
    std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
      return x.iteration < y.iteration;
    });
    result.trace.iterations = std::move(all);
  }

  /// Every rank's deduplicated hazard records. No-op when checking is off.
  void collect_hazards(HplResult& result) {
    device::HazardTracker* hz = dev_.hazard();
    if (hz == nullptr) return;
    result.hazard_checked = true;
    result.hazards = gather_to_root(hz->report(), kTagHazard);
  }

  /// Every grid fabric's deduplicated comm-verifier records. The
  /// double-barrier protocol makes the end-of-run orphan audit exact:
  /// after the first barrier all solve traffic is consumed (entering the
  /// barrier implies every prior receive finished, so anything still
  /// queued is a leak), and each fabric's rank 0 audits it; the second
  /// barrier holds ranks back until every audit is done, so the gather's
  /// own messages cannot be mistaken for orphans. The world fabric the
  /// grid split from is appended by run_hpl — its verifier outlives this
  /// solver.
  void collect_comm(HplResult& result) {
    comm::Communicator& world = grid_.all_comm();
    if (world.fabric().verifier() == nullptr) return;
    result.comm_checked = true;
    comm::barrier(world);
    std::vector<trace::ViolationRecord> mine;
    std::vector<const comm::Fabric*> audited;
    for (comm::Communicator* c :
         {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
      if (c->rank() != 0) continue;
      const comm::Fabric* f = &c->fabric();
      if (std::find(audited.begin(), audited.end(), f) != audited.end())
        continue;
      audited.push_back(f);
      comm::Verifier* v = c->fabric().verifier();
      if (v == nullptr) continue;
      v->check_orphans();
      const auto recs = v->report();
      mine.insert(mine.end(), recs.begin(), recs.end());
    }
    comm::barrier(world);
    result.comm_violations = gather_to_root(std::move(mine), kTagComm);
  }

  const HplConfig& cfg_;
  grid::ProcessGrid grid_;
  device::Device dev_;
  /// FACT's thread team; it also builds a_ and runs refinement's residual
  /// passes, so it is constructed first.
  ThreadTeam team_;
  DistMatrixT<T> a_;
  /// Trailing-update stream pool; pool_.primary() carries the row-swap
  /// gather/scatter chain and U assembly (the legacy "compute" stream),
  /// the others receive fanned-out update bands.
  device::StreamPool pool_;
  device::Stream& compute_;  ///< alias: pool_.primary()
  device::Stream data_;
  /// This rank's phase sums: every timed step charges it, the iteration
  /// records are differences of it, and the HplResult totals are its
  /// final values.
  trace::PhaseLedger ledger_;
  SteadyWindow steady_;

  /// Schedule parameters resolved from cfg.pipeline (constructor).
  bool lookahead_ = true;  ///< look-ahead depth 1 (false: depth 0)
  long csplit_ = 0;        ///< right-section start; nloc = no right section

  /// Swap staging: the look-ahead swapper carries the whole window when
  /// there is no right section; the split update adds the deferred left
  /// swap and a right pair (one scattering this iteration's pre-
  /// communicated section while the other gathers the next panel's).
  /// All of them land U in u_of(j): A itself, or the shared strip (only
  /// leased when P > 1).
  device::Buffer u_strip_;
  RowSwapperT<T> rs_la_, rs_left_, rs_right_a_, rs_right_b_;
  RowSwapperT<T>* rs_right_ = &rs_right_a_;
  RowSwapperT<T>* rs_right_next_ = &rs_right_b_;
  /// Per-iteration row-swap plans, rebuilt in place (capacity persists
  /// across iterations, so planning allocates nothing once warm).
  RowSwapPlan plan_, plan_next_;
  /// The right section whose swap was communicated last iteration:
  /// [right_start_, nloc), valid while pending_right_.
  long right_start_ = 0;
  bool pending_right_ = false;
  /// Completion events of the previous iteration's update sections: the
  /// fence non-owner ranks take before recycling the panel double-buffer.
  BandSection prev_update_;

  LargeVector<T> w_;
  std::vector<long> glob_;
  std::vector<std::vector<long>> pivots_;  ///< per-panel global pivot rows
  std::vector<double> x_;                  ///< backsolve solution (fp64)
  std::vector<trace::IterationRecord> my_records_;
};

/// Adds the whole-run phase totals (the fields Solver::collect_totals
/// fills) of `from` into `into`: an fp64 fallback reports the failed
/// low-precision attempt's work beside its own.
void add_totals(HplResult& into, const HplResult& from) {
  into.fact_seconds += from.fact_seconds;
  into.mpi_seconds += from.mpi_seconds;
  into.rs_wire_seconds += from.rs_wire_seconds;
  into.pivot_seconds += from.pivot_seconds;
  into.panel_bcast_seconds += from.panel_bcast_seconds;
  into.rs_wire_bytes += from.rs_wire_bytes;
  into.transfer_seconds += from.transfer_seconds;
  into.gpu_seconds += from.gpu_seconds;
  // Both solves size their update pool from the same config.
  HPLX_CHECK(into.stream_busy_seconds.size() ==
                 from.stream_busy_seconds.size() &&
             into.stream_real_seconds.size() ==
                 from.stream_real_seconds.size());
  for (std::size_t i = 0; i < into.stream_busy_seconds.size(); ++i) {
    into.stream_busy_seconds[i] += from.stream_busy_seconds[i];
    into.stream_real_seconds[i] += from.stream_real_seconds[i];
  }
}

/// Mixed-precision run: low-precision factorization + backsolve, fp64
/// iterative refinement, fp64 re-run as the correctness safety net. The
/// reported wall time covers everything the mode actually executed (HPL-MxP
/// style: fp64-equivalent flops over the mixed-precision time).
HplResult run_mxp(comm::Communicator& world, const HplConfig& cfg) {
  HplConfig lp = cfg;
  lp.verify = false;  // verification happens on the *refined* solution

  Timer wall;
  wall.start();
  HplResult attempt;  // the low-precision run, refinement included
  {
    Solver<float> solver(world, lp);
    HplResult result = solver.solve();
    RefineResult rr = iterative_refine(
        solver.grid(), solver.matrix(), solver.team(), solver.stream(),
        solver.pivots(), solver.solution(), cfg.ir_max_iters, cfg.ir_tol,
        &solver.ledger());
    // Refinement was the fp64 source's last reader; freeing it is part of
    // the timed solve.
    solver.matrix().release_fp64_source();
    solver.collect_totals(result);
    result.ir_iters = rr.iters;
    if (rr.converged) {
      result.seconds = wall.stop();
      result.gflops = trace::hpl_flops(static_cast<double>(cfg.n)) /
                      result.seconds / 1e9;
      if (cfg.verify) {
        result.verify = verify_solution(solver.grid(), cfg.n, cfg.nb,
                                        cfg.seed, rr.x, /*threshold=*/16.0,
                                        cfg.nrhs,
                                        solver.matrix().diag_shift());
      }
      return result;
    }
    attempt = std::move(result);
  }

  // Refinement stalled or diverged: redo the whole thing in fp64. The
  // failed low-precision attempt stays on the clock and in the totals.
  HplConfig full = cfg;
  full.precision = PrecisionMode::FP64;
  Solver<double> solver(world, full);
  HplResult result = solver.solve();
  add_totals(result, attempt);
  result.ir_iters = attempt.ir_iters;
  result.ir_fallback = true;
  result.seconds = wall.stop();
  result.gflops =
      trace::hpl_flops(static_cast<double>(cfg.n)) / result.seconds / 1e9;
  return result;
}

}  // namespace

HplResult run_hpl(comm::Communicator& world, const HplConfig& cfg) {
  HPLX_CHECK_MSG(world.size() == cfg.p * cfg.q,
                 "run_hpl needs " << cfg.p * cfg.q << " ranks, got "
                 << world.size());
  HPLX_CHECK(cfg.n >= 1 && cfg.nb >= 1 && cfg.nrhs >= 1);
  // HPL.dat range-checks the split fraction, but a config built in code
  // reaches the right-section cast directly: NaN there is undefined, and
  // values outside [0, 1] would be clamped silently.
  HPLX_CHECK_MSG(std::isfinite(cfg.split_fraction) &&
                     cfg.split_fraction >= 0.0 && cfg.split_fraction <= 1.0,
                 "split_fraction = " << cfg.split_fraction
                 << " is not a finite value in [0, 1]");
  // Same for refinement's knobs: a NaN tolerance never passes, so every
  // MxP run would refine to its budget and then fall back to fp64.
  HPLX_CHECK_MSG(std::isfinite(cfg.ir_tol) && cfg.ir_tol > 0.0,
                 "ir_tol = " << cfg.ir_tol << " is not a finite value > 0");
  HPLX_CHECK_MSG(cfg.ir_max_iters >= 0,
                 "ir_max_iters = " << cfg.ir_max_iters
                 << " must not be negative");
  HPLX_CHECK_MSG(cfg.swap_tile_cols > 0,
                 "swap_tile_cols = " << cfg.swap_tile_cols
                 << " must be positive");
  HPLX_CHECK_MSG(cfg.swap_chunk_bytes > 0,
                 "swap_chunk_bytes = " << cfg.swap_chunk_bytes
                 << " must be positive");
  // The multi-RHS solve (backsolve, verify, refine) assumes every RHS
  // column shares the trailing column block with classic column N, so one
  // process column owns the whole b̂ panel contiguously.
  HPLX_CHECK_MSG(cfg.n / cfg.nb ==
                     (cfg.n + static_cast<long>(cfg.nrhs) - 1) / cfg.nb,
                 "nrhs = " << cfg.nrhs << " spills past the trailing column "
                 "block (n = " << cfg.n << ", nb = " << cfg.nb << ")");
  // Communication verifier: enabled on the world fabric here, before any
  // split — Communicator::split propagates enablement to every child
  // fabric (row, column, dup), so the whole comm tree of the run is
  // checked. Idempotent; every rank calls it.
  if (cfg.comm_check || comm::comm_check_env_enabled())
    world.fabric().enable_verifier(comm::Verifier::Config::from_env());
  // BLAS and engine knobs are process-global: set_num_threads is a no-op
  // when the team already has the requested size, and every rank installs
  // the same engine configuration.
  if (cfg.blas_threads > 0) blas::set_num_threads(cfg.blas_threads);
  device::configure_engine({cfg.swap_tile_cols, cfg.kernel_threads});
  HplResult result;
  if (cfg.precision != PrecisionMode::FP64) {
    result = run_mxp(world, cfg);
  } else {
    Solver<double> solver(world, cfg);
    result = solver.solve();
  }
  // Append the world fabric's own verifier records (mismatched splits,
  // stray world traffic) — the grid fabrics were collected inside
  // solve(), but the world fabric outlives the solver. No orphan audit
  // here: the caller may legitimately keep world traffic in flight
  // around the solve; ~Fabric audits at end of life.
  if (comm::Verifier* wv = world.fabric().verifier()) {
    result.comm_checked = true;
    if (world.rank() == 0) {
      const auto recs = wv->report();
      result.comm_violations.insert(result.comm_violations.end(),
                                    recs.begin(), recs.end());
    }
  }
  return result;
}

}  // namespace hplx::core
