#include "sim/hpl_sim.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "grid/block_cyclic.hpp"
#include "util/error.hpp"

namespace hplx::sim {

namespace {

/// The preconditions both entry points share.
void check_config(const NodeModel& node, const ClusterConfig& cfg) {
  // NaN fails both comparisons and an infinity one, so this also rejects
  // non-finite fractions.
  HPLX_CHECK_MSG(cfg.split_fraction >= 0.0 && cfg.split_fraction <= 1.0,
                 "split_fraction must be finite and in [0, 1], got "
                     << cfg.split_fraction);
  for (const auto& [field, value] :
       {std::pair{"nb", cfg.nb}, {"p", cfg.p}, {"q", cfg.q},
        {"nodes", cfg.nodes}, {"fact_threads", cfg.fact_threads}})
    HPLX_CHECK_MSG(value >= 1, field << " must be >= 1, got " << value);
  HPLX_CHECK_MSG(cfg.n >= cfg.nb,
                 "n must be >= nb, got n=" << cfg.n << " nb=" << cfg.nb);
  HPLX_CHECK_MSG(cfg.p_node * cfg.q_node == node.gcds || cfg.nodes == 1,
                 "p_node*q_node must equal the node's " << node.gcds
                                                        << " GCDs");
}

/// Per-iteration phase durations.
class IterationModel {
 public:
  IterationModel(const NodeModel& node, const ClusterConfig& cfg)
      : node_(node),
        cfg_(cfg),
        fact_(node.cpu),
        // A process column spans P/p_node nodes; communication inside it
        // rides the NIC as soon as that exceeds one node. Same for rows.
        col_(link(node.net, cfg.p > cfg.p_node)),
        row_(link(node.net, cfg.q > cfg.q_node)),
        // Element width on the wire / in HBM: FP16 moves fp32 bytes.
        eb_(cfg.precision == device::Precision::FP64 ? 8.0 : 4.0) {}

  /// Trailing DGEMM + DTRSM on `cols` local columns with `m` local
  /// trailing rows.
  double update_seconds(double m, double cols) const {
    if (m <= 0 || cols <= 0) return 0.0;
    return (1.0 + node_.gpu_sync_overhead) *
           (node_.gcd.gemm_seconds(static_cast<long>(m),
                                   static_cast<long>(cols), cfg_.nb, cfg_.precision) +
            node_.gcd.trsm_seconds(cfg_.nb, static_cast<long>(cols), cfg_.precision));
  }

  /// Device-side gather or scatter kernels for a row-swap window.
  double rs_device_seconds(double cols) const {
    if (cols <= 0) return 0.0;
    return node_.gcd.rowswap_seconds(cfg_.nb, static_cast<long>(cols),
                                     static_cast<std::size_t>(eb_));
  }

  /// MPI time of the row-swap (allgatherv of U + scatterv of displaced
  /// rows) over the process column, for `cols` local columns. The U
  /// assembly pattern follows the SWAP selection: spread-roll rides the
  /// ring (P-1 latency hops, bandwidth-optimal); binary exchange pays the
  /// same bytes in log2(P) hops — the HPL "mix" switches to it for narrow
  /// windows where latency dominates.
  double rs_comm_seconds(double cols) const {
    if (cols <= 0 || cfg_.p == 1) return 0.0;
    const double allgather = binexch(cols)
                                 ? std::ceil(std::log2(cfg_.p)) * col_.lat +
                                       ring_bytes(cols) / col_.bw
                                 : ring_seconds(cols);
    return allgather + ring_seconds(cols);
  }

  /// Seconds of the U-unpack leg that the pipelined broadcast hides
  /// behind the allgather's own wire time. With swap_chunk_bytes > 0 each
  /// delivered chunk's unpack is fused onto the stream while the ring
  /// moves the next chunk, so the unpack overlaps the wire up to
  /// min(unpack, wire) — minus the extra per-chunk message latency the
  /// finer-grained ring pays beyond its P-1 baseline hops. Binary
  /// exchange (and "mix" below the threshold) falls back to the blocking
  /// collective and earns no credit. The credit shortens the critical
  /// path only; device busy time is unchanged (overlapped, not removed).
  double rs_pipeline_credit_seconds(double cols) const {
    if (cfg_.swap_chunk_bytes <= 0 || cols <= 0 || cfg_.p == 1 ||
        binexch(cols))
      return 0.0;
    const double chunks = std::ceil(
        ring_bytes(cols) / static_cast<double>(cfg_.swap_chunk_bytes));
    const double extra_lat =
        std::max(0.0, chunks - static_cast<double>(cfg_.p - 1)) * col_.lat;
    return std::max(0.0, std::min(rs_device_seconds(cols),
                                  ring_seconds(cols)) - extra_lat);
  }

  /// FACT on the CPU.
  double fact_compute_seconds(double m) const {
    return fact_.seconds(static_cast<long>(std::max<double>(m, cfg_.nb)),
                         cfg_.nb, cfg_.fact_threads,
                         static_cast<std::size_t>(eb_));
  }

  /// The per-column pivot collectives of FACT.
  double fact_comm_seconds() const {
    if (cfg_.p == 1) return 0.0;
    const double hops = 2.0 * std::ceil(std::log2(cfg_.p));
    // Pivot slots stay 8 bytes in every precision mode (index + value
    // pairs, matching the real wire format).
    const double msg = 2.0 * cfg_.nb * 8.0 + 24.0;
    return cfg_.nb * hops * (col_.lat + msg / col_.bw);
  }

  /// Host<->device staging of the panel, one direction.
  double staging_seconds(double m) const {
    return node_.gcd.hcopy_seconds(
        static_cast<std::size_t>(m * cfg_.nb * eb_));
  }

  /// LBCAST along the process row (modified-ring first hop: the critical
  /// consumer is the look-ahead neighbour).
  double lbcast_seconds(double m_tail) const {
    if (cfg_.q == 1) return 0.0;
    const double bytes =
        (static_cast<double>(cfg_.nb) * cfg_.nb + m_tail * cfg_.nb +
         cfg_.nb) * eb_;
    return row_.lat + bytes / row_.bw;
  }

 private:
  struct Link {
    double lat, bw;  ///< seconds per message, bytes per second
  };

  static Link link(const NetworkModel& net, bool inter) {
    return inter ? Link{net.inter_lat_s, net.inter_bw_gbs * 1e9}
                 : Link{net.intra_lat_s, net.intra_bw_gbs * 1e9};
  }

  /// Whether the U assembly of a `cols`-wide window uses binary exchange.
  bool binexch(double cols) const {
    return cfg_.swap == core::RowSwapAlgo::BinaryExchange ||
           (cfg_.swap == core::RowSwapAlgo::Mix &&
            cols <= static_cast<double>(cfg_.swap_threshold));
  }

  /// Bytes of a `cols`-wide U block each rank receives from the others.
  double ring_bytes(double cols) const {
    const double frac = static_cast<double>(cfg_.p - 1) / cfg_.p;
    return static_cast<double>(cfg_.nb) * cols * eb_ * frac;
  }

  /// One pass of those bytes around the process-column ring.
  double ring_seconds(double cols) const {
    return (cfg_.p - 1) * col_.lat + ring_bytes(cols) / col_.bw;
  }

  const NodeModel& node_;
  const ClusterConfig& cfg_;
  FactModel fact_;
  Link col_;
  Link row_;
  double eb_;
};

enum Lane { kGpu, kCpu, kMpi, kXfer, kLanes };
constexpr const char* kLaneName[kLanes] = {"GPU", "CPU", "MPI", "XFER"};

/// One iteration's schedule: the diagram's events, the busy seconds of
/// each lane while they are laid out, and the record they sum to.
struct Schedule {
  std::vector<TimelineEvent> events;
  double busy[kLanes] = {};
  double end = 0.0;  ///< latest event end
  trace::IterationRecord rec;

  /// Place `dur` seconds of `label` on `lane` at `start`, shortened by a
  /// pipelined-broadcast `credit`; returns the end. The lane stays busy
  /// for the whole `dur`: overlapped work leaves only the critical path.
  double add(Lane lane, const char* label, double start, double dur,
             double credit = 0.0) {
    const double stop = start + dur - credit;
    busy[lane] += dur;
    if (stop > start) {
      events.push_back(TimelineEvent{kLaneName[lane], label, start, stop});
      end = std::max(end, stop);
    }
    return stop;
  }
};

/// The modeled schedule of iteration `iter`: Simple, Fig. 3 (look-ahead)
/// or Fig. 6 (split update), in the driver's enqueue order. Its events
/// draw the diagrams; its record is one row of Fig. 7.
Schedule schedule_iteration(const IterationModel& m, const ClusterConfig& cfg,
                            int iter) {
  // Exact block-cyclic geometry of the rank recording this iteration —
  // the diagonal-panel owner, as in the paper's Fig. 7 instrumentation.
  // Its local row/column counts vary iteration to iteration, which is
  // what gives the published curves their jagged texture.
  const long j = static_cast<long>(iter) * cfg.nb;
  const long j1 = std::min(j + cfg.nb, cfg.n);
  const int prow = grid::indxg2p(j, cfg.nb, cfg.p);
  const int pcol = grid::indxg2p(j, cfg.nb, cfg.q);
  const long mloc = grid::numroc(cfg.n, cfg.nb, prow, cfg.p);
  const double m_panel = static_cast<double>(
      mloc - grid::numroc(j, cfg.nb, prow, cfg.p));       // FACT rows
  const double m_tail = static_cast<double>(
      mloc - grid::numroc(j1, cfg.nb, prow, cfg.p));      // update rows
  const double nloc = static_cast<double>(
      grid::numroc(cfg.n + 1, cfg.nb, pcol, cfg.q) -
      grid::numroc(j1, cfg.nb, pcol, cfg.q));
  const double la = std::min(nloc, static_cast<double>(j1 - j));
  // The split is fixed for the run: the right section keeps its width
  // and the left section (between look-ahead and right) shrinks to zero.
  const double n2 =
      cfg.pipeline == core::PipelineMode::LookaheadSplit
          ? std::floor(static_cast<double>(cfg.n + 1) / cfg.q *
                       cfg.split_fraction / cfg.nb) * cfg.nb
          : 0.0;
  const double left = std::max(0.0, nloc - la - n2);

  const double xfer = m.staging_seconds(m_panel);
  const double lbcast = m.lbcast_seconds(m_tail);
  // The next panel's FACT chain from `t`: D2H, factor, pivot
  // collectives, H2D, LBCAST. Returns its end.
  auto host_chain = [&](Schedule& s, double t) {
    t = s.add(kXfer, "panel D2H", t, xfer);
    t = s.add(kCpu, "FACT", t, m.fact_compute_seconds(m_panel));
    t = s.add(kMpi, "FACT pivots", t, m.fact_comm_seconds());
    t = s.add(kXfer, "panel H2D", t, xfer);
    return s.add(kMpi, "LBCAST", t, lbcast);
  };
  // The whole window's row swap on the critical path: gather, column
  // collectives, then scatter + U unpack. Returns its end.
  auto exposed_row_swap = [&](Schedule& s, double t, const char* gather) {
    t = s.add(kGpu, gather, t, m.rs_device_seconds(nloc));
    t = s.add(kMpi, "RS comm", t, m.rs_comm_seconds(nloc));
    return s.add(kGpu, "RS scatter + U", t, 2.0 * m.rs_device_seconds(nloc),
                 m.rs_pipeline_credit_seconds(nloc));
  };

  Schedule s;
  if (cfg.pipeline == core::PipelineMode::Simple) {
    // Every phase on the critical path.
    const double t = exposed_row_swap(s, host_chain(s, 0.0), "RS gather");
    s.add(kGpu, "UPDATE", t, m.update_seconds(m_tail, nloc));
  } else if (n2 <= 0.0 || left <= 0.0) {
    // Fig. 3, also for a split run without a right section (as in the
    // driver) or past its left section: RS exposed up front; FACT/LBCAST
    // hidden behind the trailing update of the non-look-ahead columns.
    double t = exposed_row_swap(s, 0.0, "RS gather/scatter");
    t = s.add(kGpu, "UPDATE(look-ahead)", t, m.update_seconds(m_tail, la));
    s.add(kGpu, "UPDATE(rest)", t, m.update_seconds(m_tail, nloc - la));
    host_chain(s, t);
  } else {
    // Fig. 6: RS1 (left) hides under UPDATE2 (right), and the next
    // iteration's RS2 under UPDATE1 (left).
    const double d_gathers = m.rs_device_seconds(la + left);
    struct Marks {
      double pre, la_comm, rs1, gather_next, up1, rs2;  ///< ends
    };
    auto fig6 = [&](Schedule& f, double cr_la, double cr_left,
                    double cr_right) {
      Marks k;
      k.pre = f.add(kGpu, "gather LA+left / scatter RS2", 0.0,
                    d_gathers + 2.0 * m.rs_device_seconds(n2), cr_right);
      k.la_comm = f.add(kMpi, "RS(look-ahead) comm", d_gathers,
                        m.rs_comm_seconds(la));
      const double la_done = f.add(
          kGpu, "UPDATE(look-ahead)", std::max(k.pre, k.la_comm),
          m.rs_device_seconds(la) + m.update_seconds(m_tail, la), cr_la);
      const double fact_done = host_chain(f, la_done);
      const double up2_done = f.add(kGpu, "UPDATE2 (right)", la_done,
                                    m.update_seconds(m_tail, n2));
      k.rs1 = f.add(kMpi, "RS1 (left) comm", fact_done,
                    m.rs_comm_seconds(left));
      k.gather_next = f.add(kGpu, "gather RS2(next)",
                            std::max(up2_done, fact_done),
                            m.rs_device_seconds(n2));
      k.up1 = f.add(kGpu, "UPDATE1 (left)", std::max(k.gather_next, k.rs1),
                    2.0 * m.rs_device_seconds(left) +
                        m.update_seconds(m_tail, left),
                    cr_left);
      k.rs2 = f.add(kMpi, "RS2(next) comm", k.gather_next,
                    m.rs_comm_seconds(n2));
      return k;
    };
    // Each section's fused chunk unpacks run inside its own comm window,
    // but only shorten the path where the uncredited chain leaves that
    // window exposed (the device must be idle while the chunks arrive).
    // The right section's unpack sits in the first GPU block, under the
    // previous iteration's RS2 wire tail (same shape at fixed geometry).
    Schedule dry;
    const Marks z = fig6(dry, 0.0, 0.0, 0.0);
    fig6(s,
         std::min(m.rs_pipeline_credit_seconds(la),
                  std::max(0.0, z.la_comm - z.pre)),
         std::min(m.rs_pipeline_credit_seconds(left),
                  std::max(0.0, z.rs1 - z.gather_next)),
         std::min(m.rs_pipeline_credit_seconds(n2),
                  std::max(0.0, z.rs2 - z.up1)));
  }

  // Overlapped unpacks still occupy the device: it bounds the iteration.
  s.rec = {.iteration = iter, .column = j,
           .total_s = std::max(s.end, s.busy[kGpu]), .gpu_s = s.busy[kGpu],
           .fact_s = s.busy[kCpu], .mpi_s = s.busy[kMpi],
           .transfer_s = s.busy[kXfer]};
  return s;
}

}  // namespace

SimResult simulate_hpl(const NodeModel& node, const ClusterConfig& cfg) {
  check_config(node, cfg);
  const IterationModel m(node, cfg);

  SimResult out;
  double hidden_flops = 0.0, hidden_time = 0.0;
  for (int iter = 0; static_cast<long>(iter) * cfg.nb < cfg.n; ++iter) {
    const trace::IterationRecord rec = schedule_iteration(m, cfg, iter).rec;
    out.trace.iterations.push_back(rec);
    out.seconds += rec.total_s;
    out.gpu_seconds += rec.gpu_s;
    out.fact_seconds += rec.fact_s;
    out.mpi_seconds += rec.mpi_s;
    out.transfer_seconds += rec.transfer_s;

    if (rec.hidden()) {
      // Global flops retired this iteration ≈ 2·mg·ng·jb.
      const double mg = static_cast<double>(cfg.n - rec.column);
      const double jb = std::min<double>(cfg.nb, mg);
      hidden_flops += 2.0 * mg * mg * jb;
      hidden_time += rec.total_s;
    }
  }

  out.gflops = trace::hpl_flops(static_cast<double>(cfg.n)) / out.seconds / 1e9;
  out.hidden_regime_gflops =
      hidden_time > 0.0 ? hidden_flops / hidden_time / 1e9 : 0.0;
  return out;
}

std::vector<TimelineEvent> iteration_timeline(const NodeModel& node,
                                              const ClusterConfig& cfg,
                                              int iteration) {
  check_config(node, cfg);
  HPLX_CHECK_MSG(iteration >= 0 &&
                     static_cast<long>(iteration) * cfg.nb < cfg.n,
                 "iteration " << iteration << " is outside the run");
  return schedule_iteration(IterationModel(node, cfg), cfg, iteration).events;
}

}  // namespace hplx::sim
