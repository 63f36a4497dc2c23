#include "core/panel_bcast.hpp"

#include <cstring>

#include "util/error.hpp"

namespace hplx::core {

template <typename T>
void PanelDataT<T>::resize(int jb_, long ml2_) {
  jb = jb_;
  ml2 = ml2_;
  top.resize(static_cast<std::size_t>(jb_) * jb_);
  ipiv.resize(static_cast<std::size_t>(jb_));
  l2.resize(static_cast<std::size_t>(ml2_) * jb_);
}

namespace {
/// Wire format: [j, jb, ml2 as 3 doubles][ipiv as jb longs][top][l2].
/// The header and pivots keep 8-byte slots at every precision; top and l2
/// travel as raw T, so the fp32 panel's dominant payload is half the fp64
/// bytes. Sizes are deterministic on both sides, so the whole panel moves
/// as one message per hop of the broadcast algorithm. The buffer is sized
/// in doubles (payload bytes rounded up) to keep 8-byte alignment.
template <typename T>
std::size_t payload_bytes(int jb, long ml2) {
  return (static_cast<std::size_t>(jb) * jb +
          static_cast<std::size_t>(ml2) * jb) *
         sizeof(T);
}

template <typename T>
std::size_t wire_doubles(int jb, long ml2) {
  const std::size_t header = 3 + static_cast<std::size_t>(jb);  // + ipiv
  return header + (payload_bytes<T>(jb, ml2) + sizeof(double) - 1) /
                      sizeof(double);
}
}  // namespace

template <typename T>
void PanelDataT<T>::reserve(int max_jb, long max_ml2) {
  top.reserve(static_cast<std::size_t>(max_jb) * max_jb);
  ipiv.reserve(static_cast<std::size_t>(max_jb));
  l2.reserve(static_cast<std::size_t>(max_ml2) * max_jb);
  wire.reserve(wire_doubles<T>(max_jb, max_ml2));
}

template <typename T>
void panel_broadcast(comm::Communicator& row_comm, comm::BcastAlgo algo,
                     int root, PanelDataT<T>& panel,
                     trace::PhaseLedger* ledger,
                     const BcastFn* custom) {
  HPLX_CHECK(panel.jb >= 1);
  if (row_comm.size() == 1) return;

  const std::size_t count = wire_doubles<T>(panel.jb, panel.ml2);
  panel.wire.resize(count);

  const bool is_root = row_comm.rank() == root;
  if (is_root) {
    double* w = panel.wire.data();
    w[0] = static_cast<double>(panel.j);
    w[1] = static_cast<double>(panel.jb);
    w[2] = static_cast<double>(panel.ml2);
    std::memcpy(w + 3, panel.ipiv.data(),
                static_cast<std::size_t>(panel.jb) * sizeof(long));
    char* payload = reinterpret_cast<char*>(w + 3 + panel.jb);
    std::memcpy(payload, panel.top.data(), panel.top.size() * sizeof(T));
    if (!panel.l2.empty()) {  // empty l2 (ml2 == 0) has a null data()
      std::memcpy(payload + panel.top.size() * sizeof(T), panel.l2.data(),
                  panel.l2.size() * sizeof(T));
    }
  }

  {
    trace::PhaseScope comm_scope(ledger, trace::Phase::Mpi);
    trace::SubPhaseScope bcast_scope(ledger, trace::Phase::PanelBcast);
    if (custom != nullptr && *custom) {
      (*custom)(row_comm, panel.wire.data(), count * sizeof(double), root);
    } else {
      comm::bcast(row_comm, panel.wire.data(), count, root, algo);
    }
  }

  if (!is_root) {
    const double* w = panel.wire.data();
    HPLX_CHECK_MSG(static_cast<long>(w[0]) == panel.j &&
                       static_cast<int>(w[1]) == panel.jb &&
                       static_cast<long>(w[2]) == panel.ml2,
                   "panel broadcast shape mismatch: got (j=" << w[0]
                   << ", jb=" << w[1] << ", ml2=" << w[2] << "), expected (j="
                   << panel.j << ", jb=" << panel.jb << ", ml2=" << panel.ml2
                   << ")");
    panel.resize(panel.jb, panel.ml2);
    std::memcpy(panel.ipiv.data(), w + 3,
                static_cast<std::size_t>(panel.jb) * sizeof(long));
    const char* payload = reinterpret_cast<const char*>(w + 3 + panel.jb);
    std::memcpy(panel.top.data(), payload, panel.top.size() * sizeof(T));
    if (!panel.l2.empty()) {  // empty l2 (ml2 == 0) has a null data()
      std::memcpy(panel.l2.data(), payload + panel.top.size() * sizeof(T),
                  panel.l2.size() * sizeof(T));
    }
  }
}

template struct PanelDataT<double>;
template struct PanelDataT<float>;
template void panel_broadcast<double>(comm::Communicator&, comm::BcastAlgo,
                                      int, PanelDataT<double>&,
                                      trace::PhaseLedger*,
                                      const BcastFn*);
template void panel_broadcast<float>(comm::Communicator&, comm::BcastAlgo,
                                     int, PanelDataT<float>&,
                                     trace::PhaseLedger*,
                                     const BcastFn*);

}  // namespace hplx::core
