#include "core/update.hpp"

#include <algorithm>

#include "device/kernels.hpp"
#include "util/error.hpp"

namespace hplx::core {

template <typename T>
void enqueue_u_update(device::Stream& s, const PanelDataT<T>& panel, T* u,
                      long ldu, long jl0, long njl) {
  if (njl <= 0) return;
  device::trsm_left_lower_unit(s, panel.jb, njl, panel.top.data(),
                               static_cast<long>(panel.jb), u + jl0 * ldu,
                               ldu);
}

template <typename T>
void enqueue_tail_gemm(device::Stream& s, DistMatrixT<T>& a,
                       const PanelDataT<T>& panel, const T* u, long ldu,
                       long jl0, long njl, long tail_off) {
  if (njl <= 0) return;
  const long mtail = a.mloc() - tail_off;
  if (mtail <= 0) return;
  HPLX_CHECK_MSG(panel.ml2 == mtail,
                 "L2 rows (" << panel.ml2 << ") do not match trailing rows ("
                 << mtail << ") at panel j=" << panel.j);
  device::gemm(s, mtail, njl, static_cast<long>(panel.jb), T(-1),
               panel.l2.data(), panel.ml2, u + jl0 * ldu, ldu, T(1),
               a.at(tail_off, jl0), a.lda());
}

template <typename T>
BandSection enqueue_update_bands(device::StreamPool& pool,
                                 const device::Event& u_ready,
                                 DistMatrixT<T>& a, const PanelDataT<T>& panel,
                                 T* u, long ldu, long jl0, long njl,
                                 long tail_off, BandPlacement placement) {
  BandSection section;
  if (njl <= 0) return section;

  // The streams this section may use, primary first when allowed.
  const int pool_n = pool.size();
  const int first =
      (placement == BandPlacement::SparePrimary && pool_n > 1) ? 1 : 0;
  const int nuse =
      placement == BandPlacement::PrimaryOnly ? 1 : pool_n - first;

  // ceil(njl / nuse) columns per band: at most nuse bands, one per
  // stream, and fewer when the window is narrower than the pool.
  const long width = (njl + nuse - 1) / nuse;
  const long nbands = (njl + width - 1) / width;

  // Fence every non-primary stream on the U scatter once, up front. The
  // primary needs no fence: u_ready was recorded on its own queue, after
  // the scatter, so its band is ordered already.
  for (int i = std::max(first, 1); i < first + nuse; ++i)
    pool.stream(i).wait_event(u_ready);

  for (long b = 0; b < nbands; ++b) {
    device::Stream& s = pool.stream(first + static_cast<int>(b));
    const long c0 = b * width;
    const long bc = std::min(width, njl - c0);
    enqueue_u_update(s, panel, u, ldu, jl0 + c0, bc);
    enqueue_tail_gemm(s, a, panel, u, ldu, jl0 + c0, bc, tail_off);
    section.done.push_back(s.record());
  }
  return section;
}

#define HPLX_INSTANTIATE_UPDATE(T)                                            \
  template void enqueue_u_update<T>(device::Stream&, const PanelDataT<T>&,   \
                                    T*, long, long, long);                    \
  template void enqueue_tail_gemm<T>(device::Stream&, DistMatrixT<T>&,        \
                                     const PanelDataT<T>&, const T*, long,    \
                                     long, long, long);                       \
  template BandSection enqueue_update_bands<T>(                               \
      device::StreamPool&, const device::Event&, DistMatrixT<T>&,             \
      const PanelDataT<T>&, T*, long, long, long, long, BandPlacement);

HPLX_INSTANTIATE_UPDATE(double)
HPLX_INSTANTIATE_UPDATE(float)
#undef HPLX_INSTANTIATE_UPDATE

}  // namespace hplx::core
