#include "core/matrix.hpp"

#include <type_traits>

#include "rng/matgen.hpp"
#include "util/error.hpp"

namespace hplx::core {

template <typename T>
DistMatrixT<T>::DistMatrixT(device::Device& dev, const grid::ProcessGrid& g,
                            long n, int nb, std::uint64_t seed, int nrhs,
                            double diag_shift)
    : dev_(dev),
      n_(n),
      nb_(nb),
      nrhs_(nrhs),
      diag_shift_(diag_shift),
      seed_(seed),
      myrow_(g.myrow()),
      mycol_(g.mycol()),
      nprow_(g.nprow()),
      npcol_(g.npcol()),
      rows_(n, nb, g.nprow()),
      cols_(n + nrhs, nb, g.npcol()),
      mloc_(rows_.local_count(myrow_)),
      nloc_(cols_.local_count(mycol_)),
      lda_(mloc_ > 0 ? mloc_ : 1),
      buf_(dev.alloc_elems<T>(static_cast<std::size_t>(lda_) *
                              static_cast<std::size_t>(nloc_ > 0 ? nloc_
                                                                 : 1))) {
  HPLX_CHECK(n >= 1 && nb >= 1 && nrhs >= 1);
  // Generation is an init-time device fill (rocHPL generates on-device);
  // it is not charged to any stream. The fp64 stream is the one source of
  // truth: a float matrix is the element-wise cast of the double one,
  // never an independently generated stream, so every precision solves (a
  // rounding of) the same system.
  if constexpr (std::is_same_v<T, double>) {
    rng::generate_local(seed_, n_, n_ + nrhs_, nb_, myrow_, mycol_, nprow_,
                        npcol_, local(), lda_, diag_shift_);
  } else {
    fp64_source_ = make_large_array<double>(
        static_cast<std::size_t>(lda_) *
        static_cast<std::size_t>(nloc_ > 0 ? nloc_ : 1));
    rng::generate_local(seed_, n_, n_ + nrhs_, nb_, myrow_, mycol_, nprow_,
                        npcol_, fp64_source_.get(), lda_, diag_shift_);
    for (long jl = 0; jl < nloc_; ++jl)
      for (long il = 0; il < mloc_; ++il)
        *at(il, jl) = static_cast<T>(fp64_source_[jl * lda_ + il]);
  }
}

template <typename T>
long DistMatrixT<T>::row_offset(long grow) const {
  return grid::numroc(grow, nb_, myrow_, nprow_);
}

template <typename T>
long DistMatrixT<T>::col_offset(long gcol) const {
  return grid::numroc(gcol, nb_, mycol_, npcol_);
}

template class DistMatrixT<double>;
template class DistMatrixT<float>;

}  // namespace hplx::core
