#include "core/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "rng/matgen.hpp"
#include "util/error.hpp"

namespace hplx::core {

namespace {

/// acc[i] += |col[i]| for i < m: one column of the ‖A‖∞ row sums. The
/// body runs on explicit vectors because gcc's -O2 cost model leaves the
/// plain loop scalar (it will not add the epilogue a runtime trip count
/// needs). Every row still adds its columns one at a time, in column
/// order, so the sums keep their bits.
void add_abs_column(long m, const double* col, double* acc) {
  typedef double V __attribute__((vector_size(32)));
  typedef double VM __attribute__((vector_size(32), aligned(8), may_alias));
  typedef long long VI __attribute__((vector_size(32)));
  typedef long long VMI
      __attribute__((vector_size(32), aligned(8), may_alias));
  constexpr long lanes = sizeof(V) / sizeof(double);
  constexpr long long kAbs = std::numeric_limits<long long>::max();
  long i = 0;
  for (; i + lanes <= m; i += lanes) {
    const VI bits = *reinterpret_cast<const VMI*>(col + i) & kAbs;
    *reinterpret_cast<VM*>(acc + i) += (V)bits;
  }
  for (; i < m; ++i) acc[i] += std::fabs(col[i]);
}

}  // namespace

template <typename T>
DistMatrixT<T>::DistMatrixT(device::Device& dev, const grid::ProcessGrid& g,
                            ThreadTeam& team, long n, int nb,
                            std::uint64_t seed, int nrhs, double diag_shift)
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
  // rounding of) the same system. Members write disjoint rows, so the
  // values do not depend on the team size.
  if constexpr (std::is_same_v<T, double>) {
    team.run([&](int member) {
      const auto [r0, r1] = member_rows(member, team.size());
      rng::generate_local_rows(seed_, n_, n_ + nrhs_, nb_, myrow_, mycol_,
                               nprow_, npcol_, r0, r1, 0, nloc_, local(),
                               lda_, diag_shift_);
    });
  } else {
    fp64_source_ = make_large_array<double>(
        static_cast<std::size_t>(lda_) *
        static_cast<std::size_t>(nloc_ > 0 ? nloc_ : 1));
    row_abs_sums_ = make_large_array<double>(
        static_cast<std::size_t>(std::max<long>(mloc_, 1)));
    team.run([&](int member) {
      const auto [r0, r1] = member_rows(member, team.size());
      double* sums = row_abs_sums_.get();
      std::fill(sums + r0, sums + r1, 0.0);
      for (long jl = 0; jl < nloc_; ++jl) {
        rng::generate_local_rows(seed_, n_, n_ + nrhs_, nb_, myrow_, mycol_,
                                 nprow_, npcol_, r0, r1, jl, jl + 1,
                                 fp64_source_.get(), lda_, diag_shift_);
        const double* src = fp64_source_.get() + jl * lda_;
        T* dst = at(0, jl);
        for (long il = r0; il < r1; ++il) dst[il] = static_cast<T>(src[il]);
        if (cols_.to_global(jl, mycol_) < n_)
          add_abs_column(r1 - r0, src + r0, sums + r0);
      }
    });
  }
}

template <typename T>
std::pair<long, long> DistMatrixT<T>::member_rows(int member,
                                                  int team_size) const {
  HPLX_CHECK(team_size >= 1 && member >= 0 && member < team_size);
  const long blocks = (mloc_ + nb_ - 1) / nb_;
  const long b0 = blocks * member / team_size;
  const long b1 = blocks * (member + 1) / team_size;
  return {std::min(b0 * nb_, mloc_), std::min(b1 * nb_, mloc_)};
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
