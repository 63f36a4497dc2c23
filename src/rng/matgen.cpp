#include "rng/matgen.hpp"

#include <algorithm>

#include "grid/block_cyclic.hpp"
#include "rng/lcg.hpp"
#include "util/error.hpp"

namespace hplx::rng {

namespace {
/// Lcg positioned just before sequence position `pos` (so the next call to
/// next_centered() yields the value at `pos`).
Lcg at_position(std::uint64_t seed, std::uint64_t pos) {
  Lcg g(seed);
  g.jump(pos);
  return g;
}
}  // namespace

double element(std::uint64_t seed, long gm, long i, long j,
               double diag_shift) {
  HPLX_CHECK(i >= 0 && i < gm && j >= 0);
  Lcg g = at_position(seed, static_cast<std::uint64_t>(j) *
                                static_cast<std::uint64_t>(gm) +
                            static_cast<std::uint64_t>(i));
  return g.next_centered() + (i == j ? diag_shift : 0.0);
}

void generate_serial(std::uint64_t seed, long gm, long gn, double* a,
                     long lda, double diag_shift) {
  HPLX_CHECK(lda >= gm);
  Lcg g(seed);
  for (long j = 0; j < gn; ++j) {
    double* col = a + j * lda;
    for (long i = 0; i < gm; ++i) col[i] = g.next_centered();
    if (diag_shift != 0.0 && j < gm) col[j] += diag_shift;
  }
}

void generate_local(std::uint64_t seed, long gm, long gn, int nb, int myrow,
                    int mycol, int nprow, int npcol, double* a, long lda,
                    double diag_shift) {
  generate_local_rows(seed, gm, gn, nb, myrow, mycol, nprow, npcol, 0,
                      grid::numroc(gm, nb, myrow, nprow), 0,
                      grid::numroc(gn, nb, mycol, npcol), a, lda, diag_shift);
}

void generate_local_rows(std::uint64_t seed, long gm, long gn, int nb,
                         int myrow, int mycol, int nprow, int npcol,
                         long il_begin, long il_end, long jl_begin,
                         long jl_end, double* a, long lda,
                         double diag_shift) {
  const grid::CyclicDim rows(gm, nb, nprow);
  const grid::CyclicDim cols(gn, nb, npcol);
  const long ml = rows.local_count(myrow);
  HPLX_CHECK(lda >= ml || ml == 0);
  HPLX_CHECK(0 <= il_begin && il_begin <= il_end && il_end <= ml);
  HPLX_CHECK(0 <= jl_begin && jl_begin <= jl_end &&
             jl_end <= cols.local_count(mycol));

  for (long jl = jl_begin; jl < jl_end; ++jl) {
    const long jg = cols.to_global(jl, mycol);
    double* col = a + jl * lda;
    // Walk local rows block by block: within a block the global rows are
    // consecutive, so one jump positions the generator for up to nb
    // values (a range may start or end inside a block).
    long il = il_begin;
    while (il < il_end) {
      const long ig = rows.to_global(il, myrow);
      const long run = std::min<long>(nb - ig % nb, il_end - il);
      Lcg g = at_position(seed, static_cast<std::uint64_t>(jg) *
                                    static_cast<std::uint64_t>(gm) +
                                static_cast<std::uint64_t>(ig));
      for (long k = 0; k < run; ++k) col[il + k] = g.next_centered();
      // The run covers consecutive globals ig..ig+run-1; the diagonal
      // crosses it at most once (at global row jg).
      if (diag_shift != 0.0 && jg >= ig && jg < ig + run)
        col[il + (jg - ig)] += diag_shift;
      il += run;
    }
  }
}

}  // namespace hplx::rng
