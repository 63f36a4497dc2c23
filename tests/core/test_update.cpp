#include <gtest/gtest.h>

#include <vector>

#include "comm/world.hpp"
#include "core/update.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::core {
namespace {

/// Build a 1×1-grid DistMatrix and exercise the trailing-update helpers
/// against dense reference arithmetic. The rank is the diagonal row, so
/// U is A's own top block: the trsm solves it in place and the gemm reads
/// it from there.
TEST(Update, TrsmGemmAndWritebackMatchReference) {
  const long n = 24;
  const int nb = 8;
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 24);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, n, nb, 3);
    device::Stream stream(dev);

    // Snapshot the original local matrix.
    std::vector<double> orig(static_cast<std::size_t>(a.lda() * a.nloc()));
    for (long jl = 0; jl < a.nloc(); ++jl)
      for (long il = 0; il < a.mloc(); ++il)
        orig[static_cast<std::size_t>(jl * a.lda() + il)] = *a.at(il, jl);

    // A synthetic factored panel at j=0: unit-lower L1 + L2 rows.
    testref::Rand rng(11);
    PanelData panel;
    panel.j = 0;
    panel.resize(nb, n - nb);
    for (auto& v : panel.top) v = rng.next();
    for (auto& v : panel.l2) v = rng.next();
    for (int k = 0; k < nb; ++k) panel.ipiv[static_cast<std::size_t>(k)] = k;

    // U window = trailing columns [nb, n+1) of A's rows [0, nb).
    const long jl0 = nb;
    const long njl = a.nloc() - jl0;
    std::vector<double> uref(static_cast<std::size_t>(nb) * njl);
    for (long jl = 0; jl < njl; ++jl)
      for (long i = 0; i < nb; ++i)
        uref[static_cast<std::size_t>(jl * nb + i)] = *a.at(i, jl0 + jl);

    enqueue_u_update(stream, panel, a.at(0, 0), a.lda(), jl0, njl);
    enqueue_tail_gemm(stream, a, panel, a.at(0, 0), a.lda(), jl0, njl,
                      /*tail_off=*/nb);
    stream.synchronize();

    // Reference: U' = L1^{-1} U0 (unit lower), then rows [0, nb) of the
    // window == U', and rows [nb, n) == orig - L2·U'.
    blas::dtrsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
                blas::Diag::Unit, nb, static_cast<int>(njl), 1.0,
                panel.top.data(), nb, uref.data(), nb);
    for (long jl = 0; jl < njl; ++jl) {
      for (long i = 0; i < nb; ++i) {
        EXPECT_NEAR(*a.at(i, jl0 + jl),
                    uref[static_cast<std::size_t>(jl * nb + i)], 1e-10);
      }
    }
    std::vector<double> tail(static_cast<std::size_t>((n - nb)) * njl, 0.0);
    for (long jl = 0; jl < njl; ++jl)
      for (long i = 0; i < n - nb; ++i)
        tail[static_cast<std::size_t>(jl * (n - nb) + i)] =
            orig[static_cast<std::size_t>((jl0 + jl) * a.lda() + nb + i)];
    testref::ref_gemm(blas::Trans::No, blas::Trans::No,
                      static_cast<int>(n - nb), static_cast<int>(njl), nb,
                      -1.0, panel.l2.data(), static_cast<int>(n - nb),
                      uref.data(), nb, 1.0, tail.data(),
                      static_cast<int>(n - nb));
    for (long jl = 0; jl < njl; ++jl)
      for (long i = 0; i < n - nb; ++i)
        EXPECT_NEAR(*a.at(nb + i, jl0 + jl),
                    tail[static_cast<std::size_t>(jl * (n - nb) + i)], 1e-10);
  });
}

TEST(Update, EmptyWindowIsNoop) {
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 22);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, 16, 8, 1);
    device::Stream stream(dev);
    PanelData panel;
    panel.j = 0;
    panel.resize(8, 8);
    enqueue_u_update<double>(stream, panel, nullptr, 8, 0, 0);
    enqueue_tail_gemm<double>(stream, a, panel, nullptr, 8, 0, 0, 8);
    stream.synchronize();
    EXPECT_DOUBLE_EQ(stream.busy_seconds(), 0.0);
  });
}

TEST(Update, MismatchedL2RowsDetected) {
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 22);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, 16, 8, 1);
    device::Stream stream(dev);
    PanelData panel;
    panel.j = 0;
    panel.resize(8, 4);  // wrong: trailing has 8 rows
    std::vector<double> u(8 * 9, 0.0);
    EXPECT_THROW(
        enqueue_tail_gemm(stream, a, panel, u.data(), 8, 8, 9, 8),
        Error);
  });
}

}  // namespace
}  // namespace hplx::core
