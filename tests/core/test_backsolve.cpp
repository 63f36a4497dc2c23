#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "comm/world.hpp"
#include "core/backsolve.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::core {
namespace {

/// Build a well-conditioned upper-triangular system U·X = B with known X
/// (n×nrhs), write it into the distributed matrix (U in columns 0..n-1, B
/// in global columns n..n+nrhs-1), run the distributed backsolve, and
/// compare.
using Shape = std::tuple<int, int, long, int>;  // P, Q, n, nb
class BacksolveSweep
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(BacksolveSweep, RecoversKnownSolution) {
  const auto [shape, nrhs] = GetParam();
  const auto [P, Q, n, nb] = shape;

  // Dense reference data, identical on every rank.
  testref::Rand rng(static_cast<std::uint64_t>(n) * 37 + P * 5 + Q);
  std::vector<double> u(static_cast<std::size_t>(n) * n, 0.0);
  for (long j = 0; j < n; ++j)
    for (long i = 0; i <= j; ++i)
      u[static_cast<std::size_t>(j * n + i)] = rng.next();
  testref::dominate_diagonal(static_cast<int>(n), u.data(),
                             static_cast<int>(n));
  std::vector<double> x_true(static_cast<std::size_t>(n * nrhs));
  for (auto& v : x_true) v = rng.next();
  std::vector<double> b(static_cast<std::size_t>(n * nrhs), 0.0);
  for (long r = 0; r < nrhs; ++r)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i <= j; ++i)
        b[static_cast<std::size_t>(i + r * n)] +=
            u[static_cast<std::size_t>(j * n + i)] *
            x_true[static_cast<std::size_t>(j + r * n)];

  std::vector<std::vector<double>> results(static_cast<std::size_t>(P * Q));
  comm::World::run(P * Q, [&, n = n, nb = nb, P = P, Q = Q,
                           nrhs = nrhs](comm::Communicator& world) {
    grid::ProcessGrid g(world, P, Q);
    device::Device dev("d", 1ull << 26);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, n, nb, 1, nrhs);
    // Overwrite the generated contents with the crafted system.
    for (long jl = 0; jl < a.nloc(); ++jl) {
      const long jg = a.cols().to_global(jl, g.mycol());
      for (long il = 0; il < a.mloc(); ++il) {
        const long ig = a.rows().to_global(il, g.myrow());
        *a.at(il, jl) = jg < n ? u[static_cast<std::size_t>(jg * n + ig)]
                               : b[static_cast<std::size_t>(ig + (jg - n) * n)];
      }
    }
    device::Stream stream(dev);
    results[static_cast<std::size_t>(world.rank())] =
        backsolve(g, a, stream, nullptr);
  });

  for (const auto& x : results) {
    ASSERT_EQ(x.size(), x_true.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(x[i], x_true[i], 1e-8) << "x[" << i << "]";
  }
}

// Every RHS width that fits the trailing column block on each grid.
INSTANTIATE_TEST_SUITE_P(
    GridsAndSizes, BacksolveSweep,
    ::testing::Combine(
        ::testing::Values(Shape{1, 1, 16L, 4}, Shape{1, 1, 33L, 8},
                          Shape{2, 2, 32L, 4}, Shape{2, 2, 40L, 8},
                          Shape{4, 1, 32L, 4}, Shape{1, 4, 32L, 4},
                          Shape{2, 3, 48L, 8}, Shape{3, 2, 37L, 5}),
        ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace hplx::core
