#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm/world.hpp"
#include "core/matrix.hpp"
#include "rng/matgen.hpp"
#include "util/error.hpp"

namespace hplx::core {
namespace {

TEST(DistMatrix, LocalShapeMatchesBlockCyclicCounts) {
  comm::World::run(6, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 2, 3);
    device::Device dev("d", 1ull << 26);
    DistMatrix a(dev, g, 40, 8, 7);
    EXPECT_EQ(a.mloc(), grid::numroc(40, 8, g.myrow(), 2));
    EXPECT_EQ(a.nloc(), grid::numroc(41, 8, g.mycol(), 3));
    EXPECT_GE(a.lda(), a.mloc());
  });
}

TEST(DistMatrix, ContentsMatchSerialGeneration) {
  const long n = 24;
  const int nb = 4;
  std::vector<double> global(static_cast<std::size_t>(n * (n + 1)));
  rng::generate_serial(123, n, n + 1, global.data(), n);

  comm::World::run(4, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 2, 2);
    device::Device dev("d", 1ull << 26);
    DistMatrix a(dev, g, n, nb, 123);
    for (long jl = 0; jl < a.nloc(); ++jl) {
      const long jg = a.cols().to_global(jl, g.mycol());
      for (long il = 0; il < a.mloc(); ++il) {
        const long ig = a.rows().to_global(il, g.myrow());
        ASSERT_DOUBLE_EQ(*a.at(il, jl),
                         global[static_cast<std::size_t>(jg * n + ig)]);
      }
    }
    // A double matrix is its own fp64 source.
    EXPECT_EQ(a.fp64_source(), nullptr);

    // A float matrix keeps the fp64 values it was cast from (diagonal
    // shift included): bitwise the rank's generate_local block, and every
    // float entry is the cast of its source element.
    const double shift = 2.0 * n;
    DistMatrixT<float> af(dev, g, n, nb, 123, 1, shift);
    ASSERT_NE(af.fp64_source(), nullptr);
    ASSERT_EQ(af.lda(), a.lda());
    const std::size_t count = static_cast<std::size_t>(af.lda()) *
                              static_cast<std::size_t>(af.nloc());
    std::vector<double> want(count);
    rng::generate_local(123, n, n + 1, nb, g.myrow(), g.mycol(), g.nprow(),
                        g.npcol(), want.data(), af.lda(), shift);
    EXPECT_EQ(std::memcmp(af.fp64_source(), want.data(),
                          count * sizeof(double)),
              0);
    for (long jl = 0; jl < af.nloc(); ++jl)
      for (long il = 0; il < af.mloc(); ++il)
        ASSERT_EQ(*af.at(il, jl),
                  static_cast<float>(
                      af.fp64_source()[jl * af.lda() + il]));
    af.release_fp64_source();
    EXPECT_EQ(af.fp64_source(), nullptr);
  });
}

TEST(DistMatrix, OffsetsCountLocalIndicesBelowGlobal) {
  comm::World::run(2, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 2, 1);
    device::Device dev("d", 1ull << 26);
    DistMatrix a(dev, g, 32, 4, 1);
    // Global rows 0..3 belong to row 0, 4..7 to row 1, etc.
    if (g.myrow() == 0) {
      EXPECT_EQ(a.row_offset(4), 4);
      EXPECT_EQ(a.row_offset(8), 4);
      EXPECT_EQ(a.row_offset(12), 8);
    } else {
      EXPECT_EQ(a.row_offset(4), 0);
      EXPECT_EQ(a.row_offset(8), 4);
    }
    EXPECT_EQ(a.col_offset(0), 0);
    EXPECT_EQ(a.col_offset(33), a.nloc());
  });
}

TEST(DistMatrix, ChargesHbm) {
  comm::World::run(1, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 26);
    DistMatrix a(dev, g, 64, 8, 1);
    EXPECT_GE(dev.hbm_used(), 64ull * 65 * sizeof(double));
  });
}

TEST(DistMatrix, OverflowingHbmThrows) {
  EXPECT_THROW(comm::World::run(1, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1024);  // 128 doubles
    DistMatrix a(dev, g, 64, 8, 1);
  }), Error);
}

}  // namespace
}  // namespace hplx::core
