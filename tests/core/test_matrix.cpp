#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, 40, 8, 7);
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
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, n, nb, 123);
    for (long jl = 0; jl < a.nloc(); ++jl) {
      const long jg = a.cols().to_global(jl, g.mycol());
      for (long il = 0; il < a.mloc(); ++il) {
        const long ig = a.rows().to_global(il, g.myrow());
        ASSERT_DOUBLE_EQ(*a.at(il, jl),
                         global[static_cast<std::size_t>(jg * n + ig)]);
      }
    }
    // A double matrix is its own fp64 source and keeps no row sums.
    EXPECT_EQ(a.fp64_source(), nullptr);
    EXPECT_EQ(a.row_abs_sums(), nullptr);

    // A float matrix keeps the fp64 values it was cast from (diagonal
    // shift included): bitwise the rank's generate_local block, and every
    // float entry is the cast of its source element.
    const double shift = 2.0 * n;
    DistMatrixT<float> af(dev, g, team, n, nb, 123, 1, shift);
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
    ASSERT_NE(af.row_abs_sums(), nullptr);
    af.release_fp64_source();
    EXPECT_EQ(af.fp64_source(), nullptr);
    EXPECT_EQ(af.row_abs_sums(), nullptr);
  });
}

struct TeamShape {
  int p, q;
  long n;
  int nb;
};

/// The rows member_rows hands a team are whole local row blocks, in
/// member order, covering every local row once.
void expect_row_partition(const DistMatrix& a, int team_size,
                          bool* some_empty) {
  long next = 0;
  for (int m = 0; m < team_size; ++m) {
    const auto [r0, r1] = a.member_rows(m, team_size);
    EXPECT_EQ(r0, next) << "member " << m << " of " << team_size;
    EXPECT_LE(r0, r1);
    EXPECT_EQ(r0 % a.nb(), 0);
    if (r1 < a.mloc()) {
      EXPECT_EQ(r1 % a.nb(), 0);
    }
    if (r0 == r1) *some_empty = true;
    next = r1;
  }
  EXPECT_EQ(next, a.mloc());
}

// Construction splits the rows of every host pass over the team: the fp64
// matrix, the MxP fp64 source, its fp32 cast and the ‖A‖∞ row sums must
// carry the bits of the serial passes (one generate_local call, the cast
// loop, the column-ordered |a| sums over global columns < n) at every
// team size, on ragged shapes and where some member owns no rows.
TEST(DistMatrix, TeamConstructionMatchesSerialPasses) {
  for (const TeamShape& s : {TeamShape{1, 1, 2048, 256},
                             TeamShape{2, 2, 1000, 64},
                             TeamShape{1, 3, 777, 96},
                             TeamShape{2, 1, 200, 64}}) {
    bool some_empty = false;
    for (int team_size = 1; team_size <= 4; ++team_size) {
      SCOPED_TRACE(::testing::Message()
                   << s.p << "x" << s.q << " n=" << s.n << " nb=" << s.nb
                   << " team=" << team_size);
      std::atomic<bool> empty_here{false};
      comm::World::run(s.p * s.q, [&](comm::Communicator& world) {
        grid::ProcessGrid g(world, s.p, s.q);
        device::Device dev("d", 1ull << 26);
        ThreadTeam team(team_size);
        const double shift = static_cast<double>(s.n);
        std::vector<double> want;
        std::size_t count = 0;
        {
          DistMatrix a(dev, g, team, s.n, s.nb, 99, 1, shift);
          bool empty = false;
          expect_row_partition(a, team_size, &empty);
          if (empty) empty_here = true;
          count = static_cast<std::size_t>(a.lda()) *
                  static_cast<std::size_t>(a.nloc());
          want.resize(count);
          rng::generate_local(99, s.n, s.n + 1, s.nb, g.myrow(), g.mycol(),
                              g.nprow(), g.npcol(), want.data(), a.lda(),
                              shift);
          EXPECT_EQ(std::memcmp(a.local(), want.data(),
                                count * sizeof(double)),
                    0);
        }

        DistMatrixT<float> af(dev, g, team, s.n, s.nb, 99, 1, shift);
        ASSERT_EQ(static_cast<std::size_t>(af.lda()) *
                      static_cast<std::size_t>(af.nloc()),
                  count);
        EXPECT_EQ(std::memcmp(af.fp64_source(), want.data(),
                              count * sizeof(double)),
                  0);
        std::vector<float> cast(count);
        for (std::size_t i = 0; i < count; ++i)
          cast[i] = static_cast<float>(want[i]);
        EXPECT_EQ(std::memcmp(af.local(), cast.data(),
                              count * sizeof(float)),
                  0);
        std::vector<double> sums(static_cast<std::size_t>(af.mloc()), 0.0);
        for (long jl = 0; jl < af.nloc(); ++jl) {
          if (af.cols().to_global(jl, g.mycol()) >= s.n) continue;
          for (long il = 0; il < af.mloc(); ++il)
            sums[static_cast<std::size_t>(il)] +=
                std::fabs(want[static_cast<std::size_t>(jl * af.lda() + il)]);
        }
        EXPECT_EQ(std::memcmp(af.row_abs_sums(), sums.data(),
                              sums.size() * sizeof(double)),
                  0);
      });
      some_empty = some_empty || empty_here;
    }
    // The 200-row shape gives each process row two local blocks, so teams
    // of three and four leave some member without rows.
    if (s.n == 200) {
      EXPECT_TRUE(some_empty);
    }
  }
}

TEST(DistMatrix, OffsetsCountLocalIndicesBelowGlobal) {
  comm::World::run(2, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 2, 1);
    device::Device dev("d", 1ull << 26);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, 32, 4, 1);
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
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, 64, 8, 1);
    EXPECT_GE(dev.hbm_used(), 64ull * 65 * sizeof(double));
  });
}

TEST(DistMatrix, OverflowingHbmThrows) {
  EXPECT_THROW(comm::World::run(1, [](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1024);  // 128 doubles
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, 64, 8, 1);
  }), Error);
}

}  // namespace
}  // namespace hplx::core
