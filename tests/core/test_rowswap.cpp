#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/world.hpp"
#include "core/driver.hpp"
#include "core/rowswap.hpp"

namespace hplx::core {
namespace {

TEST(RowSwapPlan, IdentityPivotsProduceNoTraffic) {
  const long j = 8;
  const int jb = 4;
  const long ipiv[] = {8, 9, 10, 11};
  const auto plan = build_rowswap_plan(j, jb, ipiv);
  EXPECT_TRUE(plan.displaced.empty());
  for (int k = 0; k < jb; ++k)
    EXPECT_EQ(plan.u_source[static_cast<std::size_t>(k)], j + k);
}

TEST(RowSwapPlan, SimpleDistinctPivots) {
  // Rows 20, 31, 17 swap into slots 8, 9, 10.
  const long j = 8;
  const int jb = 3;
  const long ipiv[] = {20, 31, 17};
  const auto plan = build_rowswap_plan(j, jb, ipiv);
  EXPECT_EQ(plan.u_source[0], 20);
  EXPECT_EQ(plan.u_source[1], 31);
  EXPECT_EQ(plan.u_source[2], 17);
  // Each pivot slot receives the displaced top row.
  ASSERT_EQ(plan.displaced.size(), 3u);
  // sorted by destination slot: 17 < 20 < 31
  EXPECT_EQ(plan.displaced[0].first, 17);
  EXPECT_EQ(plan.displaced[0].second, 10);
  EXPECT_EQ(plan.displaced[1].first, 20);
  EXPECT_EQ(plan.displaced[1].second, 8);
  EXPECT_EQ(plan.displaced[2].first, 31);
  EXPECT_EQ(plan.displaced[2].second, 9);
}

TEST(RowSwapPlan, ChainedSwapsWithinTopBlock) {
  // k=0 picks row 2 (inside the top block), k=1 picks row 10, k=2 self.
  const long j = 0;
  const int jb = 3;
  const long ipiv[] = {2, 10, 2};
  // Replay: swap(0,2): content 0<->2. swap(1,10): 1<->10.
  // swap(2,2): nothing — slot 2 holds original row 0.
  const auto plan = build_rowswap_plan(j, jb, ipiv);
  EXPECT_EQ(plan.u_source[0], 2);
  EXPECT_EQ(plan.u_source[1], 10);
  EXPECT_EQ(plan.u_source[2], 0);
  ASSERT_EQ(plan.displaced.size(), 1u);
  EXPECT_EQ(plan.displaced[0].first, 10);   // slot 10 gets
  EXPECT_EQ(plan.displaced[0].second, 1);   // original row 1
}

TEST(RowSwapPlan, SwapsMatchSequentialApplication) {
  // Property: applying the plan must equal applying swaps sequentially.
  const long j = 4;
  const int jb = 5;
  const long n = 24;
  const long ipiv[] = {9, 5, 23, 9, 8};
  const auto plan = build_rowswap_plan(j, jb, ipiv);

  // Sequential: rows as single values.
  std::vector<long> seq(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) seq[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < jb; ++k)
    std::swap(seq[static_cast<std::size_t>(j + k)],
              seq[static_cast<std::size_t>(ipiv[k])]);

  // Plan-based: U rows + displaced.
  for (int k = 0; k < jb; ++k)
    EXPECT_EQ(plan.u_source[static_cast<std::size_t>(k)],
              seq[static_cast<std::size_t>(j + k)]);
  std::vector<long> rebuilt(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) rebuilt[static_cast<std::size_t>(i)] = i;
  for (const auto& [dest, src] : plan.displaced)
    rebuilt[static_cast<std::size_t>(dest)] = src;
  for (long i = 0; i < n; ++i) {
    if (i >= j && i < j + jb) continue;
    EXPECT_EQ(rebuilt[static_cast<std::size_t>(i)],
              seq[static_cast<std::size_t>(i)])
        << "slot " << i;
  }
}

TEST(RowSwapPlan, PivotAboveCurrentRowRejected) {
  const long ipiv[] = {3};
  EXPECT_THROW(build_rowswap_plan(8, 1, ipiv), Error);
}

// ---------------------------------------------------------------------------
// Independent oracle: one prepare → gather → communicate → scatter cycle of
// a RowSwapper on a P×1 grid must leave exactly what the NB sequential
// swaps (rows j+k <-> ipiv[k]) leave in a replicated host copy — the
// displaced rows in A's window, the pivot rows in U — for every chunk size
// and U-assembly algorithm. U is a column-aligned strip: the diagonal row
// passes A's own top block, so its whole window must equal the oracle;
// the other rows pass a separate strip. No other swap path is involved.

/// Exact, distinct content for global element (i, jg).
double oracle_value(long i, long jg) {
  return static_cast<double>(i * 1000 + jg) + 0.25;
}

using OracleShape = std::tuple<int /*p*/, long /*chunk*/, RowSwapAlgo>;

class RowSwapOracle : public ::testing::TestWithParam<OracleShape> {};

TEST_P(RowSwapOracle, CycleMatchesSequentialSwaps) {
  const auto [p, chunk, algo] = GetParam();
  const long n = 64;
  const int nb = 8;
  const long jl0 = 3;        // window starts off the first column...
  const long ncols = n + 1;  // (augmented width, Q = 1)
  const long njl = ncols - jl0 - 2;  // ...and stops short of the last
  const long ldu = nb + 2;  // rows [nb, ldu) of a strip stay untouched
  const double sentinel = -7.5;

  for (const long j : {0L, 16L, 40L}) {
    for (const unsigned trial : {1u, 2u, 3u}) {
      // Random valid pivots: ipiv[k] in [j+k, n), same on every rank.
      std::mt19937 rng(trial * 7919u + static_cast<unsigned>(j));
      std::vector<long> ipiv(static_cast<std::size_t>(nb));
      for (int k = 0; k < nb; ++k) {
        std::uniform_int_distribution<long> pick(j + k, n - 1);
        ipiv[static_cast<std::size_t>(k)] = pick(rng);
      }
      // The oracle: sequential swaps on a replicated dense copy.
      std::vector<std::vector<double>> ref(static_cast<std::size_t>(n));
      for (long i = 0; i < n; ++i)
        for (long c = 0; c < ncols; ++c)
          ref[static_cast<std::size_t>(i)].push_back(oracle_value(i, c));
      for (int k = 0; k < nb; ++k)
        std::swap(ref[static_cast<std::size_t>(j + k)],
                  ref[static_cast<std::size_t>(ipiv[static_cast<std::size_t>(k)])]);
      const RowSwapPlan plan = build_rowswap_plan(j, nb, ipiv.data());

      std::atomic<long> mismatches{0};
      comm::World::run(p, [&](comm::Communicator& world) {
        grid::ProcessGrid g(world, p, 1);
        device::Device dev("d", 1ull << 24);
        ThreadTeam team(1);
        DistMatrix a(dev, g, team, n, nb, 3);
        device::Stream stream(dev);
        const grid::CyclicDim& rows = a.rows();
        for (long il = 0; il < a.mloc(); ++il)
          for (long c = 0; c < a.nloc(); ++c)
            *a.at(il, c) = oracle_value(rows.to_global(il, g.myrow()), c);
        const bool diag = rows.owner(j) == g.myrow();
        std::vector<double> strip(static_cast<std::size_t>(ldu * a.nloc()),
                                  sentinel);
        double* const u = diag ? a.at(rows.to_local(j), 0) : strip.data();
        const long ld = diag ? a.lda() : ldu;

        RowSwapper rs;
        rs.reserve(dev.host_arena(), nb, a.nloc(), p);
        rs.set_pipeline(chunk);
        rs.prepare(plan, a, g.myrow(), jl0, njl, algo);
        rs.gather(stream, a);
        rs.communicate(g.col_comm(), nullptr, stream, u, ld);
        rs.scatter(stream, a, u, ld);
        stream.synchronize();

        long bad = 0;
        for (long il = 0; il < a.mloc(); ++il) {
          const long i = rows.to_global(il, g.myrow());
          for (long c = 0; c < a.nloc(); ++c) {
            const bool in_window = c >= jl0 && c < jl0 + njl;
            const double want = in_window
                                    ? ref[static_cast<std::size_t>(i)]
                                         [static_cast<std::size_t>(c)]
                                    : oracle_value(i, c);
            if (*a.at(il, c) != want) ++bad;
          }
        }
        for (long c = 0; c < a.nloc(); ++c) {
          for (long k = 0; k < ldu; ++k) {
            const bool in_window = c >= jl0 && c < jl0 + njl;
            const double want =
                in_window && k < nb && !diag
                    ? ref[static_cast<std::size_t>(j + k)]
                         [static_cast<std::size_t>(c)]
                    : sentinel;
            if (strip[static_cast<std::size_t>(c * ldu + k)] != want) ++bad;
          }
        }
        mismatches += bad;
      });
      EXPECT_EQ(mismatches.load(), 0)
          << "p=" << p << " chunk=" << chunk << " algo=" << to_string(algo)
          << " j=" << j << " trial=" << trial;
    }
  }
}

// chunk 0 = one chunk per rank segment; 1 KiB = several chunks per U
// segment and several messages per displaced-row segment.
INSTANTIATE_TEST_SUITE_P(
    WorldsChunksAlgos, RowSwapOracle,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0L, 1024L),
                       ::testing::Values(RowSwapAlgo::SpreadRoll,
                                         RowSwapAlgo::BinaryExchange)),
    [](const ::testing::TestParamInfo<OracleShape>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_chunk" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == RowSwapAlgo::SpreadRoll
                  ? "_spreadroll"
                  : "_binexch");
    });

// ---------------------------------------------------------------------------
// One process row: no staging, no wire and no copy. The swapper exchanges
// the window's rows in place, and its new top block is U, so A (top block
// included) must equal the sequential interchanges bitwise —
// for random pivots, pivots inside the top block, one row picked
// repeatedly and identity pivots (in both pivot modes) — and the host
// arena must never be leased.

TEST(RowSwapOneRow, InPlaceExchangeMatchesSequentialSwaps) {
  const long n = 64;
  const int nb = 8;
  const long jl0 = 3;
  const long ncols = n + 1;
  const long njl = ncols - jl0 - 2;

  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 24);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, n, nb, 3);
    device::Stream stream(dev);
    RowSwapper rs;
    rs.reserve(dev.host_arena(), nb, a.nloc(), 1);

    for (const long j : {0L, 16L, 40L}) {
      std::mt19937 rng(static_cast<unsigned>(j) + 11u);
      std::vector<std::pair<const char*, std::vector<long>>> sets;
      std::vector<long> ipiv(static_cast<std::size_t>(nb));
      for (int k = 0; k < nb; ++k)
        ipiv[static_cast<std::size_t>(k)] =
            std::uniform_int_distribution<long>(j + k, n - 1)(rng);
      sets.emplace_back("random", ipiv);
      for (int k = 0; k < nb; ++k)
        ipiv[static_cast<std::size_t>(k)] =
            std::uniform_int_distribution<long>(j + k, j + nb - 1)(rng);
      sets.emplace_back("inside top block", ipiv);
      for (int k = 0; k < nb; ++k)
        ipiv[static_cast<std::size_t>(k)] = k % 2 == 0 ? n - 1 : j + nb + 1;
      sets.emplace_back("repeated rows", ipiv);
      for (int k = 0; k < nb; ++k) ipiv[static_cast<std::size_t>(k)] = j + k;
      sets.emplace_back("identity", ipiv);
      sets.emplace_back("identity, no-pivot mode", ipiv);

      for (const auto& [what, piv] : sets) {
        const bool nopiv = std::string(what) == "identity, no-pivot mode";
        rs.set_pivot_mode(nopiv ? PivotMode::None : PivotMode::Full);
        std::vector<std::vector<double>> ref(static_cast<std::size_t>(n));
        for (long i = 0; i < n; ++i)
          for (long c = 0; c < ncols; ++c)
            ref[static_cast<std::size_t>(i)].push_back(oracle_value(i, c));
        for (int k = 0; k < nb; ++k)
          std::swap(ref[static_cast<std::size_t>(j + k)],
                    ref[static_cast<std::size_t>(
                        piv[static_cast<std::size_t>(k)])]);
        for (long i = 0; i < n; ++i)
          for (long c = 0; c < a.nloc(); ++c) *a.at(i, c) = oracle_value(i, c);

        const RowSwapPlan plan = build_rowswap_plan(j, nb, piv.data());
        rs.prepare(plan, a, 0, jl0, njl);
        rs.gather(stream, a);
        rs.communicate(g.col_comm(), nullptr, stream, a.at(j, 0), a.lda());
        rs.scatter(stream, a, a.at(j, 0), a.lda());
        stream.synchronize();

        long bad = 0;
        for (long i = 0; i < n; ++i)
          for (long c = 0; c < a.nloc(); ++c) {
            const bool in_window = c >= jl0 && c < jl0 + njl;
            const double want =
                in_window ? ref[static_cast<std::size_t>(i)]
                               [static_cast<std::size_t>(c)]
                          : oracle_value(i, c);
            if (*a.at(i, c) != want) ++bad;
          }
        EXPECT_EQ(bad, 0) << what << " j=" << j;
      }
    }
    EXPECT_EQ(dev.host_arena().stats().acquires, 0u);
  });
}

// ---------------------------------------------------------------------------
// reserve() binds the staging buffers to the device's arena; there is no
// fallback. Several process rows must reserve before the first prepare();
// one process row stages nothing, so it needs no reserve.

TEST(RowSwapReserve, PrepareWithoutReserveThrowsOnSeveralRows) {
  const long n = 32;
  const int nb = 8;
  std::vector<long> ipiv(static_cast<std::size_t>(nb));
  for (int k = 0; k < nb; ++k) ipiv[static_cast<std::size_t>(k)] = n - 1 - k;
  const RowSwapPlan plan = build_rowswap_plan(0, nb, ipiv.data());
  std::atomic<int> refused{0};
  comm::World::run(2, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 2, 1);
    device::Device dev("d", 1ull << 24);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, n, nb, 3);
    RowSwapper rs;
    try {
      rs.prepare(plan, a, g.myrow(), 0, a.nloc());
    } catch (const Error& e) {
      if (std::string(e.what()).find("reserve() before prepare()") !=
          std::string::npos)
        ++refused;
    }
  });
  EXPECT_EQ(refused.load(), 2);
}

TEST(RowSwapReserve, OneProcessRowSwapsWithoutReserve) {
  const long n = 32;
  const int nb = 8;
  const long j = 8;
  std::vector<long> ipiv(static_cast<std::size_t>(nb));
  for (int k = 0; k < nb; ++k)
    ipiv[static_cast<std::size_t>(k)] = k % 2 == 0 ? n - 1 - k : j + k;
  const RowSwapPlan plan = build_rowswap_plan(j, nb, ipiv.data());
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 24);
    ThreadTeam team(1);
    DistMatrix a(dev, g, team, n, nb, 3);
    device::Stream stream(dev);
    std::vector<std::vector<double>> ref(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i)
      for (long c = 0; c < a.nloc(); ++c) {
        *a.at(i, c) = oracle_value(i, c);
        ref[static_cast<std::size_t>(i)].push_back(oracle_value(i, c));
      }
    for (int k = 0; k < nb; ++k)
      std::swap(ref[static_cast<std::size_t>(j + k)],
                ref[static_cast<std::size_t>(ipiv[static_cast<std::size_t>(k)])]);

    RowSwapper rs;
    rs.prepare(plan, a, 0, 0, a.nloc());
    rs.gather(stream, a);
    rs.communicate(g.col_comm(), nullptr, stream, a.at(j, 0), a.lda());
    rs.scatter(stream, a, a.at(j, 0), a.lda());
    stream.synchronize();

    long bad = 0;
    for (long i = 0; i < n; ++i)
      for (long c = 0; c < a.nloc(); ++c)
        if (*a.at(i, c) != ref[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(c)])
          ++bad;
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(dev.host_arena().stats().acquires, 0u);
  });
}

// ---------------------------------------------------------------------------
// Pipelined-broadcast equivalence: the chunk size, U-assembly algorithm
// and stream count choose *how* U travels and when its unpacks are
// enqueued, never the arithmetic. Every combination must reproduce the
// same scaled residual, pinned to the value the solver printed before the
// row-major wire and the unchunked path were retired.

HplConfig sweep_cfg(long n, int nb, int p, int q) {
  HplConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.p = p;
  cfg.q = q;
  cfg.seed = 20230601;
  cfg.fact_threads = 2;
  cfg.rfact_nbmin = 8;
  cfg.verify = true;
  return cfg;
}

HplResult run_cfg(const HplConfig& cfg) {
  HplResult out;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    HplResult r = run_hpl(world, cfg);
    if (world.rank() == 0) out = std::move(r);
  });
  return out;
}

using PipeShape =
    std::tuple<int /*p*/, int /*q*/, PipelineMode, double /*residual*/>;

class RowSwapPipelineSweep : public ::testing::TestWithParam<PipeShape> {};

TEST_P(RowSwapPipelineSweep, WireAndChunkConfigsAgreeBitwise) {
  const auto [p, q, mode, residual] = GetParam();
  const HplConfig ref = [&, mode = mode] {
    HplConfig c = sweep_cfg(96, 16, p, q);
    c.pipeline = mode;
    return c;
  }();

  // 1 KiB = many chunks per segment, 256 KiB = the shipping default (one
  // chunk per segment at this size).
  for (const long chunk : {1024L, 256L * 1024L}) {
    for (const auto algo :
         {RowSwapAlgo::SpreadRoll, RowSwapAlgo::BinaryExchange}) {
      for (const int streams : {1, 2}) {
        HplConfig cfg = ref;
        cfg.swap_chunk_bytes = chunk;
        cfg.swap = algo;
        cfg.update_streams = streams;
        const HplResult r = run_cfg(cfg);
        EXPECT_TRUE(r.verify.passed)
            << "chunk=" << chunk << " algo=" << to_string(algo)
            << " streams=" << streams << " residual=" << r.verify.residual;
        // The scaled residual is a deterministic function of x:
        // identical factors across RS transports → identical residual.
        EXPECT_EQ(residual, r.verify.residual)
            << "chunk=" << chunk << " algo=" << to_string(algo)
            << " streams=" << streams;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, RowSwapPipelineSweep,
    ::testing::Values(
        PipeShape{1, 2, PipelineMode::Lookahead, 0.0062682743737152774},
        PipeShape{2, 1, PipelineMode::Lookahead, 0.0058706568635549317},
        PipeShape{2, 2, PipelineMode::LookaheadSplit, 0.0062682743737152774},
        PipeShape{2, 1, PipelineMode::Simple, 0.0058706568635549317}));

}  // namespace
}  // namespace hplx::core
