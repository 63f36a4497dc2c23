#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "comm/world.hpp"
#include "core/panel_bcast.hpp"
#include "util/error.hpp"

namespace hplx::core {
namespace {

PanelData make_panel(long j, int jb, long ml2, double base) {
  PanelData p;
  p.j = j;
  p.resize(jb, ml2);
  std::iota(p.top.begin(), p.top.end(), base);
  std::iota(p.l2.begin(), p.l2.end(), base + 1000.0);
  for (int k = 0; k < jb; ++k)
    p.ipiv[static_cast<std::size_t>(k)] = j + k * 3;
  return p;
}

TEST(PanelBcast, RootDataReachesWholeRow) {
  const long j = 64;
  const int jb = 8;
  const long ml2 = 20;
  for (auto algo : {comm::BcastAlgo::Binomial, comm::BcastAlgo::Ring1Mod,
                    comm::BcastAlgo::Long}) {
    comm::World::run(4, [&, algo](comm::Communicator& row) {
      PanelData panel;
      if (row.rank() == 1) {
        panel = make_panel(j, jb, ml2, 5.0);
      } else {
        panel.j = j;
        panel.resize(jb, ml2);
      }
      trace::PhaseLedger ledger;
      panel_broadcast(row, algo, 1, panel, &ledger);
      const PanelData want = make_panel(j, jb, ml2, 5.0);
      EXPECT_EQ(panel.ipiv, want.ipiv);
      EXPECT_EQ(panel.top, want.top);
      EXPECT_EQ(panel.l2, want.l2);
      if (row.rank() != 1) {
        EXPECT_GT(ledger.seconds(trace::Phase::Mpi), 0.0);
      }
    });
  }
}

TEST(PanelBcast, SingleRankRowIsNoop) {
  comm::World::run(1, [&](comm::Communicator& row) {
    PanelData panel = make_panel(0, 4, 6, 1.0);
    trace::PhaseLedger ledger;
    panel_broadcast(row, comm::BcastAlgo::Ring1Mod, 0, panel, &ledger);
    EXPECT_DOUBLE_EQ(ledger.seconds(trace::Phase::Mpi), 0.0);
    EXPECT_DOUBLE_EQ(panel.top[0], 1.0);
  });
}

TEST(PanelBcast, EmptyL2StillBroadcastsTopAndPivots) {
  // Near the end of the factorization ml2 can be 0 on some rows.
  comm::World::run(3, [&](comm::Communicator& row) {
    PanelData panel;
    if (row.rank() == 0) {
      panel = make_panel(96, 4, 0, 2.0);
    } else {
      panel.j = 96;
      panel.resize(4, 0);
    }
    panel_broadcast(row, comm::BcastAlgo::Ring1, 0, panel, nullptr);
    EXPECT_EQ(panel.ipiv[3], 96 + 9);
    EXPECT_TRUE(panel.l2.empty());
  });
}

TEST(PanelBcast, ShapeMismatchDetected) {
  EXPECT_THROW(comm::World::run(2, [&](comm::Communicator& row) {
    PanelData panel;
    if (row.rank() == 0) {
      panel = make_panel(0, 4, 8, 1.0);
    } else {
      panel.j = 32;  // wrong j on the receiver
      panel.resize(4, 8);
    }
    panel_broadcast(row, comm::BcastAlgo::Binomial, 0, panel, nullptr);
  }), Error);
}

TEST(PanelBcast, CustomFunctionReplacesAlgorithm) {
  comm::World::run(3, [&](comm::Communicator& row) {
    PanelData panel;
    if (row.rank() == 2) {
      panel = make_panel(8, 4, 5, 9.0);
    } else {
      panel.j = 8;
      panel.resize(4, 5);
    }
    int calls = 0;
    BcastFn custom = [&calls](comm::Communicator& c, void* buf,
                              std::size_t bytes, int root) {
      ++calls;
      comm::bcast_bytes(c, buf, bytes, root, comm::BcastAlgo::Binomial);
    };
    panel_broadcast(row, comm::BcastAlgo::Ring1Mod, 2, panel, nullptr,
                    &custom);
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(panel.top[0], 9.0);
  });
}

}  // namespace
}  // namespace hplx::core
