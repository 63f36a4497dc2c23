#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace hplx::comm {
namespace {

TEST(Barrier, AllRanksPass) {
  for (int n : {1, 2, 3, 5, 8}) {
    std::atomic<int> before{0};
    World::run(n, [&](Communicator& comm) {
      before++;
      barrier(comm);
      // After the barrier every rank must have incremented.
      EXPECT_EQ(before.load(), n);
    });
  }
}

TEST(Allreduce, SumOverRanks) {
  World::run(5, [](Communicator& comm) {
    std::vector<long> v{static_cast<long>(comm.rank()), 1};
    allreduce(comm, v.data(), 2, ReduceOp::Sum);
    EXPECT_EQ(v[0], 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(v[1], 5);
  });
}

TEST(Allreduce, MaxAndMin) {
  World::run(7, [](Communicator& comm) {
    double mx = static_cast<double>(comm.rank());
    double mn = static_cast<double>(comm.rank());
    allreduce(comm, &mx, 1, ReduceOp::Max);
    allreduce(comm, &mn, 1, ReduceOp::Min);
    EXPECT_DOUBLE_EQ(mx, 6.0);
    EXPECT_DOUBLE_EQ(mn, 0.0);
  });
}

TEST(Allreduce, CustomMaxLocCombine) {
  // The pivot-search pattern: (value, owner) pairs, keep the largest value.
  struct Pair {
    double value;
    int owner;
  };
  World::run(6, [](Communicator& comm) {
    // Values peak at rank 4.
    Pair p{comm.rank() == 4 ? 100.0 : static_cast<double>(comm.rank()),
           comm.rank()};
    allreduce_bytes(comm, &p, sizeof(Pair), [](void* inout, const void* in) {
      auto* a = static_cast<Pair*>(inout);
      const auto* b = static_cast<const Pair*>(in);
      if (b->value > a->value) *a = *b;
    });
    EXPECT_DOUBLE_EQ(p.value, 100.0);
    EXPECT_EQ(p.owner, 4);
  });
}

TEST(Allreduce, SingleRankIdentity) {
  World::run(1, [](Communicator& comm) {
    double v = 3.0;
    allreduce(comm, &v, 1, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v, 3.0);
  });
}

TEST(Scatterv, UnequalSegments) {
  World::run(4, [](Communicator& comm) {
    // Rank i receives i+1 ints: {0}, {1,2}, {3,4,5}, ...
    std::vector<std::size_t> counts;
    for (int i = 0; i < 4; ++i) counts.push_back((i + 1) * sizeof(int));
    std::vector<int> send;
    if (comm.rank() == 2) {  // non-zero root
      send.resize(10);
      std::iota(send.begin(), send.end(), 0);
    }
    std::vector<int> recv(static_cast<std::size_t>(comm.rank() + 1), -1);
    scatterv_bytes(comm, send.data(), counts, recv.data(), 2);
    int expect = comm.rank() * (comm.rank() + 1) / 2;
    for (int k = 0; k <= comm.rank(); ++k)
      EXPECT_EQ(recv[static_cast<std::size_t>(k)], expect + k);
  });
}

TEST(Allgatherv, UnequalSegmentsRing) {
  World::run(5, [](Communicator& comm) {
    const int me = comm.rank();
    // Rank i contributes i+1 doubles, all equal to i.
    constexpr std::size_t kD = sizeof(double);
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int i = 0; i < 5; ++i) {
      counts.push_back(static_cast<std::size_t>(i + 1) * kD);
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<double> mine(static_cast<std::size_t>(me + 1),
                             static_cast<double>(me));
    std::vector<double> all(total / kD, -1.0);
    allgatherv_bytes(comm, mine.data(), counts, displs, all.data());
    for (int i = 0; i < 5; ++i) {
      const auto seg = static_cast<std::size_t>(i);
      for (std::size_t k = 0; k < counts[seg] / kD; ++k)
        EXPECT_DOUBLE_EQ(all[displs[seg] / kD + k], static_cast<double>(i));
    }
  });
}

TEST(Allgatherv, ZeroLengthContribution) {
  World::run(3, [](Communicator& comm) {
    // Rank 1 contributes nothing.
    constexpr std::size_t kD = sizeof(double);
    std::vector<std::size_t> counts{2 * kD, 0, kD};
    std::vector<std::size_t> displs{0, 2 * kD, 2 * kD};
    std::vector<double> mine;
    if (comm.rank() == 0) mine = {1.0, 2.0};
    if (comm.rank() == 2) mine = {9.0};
    std::vector<double> all(3, -1.0);
    allgatherv_bytes(comm, mine.data(), counts, displs, all.data());
    EXPECT_DOUBLE_EQ(all[0], 1.0);
    EXPECT_DOUBLE_EQ(all[1], 2.0);
    EXPECT_DOUBLE_EQ(all[2], 9.0);
  });
}

TEST(Allgatherv, BackToBackCallsDoNotCrossMatch) {
  // Successive gathers with different segment sizes must each receive
  // their own round's data.
  World::run(4, [](Communicator& comm) {
    constexpr std::size_t kD = sizeof(double);
    for (int round = 0; round < 10; ++round) {
      std::vector<std::size_t> counts, displs;
      std::size_t total = 0;
      for (int i = 0; i < 4; ++i) {
        counts.push_back(static_cast<std::size_t>((i + round) % 3 + 1) * kD);
        displs.push_back(total);
        total += counts.back();
      }
      const auto me = static_cast<std::size_t>(comm.rank());
      std::vector<double> mine(counts[me] / kD, 100.0 * round + comm.rank());
      std::vector<double> all(total / kD, -1.0);
      allgatherv_bytes(comm, mine.data(), counts, displs, all.data());
      for (int i = 0; i < 4; ++i) {
        const auto seg = static_cast<std::size_t>(i);
        for (std::size_t k = 0; k < counts[seg] / kD; ++k)
          ASSERT_EQ(all[displs[seg] / kD + k], 100.0 * round + i)
              << "round " << round << " segment " << i;
      }
    }
  });
}

TEST(Collectives, BackToBackSameType) {
  // Successive allreduces must not cross-match messages.
  World::run(4, [](Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      long v = comm.rank() + round;
      allreduce(comm, &v, 1, ReduceOp::Sum);
      EXPECT_EQ(v, 0 + 1 + 2 + 3 + 4 * round);
    }
  });
}

}  // namespace
}  // namespace hplx::comm
