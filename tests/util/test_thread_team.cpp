#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/spin_wait.hpp"
#include "util/thread_team.hpp"

namespace hplx {
namespace {

TEST(Barrier, SingleParticipantNeverBlocks) {
  Barrier b(1);
  b.arrive_and_wait();
  b.arrive_and_wait();
}

TEST(ThreadTeam, SizeOneRunsCallerOnly) {
  ThreadTeam team(1);
  int calls = 0;
  team.run([&](int tid) {
    EXPECT_EQ(tid, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadTeam, AllMembersRunExactlyOnce) {
  const int T = 8;
  ThreadTeam team(T);
  std::vector<std::atomic<int>> counts(T);
  for (auto& c : counts) c = 0;
  team.run([&](int tid) { counts[static_cast<std::size_t>(tid)]++; });
  for (int t = 0; t < T; ++t) EXPECT_EQ(counts[static_cast<std::size_t>(t)], 1);
}

TEST(ThreadTeam, ReusableAcrossRegions) {
  ThreadTeam team(4);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 10; ++rep) {
    team.run([&](int) { total++; });
  }
  EXPECT_EQ(total, 40);
}

TEST(ThreadTeam, BarrierSeparatesPhases) {
  // Phase 1 writes; the barrier must make all writes visible before any
  // member reads in phase 2.
  const int T = 6;
  ThreadTeam team(T);
  std::vector<int> data(T, 0);
  std::vector<int> sums(T, -1);
  team.run([&](int tid) {
    data[static_cast<std::size_t>(tid)] = tid + 1;
    team.barrier();
    sums[static_cast<std::size_t>(tid)] =
        std::accumulate(data.begin(), data.end(), 0);
  });
  const int expect = T * (T + 1) / 2;
  for (int t = 0; t < T; ++t) EXPECT_EQ(sums[static_cast<std::size_t>(t)], expect);
}

TEST(ThreadTeam, RepeatedBarriersStayInLockstep) {
  const int T = 4;
  const int rounds = 25;
  ThreadTeam team(T);
  std::vector<int> counter(T, 0);
  std::atomic<bool> mismatch{false};
  team.run([&](int tid) {
    for (int r = 0; r < rounds; ++r) {
      counter[static_cast<std::size_t>(tid)] = r;
      team.barrier();
      for (int t = 0; t < T; ++t) {
        if (counter[static_cast<std::size_t>(t)] != r) mismatch = true;
      }
      team.barrier();
    }
  });
  EXPECT_FALSE(mismatch);
}

TEST(ThreadTeam, BarrierStressSpinAndParkStayInLockstep) {
  // Ten thousand generations per team size. Every 61st round one member
  // (a different one each time) sleeps past the spin window before it
  // arrives, so the others park; every other round ends inside the spin.
  // Double-buffered stamps let one barrier per generation be checked:
  // a member can run one round ahead, never two. The stamps are plain
  // ints, so under TSan the barrier alone must order them.
  constexpr int kGenerations = 10000;
  for (int T = 2; T <= 4; ++T) {
    ThreadTeam team(T);
    std::vector<int> stamp[2] = {std::vector<int>(T, -1),
                                 std::vector<int>(T, -1)};
    std::atomic<int> mismatches{0};
    team.run([&](int tid) {
      for (int r = 0; r < kGenerations; ++r) {
        std::vector<int>& row = stamp[r % 2];
        row[static_cast<std::size_t>(tid)] = r;
        if (r % 61 == 0 && tid == (r / 61) % T)
          std::this_thread::sleep_for(3 * kSpinWindow);
        team.barrier();
        for (int t = 0; t < T; ++t)
          if (row[static_cast<std::size_t>(t)] != r) mismatches++;
      }
    });
    EXPECT_EQ(mismatches.load(), 0) << "team size " << T;
  }
}

TEST(ThreadTeam, ExceptionInWorkerPropagatesToCaller) {
  ThreadTeam team(3);
  EXPECT_THROW(
      team.run([&](int tid) {
        if (tid == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The team must remain usable after an exception.
  std::atomic<int> ok{0};
  team.run([&](int) { ok++; });
  EXPECT_EQ(ok, 3);
}

TEST(ThreadTeam, ExceptionInCallerPropagates) {
  ThreadTeam team(2);
  EXPECT_THROW(team.run([&](int tid) {
                 if (tid == 0) throw std::logic_error("main thread");
               }),
               std::logic_error);
}

}  // namespace
}  // namespace hplx
