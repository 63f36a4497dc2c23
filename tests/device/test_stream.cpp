#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "device/stream.hpp"

namespace hplx::device {
namespace {

Device& test_device() {
  static Device dev("gcd0", 1ull << 30);
  return dev;
}

TEST(Stream, ExecutesInOrder) {
  Stream s(test_device());
  std::vector<int> log;
  for (int i = 0; i < 20; ++i) {
    s.enqueue(0.0, [&log, i] { log.push_back(i); });
  }
  s.synchronize();
  ASSERT_EQ(log.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
}

TEST(Stream, EnqueueReturnsBeforeExecution) {
  Stream s(test_device());
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  s.enqueue(0.0, [&] {
    while (!release) std::this_thread::yield();
    ran = true;
  });
  // If enqueue blocked until execution, we would never get here.
  EXPECT_FALSE(ran.load());
  release = true;
  s.synchronize();
  EXPECT_TRUE(ran.load());
}

TEST(Stream, BusyClockAccumulatesModeledTime) {
  Stream s(test_device());
  s.enqueue(0.25, [] {});
  s.enqueue(0.5, [] {});
  s.synchronize();
  EXPECT_DOUBLE_EQ(s.busy_seconds(), 0.75);
}

TEST(Stream, EventOrdersAcrossStreams) {
  Stream a(test_device(), "a");
  Stream b(test_device(), "b");
  std::atomic<int> stage{0};
  a.enqueue(0.0, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stage = 1;
  });
  Event ev = a.record();
  b.wait_event(ev);
  int seen = -1;
  b.enqueue(0.0, [&] { seen = stage.load(); });
  b.synchronize();
  EXPECT_EQ(seen, 1);
}

TEST(Stream, WaitOnlyStreamHasZeroBusyTime) {
  // Time a stream spends blocked on an event is idle time: a stream that
  // only waits, and records its own completion marker, reports no busy
  // time however long the wait. The event fires when the host releases
  // the gate stream ~50 ms later.
  Stream gate(test_device(), "gate");
  Stream waiter(test_device(), "waiter");
  std::atomic<bool> fire{false};
  gate.enqueue(0.0, [&] {
    while (!fire.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  waiter.wait_event(gate.record());
  const Event done = waiter.record();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fire.store(true);
  done.wait();
  waiter.synchronize();
  EXPECT_LT(waiter.real_busy_seconds(), 1e-3);
  // The gate's own op was real work and stays on its busy clock.
  EXPECT_GE(gate.real_busy_seconds(), 0.04);
}

TEST(Stream, HostWaitsOnEvent) {
  Stream s(test_device());
  std::atomic<bool> done{false};
  s.enqueue(0.0, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done = true;
  });
  Event ev = s.record();
  ev.wait();
  EXPECT_TRUE(done.load());
}

TEST(Stream, EventCompleteFlag) {
  Stream s(test_device());
  Event ev = s.record();
  s.synchronize();
  EXPECT_TRUE(ev.complete());
}

TEST(Stream, SynchronizeOnIdleStreamReturns) {
  Stream s(test_device());
  s.synchronize();
  SUCCEED();
}

TEST(Stream, ManySmallOpsDrainCompletely) {
  Stream s(test_device());
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) s.enqueue(0.0, [&] { count++; });
  s.synchronize();
  EXPECT_EQ(count.load(), 1000);
}

TEST(StreamPool, PrimaryIsStreamZero) {
  StreamPool pool(test_device(), 3, "p");
  EXPECT_EQ(pool.size(), 3);
  EXPECT_EQ(&pool.primary(), &pool.stream(0));
}

// The two event edges of the banded update, one at a time: every spare
// stream fenced on the primary's event runs after the primary's earlier
// work, and the primary fenced on each spare's event runs after all of
// theirs.
TEST(StreamPool, SparesFencedOnAnEventWaitForThePrimary) {
  StreamPool pool(test_device(), 4, "fence");
  std::atomic<int> stage{0};
  pool.primary().enqueue(0.0, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stage = 1;
  });
  const Event ready = pool.primary().record();
  std::atomic<int> early{0};
  for (int i = 1; i < pool.size(); ++i) {
    pool.stream(i).wait_event(ready);
    pool.stream(i).enqueue(0.0, [&] {
      if (stage.load() != 1) early++;
    });
  }
  pool.synchronize();
  EXPECT_EQ(early.load(), 0);
}

TEST(StreamPool, PrimaryFencedOnEverySpareSeesTheirWork) {
  StreamPool pool(test_device(), 4, "join");
  std::atomic<int> done{0};
  for (int i = 1; i < pool.size(); ++i) {
    pool.stream(i).enqueue(0.0, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done++;
    });
    pool.primary().wait_event(pool.stream(i).record());
  }
  int seen = -1;
  pool.primary().enqueue(0.0, [&] { seen = done.load(); });
  pool.primary().synchronize();
  EXPECT_EQ(seen, pool.size() - 1);
  pool.synchronize();
}

// The banded-update access pattern under contention: one "scatter" op on
// the primary produces a buffer, every stream fences on its event, then
// disjoint column bands are updated round-robin across the pool and the
// host joins on per-stream tail events. Run under TSan via the test_device
// suite label, this stresses exactly the event edges the trailing update
// relies on.
TEST(StreamPool, BandedFanOutStress) {
  constexpr int kStreams = 4;
  constexpr int kCols = 64;
  constexpr int kRounds = 25;
  StreamPool pool(test_device(), kStreams, "band");
  std::vector<double> data(kCols, 0.0);
  for (int round = 0; round < kRounds; ++round) {
    pool.primary().enqueue(0.0, [&data] {
      for (double& v : data) v += 1.0;  // the "scatter"
    });
    // Fence each spare stream on the scatter, as enqueue_update_bands
    // does.
    const Event ready = pool.primary().record();
    for (int i = 1; i < kStreams; ++i) pool.stream(i).wait_event(ready);
    for (int band = 0; band < kStreams; ++band) {
      const int c0 = band * (kCols / kStreams);
      const int c1 = c0 + kCols / kStreams;
      pool.stream(band).enqueue(0.0, [&data, c0, c1] {
        for (int c = c0; c < c1; ++c) data[static_cast<std::size_t>(c)] *= 2.0;
      });
    }
    // Join every band back into the primary, as the driver does, so the
    // next round's scatter is ordered behind all of them.
    for (int band = 1; band < kStreams; ++band) {
      pool.primary().wait_event(pool.stream(band).record());
    }
  }
  pool.synchronize();
  // Each round: v <- 2*(v+1), starting at 0 → v_n = 2^n+ ... = 2(v+1).
  double expect = 0.0;
  for (int round = 0; round < kRounds; ++round) expect = 2.0 * (expect + 1.0);
  for (double v : data) EXPECT_DOUBLE_EQ(v, expect);
}

}  // namespace
}  // namespace hplx::device
