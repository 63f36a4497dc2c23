/// Randomized stress of the minimpi substrate: many ranks exchanging
/// messages with pseudo-random sizes, tags and orders, plus interleaved
/// collectives — the kind of traffic one full HPL iteration generates,
/// compressed. Deterministic seeds keep failures reproducible.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace hplx::comm {
namespace {

std::uint64_t mix(std::uint64_t s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

TEST(CommStress, RandomAllToAllTraffic) {
  const int ranks = 6;
  const int rounds = 40;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    // Every rank sends one message to every other rank per round, with a
    // size derived from (round, src, dst); everyone can predict every
    // size, so receives can be posted in arbitrary order.
    auto size_of = [](int round, int src, int dst) {
      std::uint64_t s = mix(0x9E3779B97F4A7C15ull + round * 1315423911u +
                            src * 2654435761u + dst * 40503u);
      return static_cast<std::size_t>(s % 2048);
    };
    for (int round = 0; round < rounds; ++round) {
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst == me) continue;
        const std::size_t bytes = size_of(round, me, dst);
        std::vector<char> buf(bytes, static_cast<char>(me + round));
        comm.send_bytes(buf.data(), bytes, dst, round);
      }
      // Receive from ranks in reverse order to exercise matching.
      for (int src = ranks - 1; src >= 0; --src) {
        if (src == me) continue;
        const std::size_t bytes = size_of(round, src, me);
        std::vector<char> buf(bytes, 0);
        comm.recv_bytes(buf.data(), bytes, src, round);
        for (char c : buf)
          ASSERT_EQ(c, static_cast<char>(src + round));
      }
    }
  });
}

TEST(CommStress, CollectivesInterleavedWithP2p) {
  const int ranks = 5;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    for (int round = 0; round < 15; ++round) {
      // P2p ring message.
      const long token = me * 100 + round;
      comm.send(&token, 1, (me + 1) % ranks, 9);
      long got = 0;
      comm.recv(&got, 1, (me + ranks - 1) % ranks, 9);
      EXPECT_EQ(got, ((me + ranks - 1) % ranks) * 100 + round);

      // Collective with the same pending traffic pattern.
      long sum = me;
      allreduce(comm, &sum, 1, ReduceOp::Sum);
      EXPECT_EQ(sum, ranks * (ranks - 1) / 2);

      double v = (me == round % ranks) ? 3.5 + round : 0.0;
      bcast(comm, &v, 1, round % ranks,
            round % 2 ? BcastAlgo::Long : BcastAlgo::Ring2Mod);
      EXPECT_DOUBLE_EQ(v, 3.5 + round);
    }
  });
}

TEST(CommStress, ManyQueuedTagsReceivedInReverseOrder) {
  World::run(2, [](Communicator& comm) {
    const int count = 64;
    if (comm.rank() == 0) {
      for (int i = 0; i < count; ++i) {
        const long v = i * 7;
        comm.send(&v, 1, 1, i);
      }
    } else {
      std::vector<long> got(count, -1);
      // Receive in reverse tag order: each receive matches its own tag
      // among up to `count` queued messages.
      for (int i = count - 1; i >= 0; --i)
        comm.recv(&got[static_cast<std::size_t>(i)], 1, 0, i);
      for (int i = 0; i < count; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i * 7);
    }
  });
}

// ----------------------------------------------------------- message pool
// Every eager payload leases from its fabric's allocator. These drive the
// pool through real messages on a fresh one-rank fabric (a self-send is
// always eager: no receive is posted yet), so the counts are exact.

struct SelfComm {
  std::shared_ptr<Fabric> fabric = std::make_shared<Fabric>(1);
  Communicator comm{fabric, 0};
};

TEST(FabricPool, ReusesFreedBuffersAcrossSizeClasses) {
  SelfComm self;
  // First message of each class is a miss; once its receive released the
  // lease, the same class must be served from the freelist.
  for (std::size_t bytes : {1ul, 256ul, 257ul, 4096ul, 100000ul}) {
    std::vector<char> out(bytes, 'x'), in(bytes);
    for (int rep = 0; rep < 2; ++rep) {
      self.comm.send_bytes(out.data(), bytes, 0, 0);
      self.comm.recv_bytes(in.data(), bytes, 0, 0);
      ASSERT_EQ(in, out);
    }
  }
  const auto s = self.fabric->allocator().stats();
  EXPECT_EQ(s.acquires, 10u);
  EXPECT_EQ(s.outstanding, 0u);
  // 1 and 256 share the 256 B class, so the second group's first message
  // hits too: 5 second messages + 1 shared-class hit.
  EXPECT_EQ(s.hits + s.borrows, 6u);
  EXPECT_GT(s.cached_bytes, 0u);
  EXPECT_GT(s.hit_rate(), 0.5);
}

TEST(FabricPool, OversizeFallsBackToDirectAllocation) {
  SelfComm self;
  const std::size_t huge = (std::size_t{1} << kMaxMessageClassLog) + 1;
  std::vector<char> out(huge, 'y'), in(huge);
  self.comm.send_bytes(out.data(), huge, 0, 0);
  EXPECT_EQ(self.fabric->allocator().stats().outstanding, 1u);
  self.comm.recv_bytes(in.data(), huge, 0, 0);
  EXPECT_EQ(in, out);
  const auto s = self.fabric->allocator().stats();
  EXPECT_EQ(s.oversize, 1u);
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.cached_bytes, 0u);  // oversize payloads are freed, not cached
}

TEST(FabricPool, ZeroByteMessageNeverTouchesThePool) {
  SelfComm self;
  self.comm.send_bytes(nullptr, 0, 0, 0);
  EXPECT_EQ(self.fabric->mailbox(0).pending(), 1u);  // queued, payload-free
  self.comm.recv_bytes(nullptr, 0, 0, 0);
  EXPECT_EQ(self.fabric->mailbox(0).pending(), 0u);
  EXPECT_EQ(self.fabric->allocator().stats().acquires, 0u);
}

TEST(CommStress, PoolRecyclesUnderSteadyTraffic) {
  // After a warm-up round, steady-state p2p traffic should be served
  // almost entirely from the freelists — that is the pool's whole point.
  const int ranks = 4;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    for (int round = 0; round < 30; ++round) {
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst == me) continue;
        std::vector<char> buf(512 + 64 * dst, static_cast<char>(round));
        comm.send_bytes(buf.data(), buf.size(), dst, round);
      }
      for (int src = 0; src < ranks; ++src) {
        if (src == me) continue;
        std::vector<char> buf(512 + 64 * me);
        comm.recv_bytes(buf.data(), buf.size(), src, round);
        for (char c : buf) ASSERT_EQ(c, static_cast<char>(round));
      }
    }
    barrier(comm);
    if (me == 0) {
      const auto s = comm.fabric().allocator().stats();
      EXPECT_GT(s.acquires, 0u);
      EXPECT_GT(s.hit_rate(), 0.8) << "acquires=" << s.acquires
                                   << " hits=" << s.hits + s.borrows;
    }
  });
}

TEST(CommStress, LargeMessagesBypassTheEagerCopy) {
  // A receive posted before a large send arrives must be filled directly
  // (single copy), visible as a direct-delivery count on the fabric.
  World::run(2, [](Communicator& comm) {
    const std::size_t big = comm.fabric().direct_threshold() * 2;
    std::vector<char> buf(big);
    if (comm.rank() == 0) {
      char ack = 0;
      comm.recv(&ack, 1, 1, 1);
      // Give the receiver time to post its blocking receive; correctness
      // does not depend on winning this race, only the stat check does,
      // and the final barrier keeps the check well ordered.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      for (std::size_t i = 0; i < big; ++i)
        buf[i] = static_cast<char>(i * 31 + 7);
      comm.send_bytes(buf.data(), big, 1, 2);
    } else {
      char ack = 1;
      comm.send(&ack, 1, 0, 1);
      comm.recv_bytes(buf.data(), big, 0, 2);
      for (std::size_t i = 0; i < big; ++i)
        ASSERT_EQ(buf[i], static_cast<char>(i * 31 + 7));
    }
    barrier(comm);
    if (comm.rank() == 0) {
      EXPECT_GE(comm.fabric().direct_deliveries(), 1u);
    }
  });
}

TEST(CommStress, LargeMessageCyclesCannotDeadlock) {
  // Every rank sends a larger-than-threshold message around a ring before
  // receiving: with blocking-rendezvous semantics this cycle would hang;
  // the eager fallback must absorb it.
  const int ranks = 4;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    const std::size_t big = comm.fabric().direct_threshold() + 1024;
    for (int round = 0; round < 5; ++round) {
      std::vector<char> out(big, static_cast<char>(me + round));
      std::vector<char> in(big);
      comm.send_bytes(out.data(), big, (me + 1) % ranks, round);
      comm.recv_bytes(in.data(), big, (me + ranks - 1) % ranks, round);
      for (char c : in)
        ASSERT_EQ(c, static_cast<char>((me + ranks - 1) % ranks + round));
    }
  });
}

TEST(CommStress, ThresholdZeroForcesDirectWhereverPossible) {
  World::run(2, [](Communicator& comm) {
    comm.fabric().set_direct_threshold(0);
    const int me = comm.rank();
    for (int round = 0; round < 20; ++round) {
      std::vector<double> buf(64, me * 1.5 + round);
      if (me == 0) {
        comm.send(buf.data(), buf.size(), 1, round);
        comm.recv(buf.data(), buf.size(), 1, round);
        for (double v : buf) ASSERT_EQ(v, 1.5 + round);
      } else {
        std::vector<double> got(64);
        comm.recv(got.data(), got.size(), 0, round);
        for (double v : got) ASSERT_EQ(v, 0.0 + round);
        comm.send(buf.data(), buf.size(), 0, round);
      }
    }
  });
}

}  // namespace
}  // namespace hplx::comm
