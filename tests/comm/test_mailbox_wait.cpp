/// The mailbox's blocking wait (spin on the arrival counter for at most
/// kSpinWindow, then park on the condvar) must deliver every message, in
/// FIFO order per (source, tag), on both receive paths: `match` (queued
/// envelopes only) and `recv_into` (a posted receive a large sender may
/// complete directly). It must also stop spending CPU once the window
/// closes: a receiver left waiting for a late message parks.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "comm/world.hpp"
#include "util/spin_wait.hpp"

namespace hplx::comm {
namespace {

struct Ping {
  std::int32_t src = -1;
  std::int32_t tag = -1;
  std::uint64_t seq = 0;
  std::uint64_t check = 0;
};

std::uint64_t check_of(int src, int tag, std::uint64_t seq) {
  return (seq * 0x9E3779B97F4A7C15ull) ^
         (static_cast<std::uint64_t>(src) << 40) ^
         static_cast<std::uint64_t>(tag);
}

Ping make_ping(int src, int tag, std::uint64_t seq) {
  return Ping{src, tag, seq, check_of(src, tag, seq)};
}

enum class Path { Match, RecvInto };

Ping receive(Communicator& comm, int src, int tag, Path path) {
  Ping p;
  if (path == Path::RecvInto) {
    comm.recv_bytes(&p, sizeof(p), src, tag);
  } else {
    MessageEnvelope m = comm.fabric().mailbox(comm.rank()).match(src, tag);
    EXPECT_EQ(m.payload.size(), sizeof(p));
    if (m.payload.size() == sizeof(p))
      std::memcpy(&p, m.payload.data(), sizeof(p));
  }
  return p;
}

/// Ranks pair up (r, r^1) and ping-pong `rounds` times. Each ping is two
/// messages on two tags, sent B then A and received A then B, so the
/// arrival counter also moves for a message the waiter does not want
/// yet; each pong carries the ping's sequence number back. Every payload
/// is checked, and per-tag sequence numbers must arrive in order.
/// Returns the fabric's direct deliveries.
std::uint64_t ping_pong(int ranks, int rounds, std::size_t direct_threshold,
                        Path path) {
  constexpr int kTagA = 3, kTagB = 4, kTagPong = 5;
  std::atomic<std::uint64_t> direct{0};
  World::run(ranks, [&](Communicator& comm) {
    comm.fabric().set_direct_threshold(direct_threshold);
    const int me = comm.rank();
    const int peer = me ^ 1;
    const bool pinger = (me & 1) == 0;
    int bad = 0;
    auto expect = [&](const Ping& p, int src, int tag, std::uint64_t seq) {
      if (p.src != src || p.tag != tag || p.seq != seq ||
          p.check != check_of(src, tag, seq))
        ++bad;
    };
    for (int i = 0; i < rounds; ++i) {
      const auto seq = static_cast<std::uint64_t>(i);
      if (pinger) {
        const Ping b = make_ping(me, kTagB, seq);
        const Ping a = make_ping(me, kTagA, seq);
        comm.send_bytes(&b, sizeof(b), peer, kTagB);
        comm.send_bytes(&a, sizeof(a), peer, kTagA);
        expect(receive(comm, peer, kTagPong, path), peer, kTagPong, seq);
      } else {
        expect(receive(comm, peer, kTagA, path), peer, kTagA, seq);
        expect(receive(comm, peer, kTagB, path), peer, kTagB, seq);
        const Ping pong = make_ping(me, kTagPong, seq);
        comm.send_bytes(&pong, sizeof(pong), peer, kTagPong);
      }
    }
    EXPECT_EQ(bad, 0) << "rank " << me;
    EXPECT_EQ(comm.fabric().mailbox(me).pending(), 0u) << "rank " << me;
    std::uint64_t seen = direct.load();
    const std::uint64_t now = comm.fabric().direct_deliveries();
    while (now > seen && !direct.compare_exchange_weak(seen, now)) {
    }
  });
  return direct.load();
}

constexpr int kRounds = 10000;

TEST(MailboxWait, PingPongMatchPathAtDefaultThreshold) {
  for (int ranks : {2, 4, 8})
    ping_pong(ranks, kRounds, kDefaultEagerThreshold, Path::Match);
}

TEST(MailboxWait, PingPongPostedPathAtDefaultThreshold) {
  for (int ranks : {2, 4, 8})
    ping_pong(ranks, kRounds, kDefaultEagerThreshold, Path::RecvInto);
}

TEST(MailboxWait, PingPongMatchPathAllDirect) {
  for (int ranks : {2, 4, 8}) ping_pong(ranks, kRounds, 0, Path::Match);
}

TEST(MailboxWait, PingPongPostedPathAllDirectRacesTheSpin) {
  // Threshold 0: every message that finds its receive posted is copied
  // straight into it and completes it (pr.done) while the receiver spins
  // with the mailbox lock dropped.
  for (int ranks : {2, 4, 8})
    EXPECT_GT(ping_pong(ranks, kRounds, 0, Path::RecvInto), 0u)
        << ranks << " ranks";
}

double thread_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Rank 0 waits for a message rank 1 sends ~200 ms late. The spin ends
/// after kSpinWindow (50 us), so the waiting thread's own CPU time must
/// stay far below the wall time it waited.
void late_message_parks(Path path) {
  constexpr auto kLate = std::chrono::milliseconds(200);
  static_assert(kLate > 100 * kSpinWindow);
  World::run(2, [&](Communicator& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(kLate);
      const Ping p = make_ping(1, 7, 0);
      comm.send_bytes(&p, sizeof(p), 0, 7);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const double cpu0 = thread_cpu_seconds();
    const Ping p = receive(comm, 1, 7, path);
    const double cpu = thread_cpu_seconds() - cpu0;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_EQ(p.check, check_of(1, 7, 0));
    EXPECT_GE(wall, 0.15);
    // A receiver that spun the whole wait would burn ~0.2 s here.
    EXPECT_LT(cpu, 0.05) << "waited " << wall << " s";
  });
}

TEST(MailboxWait, LateMessageReceiverParksOnMatchPath) {
  late_message_parks(Path::Match);
}

TEST(MailboxWait, LateMessageReceiverParksOnPostedPath) {
  late_message_parks(Path::RecvInto);
}

}  // namespace
}  // namespace hplx::comm
