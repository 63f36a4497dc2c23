/// Stress coverage of comm::allgatherv_chunked — the transport under the
/// pipelined row-swap broadcast. The chunked ring must assemble exactly
/// what the blocking collective assembles, its per-chunk delivery
/// callbacks must tile each remote segment exactly once with
/// grain-aligned, in-order chunks, and many communicators hammering the
/// transport concurrently must not interfere (the suite runs under both
/// TSan and ASan in scripts/check.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
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

/// Deterministic byte for (segment rank, offset) — every rank can verify
/// every delivered byte without further communication.
char byte_at(int rank, std::size_t off) {
  return static_cast<char>(mix(0xC0FFEEull + static_cast<std::uint64_t>(rank) *
                                                 2654435761u +
                               off) &
                           0x7F);
}

struct Layout {
  std::vector<std::size_t> counts, displs, grains;
  std::size_t total = 0;
};

Layout make_layout(int ranks, std::uint64_t seed, std::size_t grain_base) {
  Layout l;
  for (int r = 0; r < ranks; ++r) {
    const std::uint64_t s = mix(seed + static_cast<std::uint64_t>(r) * 7919u);
    // Segment sizes are grain multiples (the row-swap's segments are whole
    // wire rows/columns); occasionally zero to cover empty contributions.
    const std::size_t units = s % 9;
    const std::size_t grain = grain_base + (s >> 8) % 24;
    l.counts.push_back(units * grain);
    l.grains.push_back(grain);
    l.displs.push_back(l.total);
    l.total += l.counts.back();
  }
  return l;
}

TEST(ChunkedAllgatherv, MatchesBlockingAndTilesSegmentsExactly) {
  const int ranks = 5;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1 << 20}}) {
      const Layout l = make_layout(ranks, 0xA11ull, 16);
      std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
      for (std::size_t i = 0; i < mine.size(); ++i)
        mine[i] = byte_at(me, i);

      std::vector<char> blocking(l.total, -1);
      allgatherv_bytes(comm, mine.data(), l.counts, l.displs,
                       blocking.data());

      std::vector<char> chunked(l.total, -1);
      // Per-rank delivered byte spans, to assert the exact tiling.
      std::map<int, std::vector<ChunkDelivery>> delivered;
      allgatherv_chunked(comm, mine.data(), l.counts, l.displs,
                         chunked.data(), chunk, l.grains,
                         [&](const ChunkDelivery& d) {
                           delivered[d.rank].push_back(d);
                           // The delivered range must already hold the
                           // sender's bytes when the callback fires.
                           for (std::size_t k = 0; k < d.bytes; ++k) {
                             const std::size_t off = d.offset + k;
                             ASSERT_EQ(chunked[off],
                                       byte_at(d.rank,
                                               off - l.displs[static_cast<
                                                   std::size_t>(d.rank)]));
                           }
                         });

      ASSERT_EQ(std::memcmp(blocking.data(), chunked.data(), l.total), 0)
          << "chunk=" << chunk;

      // Every non-empty segment is tiled exactly once, in order, on grain
      // boundaries (except the final partial-grain-free tail).
      for (int r = 0; r < ranks; ++r) {
        const std::size_t cnt = l.counts[static_cast<std::size_t>(r)];
        const std::size_t displ = l.displs[static_cast<std::size_t>(r)];
        const std::size_t grain = l.grains[static_cast<std::size_t>(r)];
        if (cnt == 0) {
          EXPECT_TRUE(delivered[r].empty()) << "rank " << r;
          continue;
        }
        ASSERT_FALSE(delivered[r].empty()) << "rank " << r;
        std::size_t expect = displ;
        for (const ChunkDelivery& d : delivered[r]) {
          EXPECT_EQ(d.offset, expect) << "rank " << r << " chunk=" << chunk;
          EXPECT_GT(d.bytes, 0u);
          EXPECT_EQ((d.offset - displ) % grain, 0u)
              << "rank " << r << " chunk=" << chunk;
          expect = d.offset + d.bytes;
        }
        EXPECT_EQ(expect, displ + cnt) << "rank " << r << " chunk=" << chunk;
      }
      delivered.clear();
    }
  });
}

TEST(ChunkedAllgatherv, RecursiveDoublingFallsBackToWholeSegments) {
  const int ranks = 4;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    const Layout l = make_layout(ranks, 0xB22ull, 8);
    std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = byte_at(me, i);
    std::vector<char> out(l.total, -1);
    std::map<int, std::size_t> bytes_seen;
    allgatherv_chunked(comm, mine.data(), l.counts, l.displs, out.data(), 4,
                       l.grains,
                       [&](const ChunkDelivery& d) {
                         bytes_seen[d.rank] += d.bytes;
                       },
                       AllgatherAlgo::RecursiveDoubling);
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(bytes_seen[r], l.counts[static_cast<std::size_t>(r)])
          << "rank " << r;
      for (std::size_t k = 0; k < l.counts[static_cast<std::size_t>(r)]; ++k)
        ASSERT_EQ(out[l.displs[static_cast<std::size_t>(r)] + k],
                  byte_at(r, k));
    }
  });
}

TEST(ChunkedAllgatherv, RecursiveDoublingLeavesDeliveredOwnSegmentAlone) {
  // The row swapper hands every delivered chunk to an asynchronous device
  // unpack that may still be reading it while the collective runs on. The
  // RecursiveDoubling fallback delivers the own segment first, so it must
  // not write that segment again afterwards: a reader thread started from
  // the callback overlaps any such rewrite, which ThreadSanitizer reports.
  const int ranks = 4;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    Layout l;
    for (int r = 0; r < ranks; ++r) {
      l.counts.push_back(static_cast<std::size_t>(64 * (r + 1)));
      l.grains.push_back(8);
      l.displs.push_back(l.total);
      l.total += l.counts.back();
    }
    std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = byte_at(me, i);
    std::vector<char> out(l.total, -1);
    std::vector<std::thread> readers;
    bool own_intact = false;
    allgatherv_chunked(
        comm, mine.data(), l.counts, l.displs, out.data(), 16, l.grains,
        [&](const ChunkDelivery& d) {
          if (d.rank != me) return;
          const char* seg = out.data() + d.offset;
          readers.emplace_back([seg, d, me, &own_intact] {
            bool ok = true;
            for (std::size_t k = 0; k < d.bytes; ++k)
              ok = ok && seg[k] == byte_at(me, k);
            own_intact = ok;
          });
        },
        AllgatherAlgo::RecursiveDoubling);
    for (std::thread& t : readers) t.join();
    ASSERT_EQ(readers.size(), 1u);
    EXPECT_TRUE(own_intact);
    for (int r = 0; r < ranks; ++r)
      for (std::size_t k = 0; k < l.counts[static_cast<std::size_t>(r)]; ++k)
        ASSERT_EQ(out[l.displs[static_cast<std::size_t>(r)] + k],
                  byte_at(r, k));
  });
}

TEST(ChunkedAllgatherv, InPlaceSendSkipsLocalCopy) {
  const int ranks = 3;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    const Layout l = make_layout(ranks, 0xC33ull, 8);
    std::vector<char> buf(l.total, -1);
    char* seg = buf.data() + l.displs[static_cast<std::size_t>(me)];
    for (std::size_t i = 0; i < l.counts[static_cast<std::size_t>(me)]; ++i)
      seg[i] = byte_at(me, i);
    bool own_delivered = false;
    allgatherv_chunked(comm, seg, l.counts, l.displs, buf.data(), 32,
                       l.grains, [&](const ChunkDelivery& d) {
                         if (d.rank == me) own_delivered = true;
                       });
    EXPECT_TRUE(own_delivered ||
                l.counts[static_cast<std::size_t>(me)] == 0);
    for (int r = 0; r < ranks; ++r)
      for (std::size_t k = 0; k < l.counts[static_cast<std::size_t>(r)]; ++k)
        ASSERT_EQ(buf[l.displs[static_cast<std::size_t>(r)] + k],
                  byte_at(r, k));
  });
}

TEST(ChunkedStress, ManyConcurrentCommunicatorsAgree) {
  // The driver runs one chunked allgatherv per process column while row
  // broadcasts ride the same transport: split the world into columns and
  // run many rounds of chunked traffic on every column at once, with
  // round-varying chunk sizes, checking assembly each time.
  const int p = 3, q = 2;
  World::run(p * q, [&](Communicator& world) {
    Communicator col = world.split(world.rank() % q, world.rank() / q);
    const int me = col.rank();
    for (int round = 0; round < 25; ++round) {
      const Layout l =
          make_layout(col.size(),
                      0xD44ull + static_cast<std::uint64_t>(round) * 131u +
                          static_cast<std::uint64_t>(world.rank() % q),
                      8);
      std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
      for (std::size_t i = 0; i < mine.size(); ++i)
        mine[i] = byte_at(me, i);
      std::vector<char> out(l.total, -1);
      const std::size_t chunk = static_cast<std::size_t>(1 + (round % 5) * 17);
      std::size_t delivered_bytes = 0;
      allgatherv_chunked(col, mine.data(), l.counts, l.displs, out.data(),
                         chunk, l.grains, [&](const ChunkDelivery& d) {
                           delivered_bytes += d.bytes;
                         });
      ASSERT_EQ(delivered_bytes, l.total) << "round " << round;
      for (int r = 0; r < col.size(); ++r)
        for (std::size_t k = 0; k < l.counts[static_cast<std::size_t>(r)]; ++k)
          ASSERT_EQ(out[l.displs[static_cast<std::size_t>(r)] + k],
                    byte_at(r, k))
              << "round " << round << " rank " << r;
    }
  });
}

}  // namespace
}  // namespace hplx::comm
