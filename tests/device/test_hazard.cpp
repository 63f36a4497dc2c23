/// HazardTracker unit tests. Every scenario declares access sets on
/// no-op lambdas — the tracker's verdict depends only on the declared
/// spans and the happens-before edges, never on what the lambdas do, so
/// the tests are deterministic regardless of worker-thread timing (all
/// bookkeeping runs on the enqueueing host thread).

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "device/device.hpp"
#include "device/hazard.hpp"
#include "device/stream.hpp"

namespace hplx::device {
namespace {

constexpr std::size_t kHbm = 16UL << 20;

Device make_checked(const char* name = "hz") {
  return Device(name, kHbm, /*hazard_check=*/true);
}

using Kind = HazardTracker::Kind;

TEST(Hazard, OffByDefaultAndFreeWhenOff) {
  ::unsetenv("HPLX_HAZARD");
  Device dev("plain", kHbm);
  EXPECT_EQ(dev.hazard(), nullptr);
  // Annotated enqueues must work (and cost one pointer test) without a
  // tracker attached.
  Buffer b = dev.alloc(64);
  Stream s(dev, "s");
  s.enqueue_annotated(0.0, "noop", {span_write(b.data(), b.count())}, [] {});
  s.synchronize();
}

TEST(Hazard, EnvVariableAttachesTracker) {
  ::setenv("HPLX_HAZARD", "1", 1);
  EXPECT_TRUE(hazard_env_enabled());
  {
    Device dev("env", kHbm);
    EXPECT_NE(dev.hazard(), nullptr);
  }
  ::setenv("HPLX_HAZARD", "0", 1);
  EXPECT_FALSE(hazard_env_enabled());
  {
    Device dev("env0", kHbm);
    EXPECT_EQ(dev.hazard(), nullptr);
  }
  ::unsetenv("HPLX_HAZARD");
  EXPECT_FALSE(hazard_env_enabled());
}

TEST(Hazard, UnorderedCrossStreamWriteWrite) {
  Device dev = make_checked();
  Buffer b = dev.alloc(128);
  {
    Stream s0(dev, "s0"), s1(dev, "s1");
    s0.enqueue_annotated(0.0, "writer_a", {span_write(b.data(), 128)}, [] {});
    s1.enqueue_annotated(0.0, "writer_b", {span_write(b.data(), 128)}, [] {});
    s0.synchronize();
    s1.synchronize();
  }
  EXPECT_EQ(dev.hazard()->count_of(Kind::UnorderedStreams), 1u);
  EXPECT_EQ(dev.hazard()->violation_count(), 1u);
}

TEST(Hazard, ReadReadNeverConflicts) {
  Device dev = make_checked();
  Buffer b = dev.alloc(128);
  {
    Stream s0(dev, "s0"), s1(dev, "s1");
    s0.enqueue_annotated(0.0, "reader_a", {span_read(b.data(), 128)}, [] {});
    s1.enqueue_annotated(0.0, "reader_b", {span_read(b.data(), 128)}, [] {});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, DisjointRangesNeverConflict) {
  Device dev = make_checked();
  Buffer b = dev.alloc(128);
  {
    Stream s0(dev, "s0"), s1(dev, "s1");
    s0.enqueue_annotated(0.0, "lo", {span_write(b.data(), 64)}, [] {});
    s1.enqueue_annotated(0.0, "hi", {span_write(b.data() + 64, 64)}, [] {});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, EventFenceOrdersCrossStreamWriters) {
  Device dev = make_checked();
  Buffer b = dev.alloc(128);
  {
    Stream s0(dev, "s0"), s1(dev, "s1");
    s0.enqueue_annotated(0.0, "writer_a", {span_write(b.data(), 128)}, [] {});
    Event done = s0.record();
    s1.wait_event(done);
    s1.enqueue_annotated(0.0, "writer_b", {span_write(b.data(), 128)}, [] {});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, TransitiveEventEdgeThroughThirdStream) {
  Device dev = make_checked();
  Buffer b = dev.alloc(64);
  {
    Stream s0(dev, "s0"), s1(dev, "s1"), s2(dev, "s2");
    s0.enqueue_annotated(0.0, "origin", {span_write(b.data(), 64)}, [] {});
    Event e0 = s0.record();
    s1.wait_event(e0);
    s1.enqueue_annotated(0.0, "middle", {span_read(b.data(), 64)}, [] {});
    Event e1 = s1.record();
    s2.wait_event(e1);
    // s2 never waited on s0 directly, but e1's clock carries e0's edge.
    s2.enqueue_annotated(0.0, "leaf", {span_write(b.data(), 64)}, [] {});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, HostWriteVersusInFlightDeviceRead) {
  Device dev = make_checked();
  Buffer b = dev.alloc(96);
  {
    Stream s(dev, "s");
    s.enqueue_annotated(0.0, "dev_reader", {span_read(b.data(), 96)}, [] {});
    {
      HostAccessScope guard(dev.hazard(), "host_writer",
                            {span_write(b.data(), 96)});
    }
    EXPECT_EQ(dev.hazard()->count_of(Kind::HostDevice), 1u);

    // After a real Event::wait the host clock dominates the read: clean.
    Event done = s.record();
    done.wait();
    {
      HostAccessScope guard(dev.hazard(), "host_writer",
                            {span_write(b.data(), 96)});
    }
    EXPECT_EQ(dev.hazard()->count_of(Kind::HostDevice), 1u);
  }
}

TEST(Hazard, WaitUnorderedSkipsTheHappensBeforeJoin) {
  Device dev = make_checked();
  Buffer b = dev.alloc(32);
  {
    Stream s(dev, "s");
    s.enqueue_annotated(0.0, "dev_reader", {span_read(b.data(), 32)}, [] {});
    Event done = s.record();
    // The wait really blocks (execution is race-free) but the model treats
    // the fence as absent — the fence-omission test hook.
    done.wait_unordered();
    HostAccessScope guard(dev.hazard(), "host_writer",
                          {span_write(b.data(), 32)});
    EXPECT_EQ(dev.hazard()->count_of(Kind::HostDevice), 1u);
  }
}

TEST(Hazard, HostReadVersusDeviceReadIsClean) {
  Device dev = make_checked();
  Buffer b = dev.alloc(32);
  {
    Stream s(dev, "s");
    s.enqueue_annotated(0.0, "dev_reader", {span_read(b.data(), 32)}, [] {});
    HostAccessScope guard(dev.hazard(), "host_reader",
                          {span_read(b.data(), 32)});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, SynchronizeJoinsHostClock) {
  Device dev = make_checked();
  Buffer b = dev.alloc(32);
  {
    Stream s(dev, "s");
    s.enqueue_annotated(0.0, "dev_writer", {span_write(b.data(), 32)}, [] {});
    s.synchronize();
    HostAccessScope guard(dev.hazard(), "host_writer",
                          {span_write(b.data(), 32)});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, FreeWithPendingUnorderedOps) {
  Device dev = make_checked();
  {
    Stream s(dev, "s");
    {
      Buffer b = dev.alloc(64);
      s.enqueue_annotated(0.0, "dev_writer", {span_write(b.data(), 64)},
                          [] {});
      s.synchronize();  // keep execution safe; model sees the sync too...
      // ...so re-declare an op the host will NOT wait for before the free.
      s.enqueue_annotated(0.0, "late_writer", {span_write(b.data(), 64)},
                          [] {});
    }  // ~Buffer with late_writer un-waited
    EXPECT_EQ(dev.hazard()->count_of(Kind::FreePending), 1u);
  }
}

TEST(Hazard, OrderlyFreeIsClean) {
  Device dev = make_checked();
  {
    Stream s(dev, "s");
    Buffer b = dev.alloc(64);
    s.enqueue_annotated(0.0, "dev_writer", {span_write(b.data(), 64)}, [] {});
    s.synchronize();
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, UseAfterFreeDetected) {
  Device dev = make_checked();
  {
    Stream s(dev, "s");
    const double* stale = nullptr;
    std::size_t count = 0;
    {
      Buffer b = dev.alloc(64);
      stale = b.data();
      count = b.count();
    }
    // Declared touch of the dead range; the lambda never dereferences it.
    s.enqueue_annotated(0.0, "stale_reader", {span_read(stale, count)}, [] {});
    EXPECT_EQ(dev.hazard()->count_of(Kind::UseAfterFree), 1u);
  }
}

TEST(Hazard, AllocReuseClearsFreedRange) {
  Device dev = make_checked();
  {
    Stream s(dev, "s");
    const double* stale = nullptr;
    {
      Buffer b = dev.alloc(64);
      stale = b.data();
    }
    // Re-allocating may or may not land on the same address; on_alloc
    // drops any freed marker it overlaps, so a fresh buffer's own range
    // is always clean.
    Buffer b2 = dev.alloc(64);
    s.enqueue_annotated(0.0, "fresh", {span_write(b2.data(), 64)}, [] {});
    if (b2.data() == stale) {
      EXPECT_EQ(dev.hazard()->count_of(Kind::UseAfterFree), 0u);
    }
  }
  EXPECT_EQ(dev.hazard()->count_of(Kind::UseAfterFree), 0u);
}

TEST(Hazard, LiveBuffersReportAsLeaks) {
  Device dev = make_checked();
  Buffer a = dev.alloc(16);
  Buffer b = dev.alloc(32);
  dev.hazard()->report_live_buffers_as_leaks();
  // Dedup collapses same-label leaks into one record with the total count.
  EXPECT_EQ(dev.hazard()->count_of(Kind::Leak), 2u);
  EXPECT_EQ(dev.hazard()->distinct_of(Kind::Leak), 1u);
}

TEST(Hazard, BufferSelfMoveAssignIsSafe) {
  Device dev = make_checked();
  Buffer b = dev.alloc(64);
  const double* ptr = b.data();
  Buffer& alias = b;
  b = std::move(alias);
  EXPECT_TRUE(b.allocated());
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b.count(), 64u);
  // The self-move must not have registered a free: touching the buffer is
  // not use-after-free and the allocation is still accounted.
  Stream s(dev, "s");
  s.enqueue_annotated(0.0, "toucher", {span_write(b.data(), 64)}, [] {});
  EXPECT_EQ(dev.hazard()->count_of(Kind::UseAfterFree), 0u);
  EXPECT_EQ(dev.hbm_used(), 64 * sizeof(double));
}

TEST(Hazard, DedupCountsRepeatedViolations) {
  Device dev = make_checked();
  Buffer b = dev.alloc(16);
  {
    Stream s(dev, "s");
    s.enqueue_annotated(0.0, "dev_writer", {span_write(b.data(), 16)}, [] {});
    for (int i = 0; i < 5; ++i) {
      HostAccessScope guard(dev.hazard(), "host_writer",
                            {span_write(b.data(), 16)});
    }
  }
  EXPECT_EQ(dev.hazard()->count_of(Kind::HostDevice), 5u);
  EXPECT_EQ(dev.hazard()->distinct_of(Kind::HostDevice), 1u);
  const auto records = dev.hazard()->report();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].op_a, "host_writer");
  EXPECT_STREQ(records[0].op_b, "dev_writer");
  EXPECT_EQ(records[0].count, 5u);
  EXPECT_NE(dev.hazard()->format_report().find("host-vs-device"),
            std::string::npos);
}

TEST(Hazard, MatrixEnvelopesOfDisjointColumnBandsAreDisjoint) {
  // The guarantee the banded multi-stream update relies on: bands are
  // disjoint column ranges of one lda-strided matrix, so their envelopes
  // must not overlap (m <= lda).
  Device dev = make_checked();
  const long lda = 32, m = 32;
  Buffer a = dev.alloc(static_cast<std::size_t>(lda) * 48);
  {
    Stream s0(dev, "s0"), s1(dev, "s1");
    s0.enqueue_annotated(0.0, "band0",
                         {span_matrix(a.data(), m, 16, lda, true)}, [] {});
    s1.enqueue_annotated(
        0.0, "band1", {span_matrix(a.data() + 16 * lda, m, 32, lda, true)},
        [] {});
  }
  EXPECT_EQ(dev.hazard()->violation_count(), 0u);
}

TEST(Hazard, PruneKeepsDetectionExact) {
  // Drive well past the prune threshold with fully fenced traffic, then
  // verify a genuine violation is still caught (pruning only drops
  // entries every clock dominates).
  Device dev = make_checked();
  Buffer b = dev.alloc(256);
  {
    Stream s0(dev, "s0"), s1(dev, "s1");
    for (int i = 0; i < 200; ++i) {
      s0.enqueue_annotated(0.0, "ping", {span_write(b.data(), 128)}, [] {});
      Event e = s0.record();
      s1.wait_event(e);
      s1.enqueue_annotated(0.0, "pong", {span_read(b.data(), 128)}, [] {});
      Event e2 = s1.record();
      s0.wait_event(e2);
    }
    EXPECT_EQ(dev.hazard()->violation_count(), 0u);
    s0.enqueue_annotated(0.0, "raceful", {span_write(b.data() + 128, 128)},
                         [] {});
    s1.enqueue_annotated(0.0, "racer", {span_write(b.data() + 128, 128)},
                         [] {});
  }
  EXPECT_EQ(dev.hazard()->count_of(Kind::UnorderedStreams), 1u);
}

}  // namespace
}  // namespace hplx::device
