/// Adversarial injection suite for the comm verifier: every checker kind
/// is provoked on purpose (mismatched collectives, reserved tags, orphaned
/// messages, real deadlocks) and must produce exactly the expected
/// violation records — plus clean full-pipeline solves that must produce
/// none. The deadlock cases rely on the verifier to abort the run; if the
/// checker regresses they hang until the suite's ctest timeout.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/verify.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"
#include "tests/scoped_env.hpp"
#include "util/error.hpp"

namespace hplx::comm {
namespace {

/// Tight deadlock-detection knobs so the abort paths fire in test time.
/// `timeout` stays well above `grace` so the stable-cycle path (not the
/// hard watchdog) is what a full-cycle test exercises.
Verifier::Config fast_config(int timeout_ms = 10000) {
  Verifier::Config cfg;
  cfg.poll = std::chrono::milliseconds(5);
  cfg.grace = std::chrono::milliseconds(50);
  cfg.timeout = std::chrono::milliseconds(timeout_ms);
  return cfg;
}

// ---------------------------------------------------- collective matching

TEST(CommVerify, BcastRootMismatchIsRecordedAndLeaksSurface) {
  std::shared_ptr<Verifier> v;
  World::run(2, [&](Communicator& comm) {
    comm.fabric().enable_verifier(Verifier::Config{});
    if (comm.rank() == 0) v = comm.fabric().verifier_shared();
    // Both ranks believe they are the root: both send, neither receives.
    // The descriptor comparison catches the root skew immediately and the
    // unconsumed payloads surface as comm-level leaks at fabric teardown.
    double x = static_cast<double>(comm.rank());
    bcast(comm, &x, 1, /*root=*/comm.rank(), BcastAlgo::Binomial);
  });
  ASSERT_TRUE(v);
  EXPECT_GE(v->count_of(Verifier::Kind::CollectiveMismatch), 1u);
  EXPECT_GE(v->count_of(Verifier::Kind::OrphanMessage), 1u);
  EXPECT_EQ(v->count_of(Verifier::Kind::Deadlock), 0u);
  EXPECT_FALSE(v->format_report().empty());
}

TEST(CommVerify, AllreduceCountSkewOnSplitComm) {
  // Color 0 (world ranks 0 and 2) disagree on the reduction length; color
  // 1 runs a matching allreduce and must stay clean. The skew is caught
  // twice: as a descriptor mismatch on the child fabric and as a p2p size
  // mismatch when the wrong-length payload matches. The short hard timeout
  // rescues any rank left blocked by its peer's exception.
  std::shared_ptr<Verifier> v;
  EXPECT_THROW(
      World::run(4,
                 [&](Communicator& world) {
                   world.fabric().enable_verifier(fast_config(1500));
                   Communicator half =
                       world.split(world.rank() % 2, world.rank());
                   if (world.rank() == 0)
                     v = half.fabric().verifier_shared();
                   const std::size_t count =
                       world.rank() % 2 == 0 ? (world.rank() == 0 ? 1 : 2)
                                             : 3;
                   std::vector<double> buf(count, 1.0);
                   allreduce(half, buf.data(), buf.size(), ReduceOp::Sum);
                 }),
      hplx::Error);
  ASSERT_TRUE(v);
  EXPECT_GE(v->count_of(Verifier::Kind::CollectiveMismatch), 1u);
  EXPECT_GE(v->count_of(Verifier::Kind::P2PSizeMismatch), 1u);
}

TEST(CommVerify, MatchingCollectivesAcrossKindsStayClean) {
  std::shared_ptr<Verifier> v;
  World::run(3, [&](Communicator& comm) {
    comm.fabric().enable_verifier(Verifier::Config{});
    if (comm.rank() == 0) v = comm.fabric().verifier_shared();
    barrier(comm);
    std::vector<double> x(4, comm.rank() == 1 ? 7.0 : 0.0);
    bcast(comm, x.data(), x.size(), /*root=*/1);
    for (double d : x) {
      EXPECT_EQ(d, 7.0);
    }
    double s = 1.0;
    allreduce(comm, &s, 1, ReduceOp::Sum);
    EXPECT_EQ(s, 3.0);
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->violation_count(), 0u);
  EXPECT_TRUE(v->format_report().empty());
}

// --------------------------------------------------------- tag contract

TEST(CommVerify, ReservedAndNegativeTagsAreRecordedBeforeThrow) {
  std::shared_ptr<Verifier> v;
  World::run(2, [&](Communicator& comm) {
    comm.fabric().enable_verifier(Verifier::Config{});
    if (comm.rank() == 0) {
      v = comm.fabric().verifier_shared();
      double x = 1.0;
      // Every p2p entry point enforces the user-tag contract and records
      // the misuse before the hard check throws.
      EXPECT_THROW(comm.send(&x, 1, 1, kMaxUserTag), hplx::Error);
      EXPECT_THROW(comm.recv(&x, 1, 1, kMaxUserTag + 5), hplx::Error);
      EXPECT_THROW(comm.send(&x, 1, 1, -1), hplx::Error);
      EXPECT_THROW(comm.recv(&x, 1, 1, -2), hplx::Error);
    }
    barrier(comm);
    // The boundary value below the reserved range is legal.
    if (comm.rank() == 0) {
      double y = 2.0;
      comm.send(&y, 1, 1, kMaxUserTag - 1);
    } else {
      double y = 0.0;
      comm.recv(&y, 1, 0, kMaxUserTag - 1);
      EXPECT_EQ(y, 2.0);
    }
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->count_of(Verifier::Kind::ReservedTag), 4u);
  EXPECT_EQ(v->distinct_of(Verifier::Kind::ReservedTag), 4u);
  EXPECT_EQ(v->violation_count(), 4u);  // the legal boundary send is clean
}

TEST(CommVerify, RecordCapTruncationIsCountedAndSurfaced) {
  // Past the distinct-record cap, new sites lose their labels but never
  // their counts: a synthetic records-truncated entry carries the excess
  // so totals and the report table stay exact.
  Fabric fabric(1);
  fabric.enable_verifier(Verifier::Config{});
  std::shared_ptr<Verifier> v = fabric.verifier_shared();
  ASSERT_TRUE(v);
  constexpr int kDistinct = 300;  // cap is 256
  for (int t = 0; t < kDistinct; ++t) v->on_reserved_tag(0, -1000 - t, "send");
  EXPECT_EQ(v->violation_count(), static_cast<std::uint64_t>(kDistinct));
  EXPECT_EQ(v->count_of(Verifier::Kind::ReservedTag), 256u);
  EXPECT_EQ(v->count_of(Verifier::Kind::Truncated),
            static_cast<std::uint64_t>(kDistinct - 256));
  const auto recs = v->report();
  ASSERT_EQ(recs.size(), 257u);
  EXPECT_EQ(recs.back().kind, static_cast<int>(Verifier::Kind::Truncated));
  EXPECT_EQ(recs.back().count, static_cast<std::uint64_t>(kDistinct - 256));
  EXPECT_NE(v->format_report().find("record cap"), std::string::npos);
  // A repeat of an already-tracked site still dedups into its record.
  v->on_reserved_tag(0, -1000, "send");
  EXPECT_EQ(v->violation_count(), static_cast<std::uint64_t>(kDistinct + 1));
  EXPECT_EQ(v->report().size(), 257u);
}

TEST(CommVerify, ZeroAndMalformedEnvKnobs) {
  // 0 is a legal override (report immediately); malformed values keep the
  // default instead of being half-parsed.
  ASSERT_EQ(setenv("HPLX_COMM_GRACE_MS", "0", 1), 0);
  ASSERT_EQ(setenv("HPLX_COMM_TIMEOUT_MS", "junk", 1), 0);
  const Verifier::Config cfg = Verifier::Config::from_env();
  EXPECT_EQ(cfg.grace.count(), 0);
  EXPECT_EQ(cfg.timeout.count(), Verifier::Config{}.timeout.count());
  unsetenv("HPLX_COMM_GRACE_MS");
  unsetenv("HPLX_COMM_TIMEOUT_MS");
}

// ---------------------------------------------------------- leak detection

TEST(CommVerify, UnreceivedMessageIsReportedAtFabricTeardown) {
  std::shared_ptr<Verifier> v;
  World::run(2, [&](Communicator& comm) {
    comm.fabric().enable_verifier(Verifier::Config{});
    if (comm.rank() == 0) {
      v = comm.fabric().verifier_shared();
      const int payload[3] = {1, 2, 3};
      comm.send(payload, 3, 1, /*tag=*/42);  // rank 1 never receives it
    }
  });
  // ~Fabric ran the orphan audit; the verifier outlives it via the shared
  // handle so the record is still inspectable here.
  ASSERT_TRUE(v);
  EXPECT_EQ(v->count_of(Verifier::Kind::OrphanMessage), 1u);
  EXPECT_EQ(v->violation_count(), 1u);
}

TEST(CommVerify, BarrierTokensAreNotOrphans) {
  // A rank exits a dissemination barrier as soon as its own tokens are in;
  // tokens between two other ranks may still be queued. Those must never
  // be reported as leaks — a clean barrier-only run has zero violations.
  std::shared_ptr<Verifier> v;
  World::run(5, [&](Communicator& comm) {
    comm.fabric().enable_verifier(Verifier::Config{});
    if (comm.rank() == 0) v = comm.fabric().verifier_shared();
    for (int i = 0; i < 8; ++i) barrier(comm);
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->violation_count(), 0u);
}

// ------------------------------------------------------ deadlock detection

TEST(CommVerify, RecvRecvCycleIsDetectedAndAborted) {
  std::shared_ptr<Verifier> v;
  std::atomic<int> aborted{0};
  EXPECT_THROW(
      World::run(2,
                 [&](Communicator& comm) {
                   comm.fabric().enable_verifier(fast_config());
                   if (comm.rank() == 0)
                     v = comm.fabric().verifier_shared();
                   double x = 0.0;
                   try {
                     // Classic head-to-head: both ranks receive first.
                     comm.recv(&x, 1, 1 - comm.rank(), 7);
                   } catch (const hplx::Error&) {
                     ++aborted;
                     throw;
                   }
                 }),
      hplx::Error);
  // The stable-cycle detector must wake and abort BOTH blocked ranks —
  // the detector itself and the peer it interrupts.
  EXPECT_EQ(aborted.load(), 2);
  ASSERT_TRUE(v);
  EXPECT_GE(v->count_of(Verifier::Kind::Deadlock), 1u);
}

TEST(CommVerify, SplitAgainstBarrierIsMismatchThenDeadlock) {
  // Rank 0 enters split (a collective that can never complete alone) while
  // rank 1 enters barrier: the kind skew is recorded from the shared
  // descriptor table, then both ranks wedge — rank 0 waiting on the split
  // rendezvous, rank 1 on a barrier token that will never come. The cycle
  // detector must see the split waiter (which no message can unstick) as
  // blocked and abort both.
  std::shared_ptr<Verifier> v;
  std::atomic<int> aborted{0};
  EXPECT_THROW(
      World::run(2,
                 [&](Communicator& comm) {
                   comm.fabric().enable_verifier(fast_config());
                   if (comm.rank() == 0)
                     v = comm.fabric().verifier_shared();
                   try {
                     if (comm.rank() == 0) {
                       Communicator child = comm.split(0, 0);
                     } else {
                       barrier(comm);
                     }
                   } catch (const hplx::Error&) {
                     ++aborted;
                     throw;
                   }
                 }),
      hplx::Error);
  EXPECT_EQ(aborted.load(), 2);
  ASSERT_TRUE(v);
  EXPECT_GE(v->count_of(Verifier::Kind::CollectiveMismatch), 1u);
  EXPECT_GE(v->count_of(Verifier::Kind::Deadlock), 1u);
}

TEST(CommVerify, LoneBlockedReceiveHitsTheHardTimeout) {
  // One rank receives from a peer that never sends while the other rank
  // exits immediately: no full cycle ever forms (blocked count stays below
  // fabric size), so only the hard watchdog can rescue the run.
  std::shared_ptr<Verifier> v;
  EXPECT_THROW(
      World::run(2,
                 [&](Communicator& comm) {
                   comm.fabric().enable_verifier(fast_config(400));
                   if (comm.rank() == 0) {
                     v = comm.fabric().verifier_shared();
                     double x = 0.0;
                     comm.recv(&x, 1, 1, 3);  // rank 1 never sends
                   }
                 }),
      hplx::Error);
  ASSERT_TRUE(v);
  EXPECT_GE(v->count_of(Verifier::Kind::Deadlock), 1u);
}

// ------------------------------------------------- eager-send semantics

TEST(CommVerify, SymmetricSendrecvExchangeCannotDeadlock) {
  // Pins the transport's never-blocking send: each rank sends, then
  // receives, even when both payloads exceed the direct-delivery
  // threshold (no receive is posted yet on either side), so a symmetric
  // exchange is deadlock-free. The tight verifier knobs turn a regression
  // into a fast abort instead of a hang.
  std::shared_ptr<Verifier> v;
  World::run(2, [&](Communicator& comm) {
    comm.fabric().enable_verifier(fast_config());
    if (comm.rank() == 0) v = comm.fabric().verifier_shared();
    const int peer = 1 - comm.rank();
    const std::size_t n = (256 * 1024) / sizeof(double);  // >> eager cutoff
    std::vector<double> out(n, comm.rank() + 1.0);
    std::vector<double> in(n, 0.0);
    comm.send(out.data(), out.size(), peer, 9);
    comm.recv(in.data(), in.size(), peer, 9);
    EXPECT_EQ(in, std::vector<double>(n, peer + 1.0));
    barrier(comm);
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->violation_count(), 0u);
}

TEST(CommVerify, SendIsBufferedEagerAndSafeToReuse) {
  std::shared_ptr<Verifier> v;
  World::run(2, [&](Communicator& comm) {
    comm.fabric().enable_verifier(Verifier::Config{});
    if (comm.rank() == 0) {
      v = comm.fabric().verifier_shared();
      std::vector<int> x{1, 2, 3};
      comm.send(x.data(), x.size(), 1, 4);  // buffered-eager: returns
      x.assign(x.size(), 0);  // safe: the payload was copied at send
    } else {
      std::vector<int> x(3, 0);
      comm.recv(x.data(), x.size(), 0, 4);
      EXPECT_EQ(x, (std::vector<int>{1, 2, 3}));
    }
  });
  ASSERT_TRUE(v);
  EXPECT_EQ(v->violation_count(), 0u);
}

// ------------------------------------------------- end-to-end clean runs

core::HplConfig solve_cfg(long n, int nb, int p, int q) {
  core::HplConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.p = p;
  cfg.q = q;
  cfg.seed = 20230601;
  cfg.fact_threads = 2;
  cfg.rfact_nbmin = 8;
  cfg.verify = true;
  cfg.comm_check = true;
  return cfg;
}

core::HplResult run_cfg(const core::HplConfig& cfg) {
  core::HplResult out;
  World::run(cfg.p * cfg.q, [&](Communicator& world) {
    core::HplResult r = core::run_hpl(world, cfg);
    if (world.rank() == 0) out = std::move(r);
  });
  return out;
}

std::string describe(const std::vector<trace::ViolationRecord>& recs) {
  std::string s;
  for (const auto& r : recs) {
    s += Verifier::kind_name(static_cast<Verifier::Kind>(r.kind));
    s += ": ";
    s += r.op_a;
    s += " | ";
    s += r.detail;
    s += "\n";
  }
  return s;
}

using SweepParam =
    std::tuple<int /*p*/, int /*q*/, core::PipelineMode, core::PrecisionMode,
               core::PivotMode>;

class CommCheckSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CommCheckSweep, FullSolveIsViolationFree) {
  const auto [p, q, mode, prec, piv] = GetParam();
  core::HplConfig cfg = solve_cfg(96, 16, p, q);
  cfg.pipeline = mode;
  cfg.precision = prec;
  cfg.pivoting = piv;
  cfg.diag_dominant = piv == core::PivotMode::None;
  const core::HplResult r = run_cfg(cfg);
  EXPECT_TRUE(r.comm_checked);
  EXPECT_TRUE(r.comm_violations.empty()) << describe(r.comm_violations);
  EXPECT_TRUE(r.verify.passed) << "residual=" << r.verify.residual;
}

INSTANTIATE_TEST_SUITE_P(
    PipelinesPrecisionsGrids, CommCheckSweep,
    ::testing::Values(
        SweepParam{1, 1, core::PipelineMode::Simple,
                   core::PrecisionMode::FP64, core::PivotMode::Full},
        SweepParam{1, 3, core::PipelineMode::Lookahead,
                   core::PrecisionMode::FP64, core::PivotMode::Full},
        SweepParam{3, 1, core::PipelineMode::Simple,
                   core::PrecisionMode::FP64, core::PivotMode::Full},
        SweepParam{2, 2, core::PipelineMode::LookaheadSplit,
                   core::PrecisionMode::FP64, core::PivotMode::Full},
        SweepParam{2, 2, core::PipelineMode::LookaheadSplit,
                   core::PrecisionMode::MXP32, core::PivotMode::Full},
        SweepParam{2, 2, core::PipelineMode::Lookahead,
                   core::PrecisionMode::FP64, core::PivotMode::None}));

TEST(CommCheckSolve, CommAndHazardCheckersComposeCleanly) {
  core::HplConfig cfg = solve_cfg(96, 16, 2, 2);
  cfg.hazard_check = true;
  const core::HplResult r = run_cfg(cfg);
  EXPECT_TRUE(r.comm_checked);
  EXPECT_TRUE(r.hazard_checked);
  EXPECT_TRUE(r.comm_violations.empty()) << describe(r.comm_violations);
  EXPECT_TRUE(r.hazards.empty());
  EXPECT_TRUE(r.verify.passed);
}

TEST(CommCheckSolve, CheckerOffLeavesResultUnchecked) {
  const ScopedUnsetEnv no_env("HPLX_COMM_CHECK");
  core::HplConfig cfg = solve_cfg(64, 16, 1, 2);
  cfg.comm_check = false;
  const core::HplResult r = run_cfg(cfg);
  EXPECT_FALSE(r.comm_checked);
  EXPECT_TRUE(r.comm_violations.empty());
}

TEST(CommCheckSolve, EnvVarEnablesChecking) {
  ASSERT_EQ(setenv("HPLX_COMM_CHECK", "1", 1), 0);
  EXPECT_TRUE(comm_check_env_enabled());
  core::HplConfig cfg = solve_cfg(64, 16, 1, 2);
  cfg.comm_check = false;  // the env var alone must turn checking on
  const core::HplResult r = run_cfg(cfg);
  EXPECT_TRUE(r.comm_checked);
  EXPECT_TRUE(r.comm_violations.empty()) << describe(r.comm_violations);
  ASSERT_EQ(setenv("HPLX_COMM_CHECK", "0", 1), 0);
  EXPECT_FALSE(comm_check_env_enabled());
  unsetenv("HPLX_COMM_CHECK");
}

}  // namespace
}  // namespace hplx::comm
