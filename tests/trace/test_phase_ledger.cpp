#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "trace/phase_ledger.hpp"

namespace hplx::trace {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(PhaseLedger, AddSumsPerPhase) {
  PhaseLedger l;
  l.add(Phase::Mpi, 0.25);
  l.add(Phase::Mpi, 0.5);
  l.add(Phase::PanelBcast, 2.0);
  l.add_wire_bytes(64);
  l.add_wire_bytes(32);
  EXPECT_DOUBLE_EQ(l.seconds(Phase::Mpi), 0.75);
  EXPECT_DOUBLE_EQ(l.seconds(Phase::PanelBcast), 2.0);
  EXPECT_EQ(l.seconds(Phase::Fact), 0.0);
  EXPECT_EQ(l.seconds(Phase::RsWire), 0.0);
  EXPECT_EQ(l.rs_wire_bytes(), 96);
}

TEST(PhaseLedger, SinceIsTheDifferenceFromAnEarlierCopy) {
  PhaseLedger l;
  l.add(Phase::Fact, 1.0);
  l.add_wire_bytes(10);
  const PhaseLedger start = l;
  l.add(Phase::Fact, 0.5);
  l.add(Phase::RsWire, 0.25);
  l.add_wire_bytes(7);
  const PhaseLedger d = l.since(start);
  EXPECT_DOUBLE_EQ(d.seconds(Phase::Fact), 0.5);
  EXPECT_DOUBLE_EQ(d.seconds(Phase::RsWire), 0.25);
  EXPECT_EQ(d.seconds(Phase::Mpi), 0.0);
  EXPECT_EQ(d.rs_wire_bytes(), 7);
}

TEST(PhaseScope, ChargesItsLifetime) {
  PhaseLedger l;
  {
    PhaseScope s(&l, Phase::Mpi);
    sleep_ms(2);
  }
  EXPECT_GE(l.seconds(Phase::Mpi), 0.002);
  EXPECT_EQ(l.seconds(Phase::Fact), 0.0);
}

TEST(PhaseScope, NestedScopesAreExclusive) {
  PhaseLedger l;
  const double t0 = wall_seconds();
  {
    PhaseScope fact(&l, Phase::Fact);
    sleep_ms(2);
    {
      PhaseScope mpi(&l, Phase::Mpi);
      sleep_ms(20);
    }
    sleep_ms(2);
  }
  const double wall = wall_seconds() - t0;
  EXPECT_GE(l.seconds(Phase::Mpi), 0.020);
  EXPECT_GE(l.seconds(Phase::Fact), 0.004);
  // The outer scope leaves the nested 20 ms out, so the two together
  // cover no more than the wall time they ran in.
  EXPECT_LE(l.seconds(Phase::Fact) + l.seconds(Phase::Mpi), wall);
}

TEST(SubPhaseScope, NamesAPartOfTheEnclosingPhase) {
  PhaseLedger l;
  const double t0 = wall_seconds();
  {
    PhaseScope fact(&l, Phase::Fact);
    sleep_ms(2);
    {
      PhaseScope mpi(&l, Phase::Mpi);
      SubPhaseScope pivot(&l, Phase::Pivot);
      sleep_ms(10);
    }
    {
      PhaseScope mpi(&l, Phase::Mpi);
      sleep_ms(2);
    }
  }
  const double wall = wall_seconds() - t0;
  EXPECT_GE(l.seconds(Phase::Pivot), 0.010);
  // The sub-phase stays inside Mpi: Mpi holds both of its scopes, and
  // Fact still leaves all of Mpi out.
  EXPECT_GE(l.seconds(Phase::Mpi), l.seconds(Phase::Pivot) + 0.002);
  EXPECT_GE(l.seconds(Phase::Fact), 0.002);
  EXPECT_LE(l.seconds(Phase::Fact) + l.seconds(Phase::Mpi), wall);
  EXPECT_EQ(l.seconds(Phase::PanelBcast), 0.0);
}

TEST(SubPhaseScope, NullLedgerIsANoOp) {
  SubPhaseScope s(nullptr, Phase::PanelBcast);
  SUCCEED();
}

}  // namespace
}  // namespace hplx::trace
