#include <gtest/gtest.h>

#include "trace/records.hpp"

namespace hplx::trace {
namespace {

TEST(RunTrace, TotalSumsIterations) {
  RunTrace t;
  t.iterations.push_back({0, 0, 1.0, 0.9, 0.0, 0.0, 0.0});
  t.iterations.push_back({1, 64, 2.0, 1.5, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(t.total_seconds(), 3.0);
}

TEST(RunTrace, HiddenFractionCountsGpuBoundIterations) {
  RunTrace t;
  // Hidden: total == gpu. Not hidden: total far above gpu.
  t.iterations.push_back({0, 0, 1.00, 1.00, 0, 0, 0});
  t.iterations.push_back({1, 0, 1.02, 1.00, 0, 0, 0});  // within 5% slack
  t.iterations.push_back({2, 0, 2.00, 1.00, 0, 0, 0});
  t.iterations.push_back({3, 0, 3.00, 0.10, 0, 0, 0});
  EXPECT_DOUBLE_EQ(t.hidden_fraction(0.05), 0.5);
}

TEST(RunTrace, HiddenTimeFractionWeightsByDuration) {
  RunTrace t;
  t.iterations.push_back({0, 0, 3.0, 3.0, 0, 0, 0});   // hidden, 3s
  t.iterations.push_back({1, 0, 1.0, 0.1, 0, 0, 0});   // exposed, 1s
  EXPECT_DOUBLE_EQ(t.hidden_time_fraction(0.05), 0.75);
}

TEST(RunTrace, HiddenMatchesFractionPredicate) {
  const IterationRecord hidden{0, 0, 1.05, 1.00, 0, 0, 0};  // at the slack
  const IterationRecord exposed{1, 0, 1.06, 1.00, 0, 0, 0};
  EXPECT_TRUE(hidden.hidden(0.05));
  EXPECT_FALSE(exposed.hidden(0.05));
  EXPECT_TRUE(exposed.hidden(0.10));
}

TEST(RunTrace, CrossoverIsFirstExposedIteration) {
  RunTrace t;
  t.iterations.push_back({0, 0, 1.00, 1.00, 0, 0, 0});
  t.iterations.push_back({1, 64, 1.02, 1.00, 0, 0, 0});  // within slack
  t.iterations.push_back({2, 128, 2.00, 1.00, 0, 0, 0});
  t.iterations.push_back({3, 192, 1.00, 1.00, 0, 0, 0});  // hidden again
  t.iterations.push_back({4, 256, 3.00, 0.10, 0, 0, 0});
  EXPECT_EQ(t.crossover_iteration(0.05), 2);
  // A wider slack moves the crossover past iteration 2.
  EXPECT_EQ(t.crossover_iteration(1.0), 4);
}

TEST(RunTrace, CrossoverReportsTheRecordedIteration) {
  // The crossover is the record's iteration number, not its position.
  RunTrace t;
  t.iterations.push_back({7, 0, 1.0, 1.0, 0, 0, 0});
  t.iterations.push_back({9, 0, 2.0, 1.0, 0, 0, 0});
  EXPECT_EQ(t.crossover_iteration(), 9);
}

TEST(RunTrace, CrossoverIsMinusOneWhenNeverExposed) {
  RunTrace t;
  EXPECT_EQ(t.crossover_iteration(), -1);
  t.iterations.push_back({0, 0, 1.00, 1.00, 0, 0, 0});
  t.iterations.push_back({1, 64, 1.04, 1.00, 0, 0, 0});
  EXPECT_EQ(t.crossover_iteration(0.05), -1);
}

TEST(RunTrace, EmptyTraceIsZero) {
  RunTrace t;
  EXPECT_DOUBLE_EQ(t.total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(t.hidden_fraction(), 0.0);
}

TEST(HplFlops, MatchesFormula) {
  // 2/3 N^3 + 3/2 N^2 at N = 300.
  EXPECT_DOUBLE_EQ(hpl_flops(300.0),
                   (2.0 / 3.0) * 300.0 * 300.0 * 300.0 + 1.5 * 300.0 * 300.0);
}

}  // namespace
}  // namespace hplx::trace
