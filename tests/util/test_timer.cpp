#include <gtest/gtest.h>

#include <thread>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace hplx {
namespace {

TEST(Timer, AccumulatesIntervals) {
  Timer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double dt = t.stop();
  EXPECT_GT(dt, 0.0);
  EXPECT_DOUBLE_EQ(t.total(), dt);
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  EXPECT_GT(t.total(), dt);
}

TEST(Timer, DoubleStartThrows) {
  Timer t;
  t.start();
  EXPECT_THROW(t.start(), Error);
}

TEST(Timer, StopWithoutStartThrows) {
  Timer t;
  EXPECT_THROW(t.stop(), Error);
}

TEST(Timer, ResetClears) {
  Timer t;
  t.start();
  t.stop();
  t.reset();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
  EXPECT_FALSE(t.running());
}

TEST(WallSeconds, Monotonic) {
  const double a = wall_seconds();
  const double b = wall_seconds();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace hplx
