#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"
#include "util/options.hpp"

namespace hplx {
namespace {

Options make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, ParsesKeyValue) {
  auto opt = make({"--n=1024", "--nb=64"});
  EXPECT_EQ(opt.get_int("n", 0), 1024);
  EXPECT_EQ(opt.get_int("nb", 0), 64);
}

TEST(Options, FallbacksWhenAbsent) {
  auto opt = make({});
  EXPECT_EQ(opt.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(opt.get_double("split", 0.5), 0.5);
  EXPECT_EQ(opt.get("name", "dflt"), "dflt");
  EXPECT_FALSE(opt.has("n"));
}

TEST(Options, BareFlagIsTrue) {
  auto opt = make({"--verbose"});
  EXPECT_TRUE(opt.get_bool("verbose", false));
}

TEST(Options, BooleanSpellings) {
  auto opt = make({"--a=true", "--b=off", "--c=1", "--d=no"});
  EXPECT_TRUE(opt.get_bool("a", false));
  EXPECT_FALSE(opt.get_bool("b", true));
  EXPECT_TRUE(opt.get_bool("c", false));
  EXPECT_FALSE(opt.get_bool("d", true));
}

TEST(Options, RejectsMalformedArgument) {
  EXPECT_THROW(make({"positional"}), Error);
}

TEST(Options, RejectsNonNumeric) {
  auto opt = make({"--n=abc"});
  EXPECT_THROW(opt.get_int("n", 0), Error);
}

/// The message of the Error that `fn` throws, or "" when it returns.
template <class Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Options, RejectsEmptyNumbers) {
  auto opt = make({"--n=", "--frac="});
  EXPECT_NE(error_of([&] { opt.get_int("n", 7); }).find("--n "),
            std::string::npos);
  EXPECT_NE(error_of([&] { opt.get_double("frac", 0.5); }).find("--frac "),
            std::string::npos);
}

TEST(Options, RejectsOutOfRangeInteger) {
  auto opt =
      make({"--big=99999999999999999999", "--small=-99999999999999999999"});
  const std::string big = error_of([&] { opt.get_int("big", 0); });
  EXPECT_NE(big.find("--big is out of range"), std::string::npos) << big;
  const std::string small = error_of([&] { opt.get_int("small", 0); });
  EXPECT_NE(small.find("--small is out of range"), std::string::npos)
      << small;
}

TEST(Options, RejectsInfinityAndNan) {
  auto opt = make({"--a=inf", "--b=nan", "--c=-INFINITY"});
  for (const char* key : {"a", "b", "c"}) {
    const std::string err = error_of([&] { opt.get_double(key, 1.0); });
    EXPECT_NE(err.find(std::string("--") + key + " is not finite"),
              std::string::npos)
        << key << ": " << err;
  }
}

TEST(Options, RejectsOverflowingDouble) {
  // strtod returns HUGE_VAL for these and leaves `end` at the NUL.
  auto opt = make({"--big=1e999", "--neg=-1e999"});
  EXPECT_NE(error_of([&] { opt.get_double("big", 0.0); })
                .find("--big is not finite"),
            std::string::npos);
  EXPECT_NE(error_of([&] { opt.get_double("neg", 0.0); })
                .find("--neg is not finite"),
            std::string::npos);
  // Tiny values are still numbers.
  auto tiny = make({"--eps=1e-300"});
  EXPECT_DOUBLE_EQ(tiny.get_double("eps", 0.0), 1e-300);
}

TEST(Options, RejectsLeadingBlank) {
  // strtol/strtod skip leading whitespace; the value must start with its
  // number as it must end with it.
  auto opt = make({"--n= 7", "--frac=\t0.5"});
  EXPECT_NE(error_of([&] { opt.get_int("n", 0); }).find("--n is not an integer"),
            std::string::npos);
  EXPECT_NE(error_of([&] { opt.get_double("frac", 0.0); })
                .find("--frac is not a number"),
            std::string::npos);
}

TEST(Options, DoubleParsing) {
  auto opt = make({"--frac=0.75"});
  EXPECT_DOUBLE_EQ(opt.get_double("frac", 0.0), 0.75);
}

TEST(Options, UnusedTracksUnreadKeys) {
  auto opt = make({"--used=1", "--typo=2"});
  (void)opt.get_int("used", 0);
  const auto unused = opt.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

}  // namespace
}  // namespace hplx
