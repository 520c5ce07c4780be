#include "util/cli.h"

#include <gtest/gtest.h>

namespace subcover {
namespace {

cli_flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return {static_cast<int>(argv.size()), argv.data()};
}

TEST(CliFlags, DefaultsWhenAbsent) {
  auto f = make({});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_EQ(f.get_double("eps", 0.5), 0.5);
  EXPECT_TRUE(f.get_bool("verbose", true));
  EXPECT_EQ(f.get_string("mode", "fast"), "fast");
  f.finish();
}

TEST(CliFlags, ParsesValues) {
  auto f = make({"--n=42", "--eps=0.25", "--verbose", "--mode=slow"});
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("eps", 0), 0.25);
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_string("mode", ""), "slow");
  f.finish();
}

TEST(CliFlags, BoolExplicit) {
  auto f = make({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

// Usage errors surface at finish(): the message and the accepted flags go
// to stderr and the process exits with status 2. A malformed value reads as
// the default until then.
TEST(CliFlags, RejectsBadInt) {
  auto f = make({"--n=12x"});
  EXPECT_EQ(f.get_int("n", 3), 3);
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2),
              "--n expects an integer, got '12x'(.|\n)*accepted flags: --n=3");
}

TEST(CliFlags, RejectsBadDouble) {
  auto f = make({"--eps=abc"});
  EXPECT_EQ(f.get_double("eps", 0.5), 0.5);
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2), "--eps expects a number");
}

TEST(CliFlags, RejectsBadBool) {
  auto f = make({"--v=yes"});
  EXPECT_FALSE(f.get_bool("v", false));
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2), "--v expects true/false");
}

TEST(CliFlags, RejectsNonFlagArgument) {
  auto f = make({"4"});
  (void)f.get_string("workers", "0");
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2),
              "expected --name\\[=value\\], got '4'(.|\n)*accepted flags: --workers=0");
}

TEST(CliFlags, BareFlagThenWordSuggestsEquals) {
  // "--subs 1200": one error suggesting --subs=1200; the bare flag is not
  // recorded as true, so no second "expects an integer, got 'true'".
  auto f = make({"--subs", "1200"});
  EXPECT_EQ(f.get_int("subs", 7), 7);
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2),
              "^prog: expected --subs=1200, got '--subs 1200'\naccepted flags: --subs=7");
}

TEST(CliFlags, FinishRejectsUnknownFlags) {
  auto f = make({"--unknown=1"});
  (void)f.get_bool("csv", false);
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2),
              "unknown flag --unknown(.|\n)*accepted flags: --csv=false");
}

TEST(CliFlags, NegativeNumbers) {
  auto f = make({"--n=-5", "--x=-0.5"});
  EXPECT_EQ(f.get_int("n", 0), -5);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0), -0.5);
}

}  // namespace
}  // namespace subcover
