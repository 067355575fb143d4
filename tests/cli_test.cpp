// Unit tests for the CLI argument parser.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "palu/cli/args.hpp"
#include "palu/common/error.hpp"

namespace palu::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, SpaceSeparatedValues) {
  const auto args = parse({"--nodes", "5000", "--alpha", "2.5"});
  EXPECT_EQ(args.get_int("nodes", 0), 5000);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 2.5);
}

TEST(Args, EqualsSeparatedValues) {
  const auto args = parse({"--trace=flows.txt", "--nvalid=100000"});
  EXPECT_EQ(args.get_string("trace", ""), "flows.txt");
  EXPECT_EQ(args.get_int("nvalid", 0), 100000);
}

TEST(Args, BareFlags) {
  const auto args = parse({"--csv", "--seed", "7"});
  EXPECT_TRUE(args.get_flag("csv"));
  EXPECT_FALSE(args.get_flag("verbose"));
  EXPECT_EQ(args.get_int("seed", 0), 7);
}

TEST(Args, TrailingFlag) {
  const auto args = parse({"--nvalid", "100", "--csv"});
  EXPECT_TRUE(args.get_flag("csv"));
  EXPECT_EQ(args.get_int("nvalid", 0), 100);
}

TEST(Args, DefaultsWhenAbsent) {
  const auto args = parse({});
  EXPECT_EQ(args.get_string("trace", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("n", -3), -3);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.25), 1.25);
}

TEST(Args, NegativeNumbersAsValues) {
  // "-3" must not be mistaken for an option.
  const auto args = parse({"--offset", "-3"});
  EXPECT_EQ(args.get_int("offset", 0), -3);
}

TEST(Args, RejectsMalformedInput) {
  EXPECT_THROW(parse({"loose-token"}), InvalidArgument);
  EXPECT_THROW(parse({"-x", "1"}), InvalidArgument);
}

TEST(Args, RejectsBadConversions) {
  const auto args = parse({"--n", "12x", "--f", "abc", "--flag"});
  EXPECT_THROW(args.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(args.get_double("f", 0.0), InvalidArgument);
  EXPECT_THROW(args.get_string("flag", ""), InvalidArgument);
  EXPECT_THROW(args.get_int("flag", 0), InvalidArgument);
}

TEST(Args, GetCountEnforcesItsMinimumBeforeTheUnsignedCast) {
  const auto args = parse({"--windows", "-1", "--nvalid", "0", "--queue", "8"});
  EXPECT_THROW(args.get_count("windows", 16, 0), InvalidArgument);
  EXPECT_THROW(args.get_count("nvalid", 100, 1), InvalidArgument);
  EXPECT_EQ(args.get_count("nvalid", 100, 0), 0u);
  EXPECT_EQ(args.get_count("queue", 1, 1), 8u);
  EXPECT_EQ(args.get_count("horizon", 4, 1), 4u);
  EXPECT_THROW(args.get_count("horizon", 0, 1), InvalidArgument);
}

TEST(Args, NamesListsEverything) {
  const auto args = parse({"--a", "1", "--b=2", "--c"});
  const auto names = args.names();
  EXPECT_EQ(names.size(), 3u);
  EXPECT_TRUE(args.has("a"));
  EXPECT_TRUE(args.has("b"));
  EXPECT_TRUE(args.has("c"));
}

TEST(Args, RejectsUnknownOptionsByName) {
  const auto args = parse({"--windows", "4", "--shards", "4", "--csv"});
  constexpr std::string_view kKnown[] = {"windows", "csv", "shards"};
  EXPECT_NO_THROW(args.reject_unknown(kKnown));
  constexpr std::string_view kSweep[] = {"windows", "csv"};
  try {
    args.reject_unknown(kSweep);
    FAIL() << "--shards is not a known option";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(parse({}).reject_unknown({}));
}

TEST(Args, EmptyEqualsValue) {
  const auto args = parse({"--name="});
  EXPECT_EQ(args.get_string("name", "x"), "");
}

}  // namespace
}  // namespace palu::cli
