#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace esv::common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(RngTest, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.next_in_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit in 200 draws
}

TEST(RngTest, NextInRangeSinglePoint) {
  Rng rng(3);
  EXPECT_EQ(rng.next_in_range(5, 5), 5);
}

TEST(RngTest, NextInRangeRejectsInverted) {
  Rng rng(3);
  EXPECT_THROW(rng.next_in_range(2, 1), std::invalid_argument);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.next_chance(1, 1));
    EXPECT_FALSE(rng.next_chance(0, 100));
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_chance(25, 100)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.25, 0.03);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto idx = rng.next_weighted({0, 5, 0, 3});
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(RngTest, WeightedAllZeroThrows) {
  Rng rng(13);
  EXPECT_THROW(rng.next_weighted({0, 0}), std::invalid_argument);
}

TEST(StringsTest, JoinBasic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimEdges) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, WordsSplitAtSpacesAndTabsAndStopAtHash) {
  EXPECT_EQ(words("  bitflip\tled  window 1..2 # note"),
            (std::vector<std::string>{"bitflip", "led", "window", "1..2"}));
  EXPECT_EQ(words("a#b c"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(words("x\r"), (std::vector<std::string>{"x\r"}));
  EXPECT_TRUE(words("").empty());
  EXPECT_TRUE(words(" \t ").empty());
  EXPECT_TRUE(words("# only a comment").empty());
}

TEST(StringsTest, ParseU64Base16TakesHexDigitsOnly) {
  EXPECT_EQ(parse_u64("ff", 16), 255u);
  EXPECT_EQ(parse_u64("FFFFFFFFFFFFFFFF", 16), UINT64_MAX);
  EXPECT_EQ(parse_u64("00aB", 16), 0xABu);
  for (const char* bad : {"", "0x10", "-1", "+1", "g", "1 ",
                          "10000000000000000"}) {
    EXPECT_EQ(parse_u64(bad, 16), std::nullopt) << "'" << bad << "'";
  }
}

TEST(StringsTest, ParseUintRefusesValuesPastTheFieldAndKeepsOut) {
  std::uint32_t narrow = 7;
  EXPECT_TRUE(parse_uint("4294967295", narrow));
  EXPECT_EQ(narrow, UINT32_MAX);
  EXPECT_FALSE(parse_uint("4294967296", narrow));
  EXPECT_FALSE(parse_uint("1x", narrow));
  EXPECT_EQ(narrow, UINT32_MAX);
  std::uint64_t wide = 0;
  EXPECT_TRUE(parse_uint("18446744073709551615", wide));
  EXPECT_EQ(wide, UINT64_MAX);
}

// --- flag table -----------------------------------------------------------

TEST(FlagsTest, ParseU64AcceptsOnlyPlainDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("1"), 1u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616", "1.5", "abc"}) {
    EXPECT_EQ(parse_u64(bad), std::nullopt) << "'" << bad << "'";
  }
}

// Parses `args` (without the program name) through `flags`.
bool parse(FlagTable& flags, std::vector<std::string> args,
           std::string& error, std::vector<std::string>* positional = nullptr) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags.parse(static_cast<int>(argv.size()), argv.data(), positional,
                     error) &&
         flags.check(error);
}

FlagTable make_table() {
  return FlagTable([](const std::string& arg) { return "unknown " + arg; });
}

TEST(FlagsTest, NumberHonoursMinMaxAndTheTargetType) {
  unsigned jobs = 1;
  std::uint64_t steps = 0;
  auto flags = make_table();
  flags.number("--jobs", jobs, "--jobs must be positive", 1, 8);
  flags.number("--steps", steps, "--steps must be an integer");
  std::string error;
  EXPECT_TRUE(parse(flags, {"--jobs=8", "--steps=18446744073709551615"},
                    error))
      << error;
  EXPECT_EQ(jobs, 8u);
  EXPECT_EQ(steps, 18446744073709551615u);
  for (const char* bad : {"--jobs=0", "--jobs=9", "--jobs=-1", "--jobs=4x",
                          "--jobs=", "--jobs= 2"}) {
    auto table = make_table();
    table.number("--jobs", jobs, "--jobs must be positive", 1, 8);
    EXPECT_FALSE(parse(table, {bad}, error)) << bad;
    EXPECT_EQ(error, "--jobs must be positive") << bad;
  }
  // Without an explicit max, the target type bounds the value.
  auto narrow = make_table();
  narrow.number("--jobs", jobs, "--jobs must be positive");
  EXPECT_FALSE(parse(narrow, {"--jobs=4294967296"}, error));
}

TEST(FlagsTest, EmptyMessageNamesFlagAndValue) {
  unsigned jobs = 1;
  auto flags = make_table();
  flags.number("--jobs", jobs, "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--jobs=abc"}, error));
  EXPECT_EQ(error, "bad --jobs value 'abc'");
}

TEST(FlagsTest, RangeFormsAndMessages) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  auto flags = make_table();
  flags.range("--campaign", lo, hi, "expects LO..HI", 0, false,
              "empty range");
  std::string error;
  EXPECT_TRUE(parse(flags, {"--campaign=3..5"}, error)) << error;
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 5u);
  EXPECT_TRUE(flags.given("--campaign"));
  for (const auto& [bad, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"--campaign=5..3", "empty range"},
           {"--campaign=1..x", "expects LO..HI"},
           {"--campaign=-1..3", "expects LO..HI"},
           {"--campaign=1-3", "expects LO..HI"},
           {"--campaign=7", "expects LO..HI"},
           {"--campaign=1..18446744073709551616", "expects LO..HI"}}) {
    EXPECT_FALSE(parse(flags, {bad}, error)) << bad;
    EXPECT_EQ(error, message) << bad;
  }

  // Both --seeds forms: a bare count N is 0..N-1.
  auto seeds = make_table();
  seeds.range("--seeds", lo, hi, "", 0, /*bare_count=*/true);
  EXPECT_TRUE(parse(seeds, {"--seeds=10"}, error)) << error;
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 9u);
  EXPECT_TRUE(parse(seeds, {"--seeds=4..4"}, error)) << error;
  EXPECT_EQ(lo, 4u);
  EXPECT_EQ(hi, 4u);
  EXPECT_FALSE(parse(seeds, {"--seeds=0"}, error));
  EXPECT_EQ(error, "bad --seeds value '0'");

  auto client = make_table();
  client.range("--campaign", lo, hi, "1 <= LO <= HI", /*min_lo=*/1);
  EXPECT_FALSE(parse(client, {"--campaign=0..2"}, error));
  EXPECT_EQ(error, "1 <= LO <= HI");
}

TEST(FlagsTest, ChoiceAndSeconds) {
  bool on = true;
  double seconds = 0.0;
  auto flags = make_table();
  flags.choice<bool>(
      "--timing", on,
      [](std::string_view value) -> std::optional<bool> {
        if (value == "on" || value == "off") return value == "on";
        return std::nullopt;
      },
      "--timing must be on or off");
  flags.seconds("--timeout", seconds, "--timeout must be seconds");
  std::string error;
  EXPECT_TRUE(parse(flags, {"--timing=off", "--timeout=1.5"}, error));
  EXPECT_FALSE(on);
  EXPECT_DOUBLE_EQ(seconds, 1.5);
  EXPECT_TRUE(parse(flags, {"--timeout=2e1"}, error));
  EXPECT_DOUBLE_EQ(seconds, 20.0);
  EXPECT_TRUE(parse(flags, {"--timeout=.25"}, error));
  EXPECT_DOUBLE_EQ(seconds, 0.25);
  EXPECT_FALSE(parse(flags, {"--timing=maybe"}, error));
  EXPECT_EQ(error, "--timing must be on or off");
  for (const char* bad : {"--timeout=", "--timeout=-1", "--timeout=+1",
                          "--timeout= 1", "--timeout=1s", "--timeout=inf",
                          "--timeout=nan", "--timeout=0x10",
                          "--timeout=1e999"}) {
    EXPECT_FALSE(parse(flags, {bad}, error)) << bad;
    EXPECT_EQ(error, "--timeout must be seconds") << bad;
  }
}

TEST(FlagsTest, UnknownArgumentsAndPositionals) {
  bool quiet = false;
  auto flags = make_table();
  flags.toggle("--quiet", quiet);
  std::vector<std::string> positional;
  std::string error;
  EXPECT_TRUE(parse(flags, {"a.c", "--quiet", "b=c"}, error, &positional));
  EXPECT_TRUE(quiet);
  EXPECT_EQ(positional, (std::vector<std::string>{"a.c", "b=c"}));
  EXPECT_FALSE(parse(flags, {"--quiet=1"}, error, &positional));
  EXPECT_EQ(error, "unknown --quiet=1");
  EXPECT_FALSE(parse(flags, {"--loud"}, error, &positional));
  EXPECT_EQ(error, "unknown --loud");
  EXPECT_FALSE(parse(flags, {"a.c"}, error));  // no positionals allowed
  EXPECT_EQ(error, "unknown a.c");
}

TEST(FlagsTest, RulesRunInTableOrderOverGivenFlags) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  unsigned jobs = 1;
  std::string journal;
  std::string socket;
  bool resume = false;
  std::uint64_t budget = 0;
  const auto table = [&] {
    auto flags = make_table();
    flags.text("--socket", socket).required();
    flags.number("--jobs", jobs, "bad jobs").campaign_only();
    flags.toggle("--resume", resume).needs("--journal");
    flags.number("--budget", budget, "bad budget")
        .zero_means_off()
        .needs("--journal");
    flags.text("--journal", journal).rule("--campaign", false, "no journal");
    flags.range("--campaign", lo, hi, "bad range");
    return flags;
  };
  std::string error;
  auto flags = table();
  EXPECT_FALSE(parse(flags, {"--jobs=2", "--resume"}, error));
  EXPECT_EQ(error, "--socket is required");
  flags = table();
  EXPECT_FALSE(parse(flags, {"--socket=", "--jobs=2"}, error));
  EXPECT_EQ(error, "--socket is required");  // empty text leaves it unset
  flags = table();
  EXPECT_FALSE(parse(flags, {"--socket=s", "--resume", "--jobs=2"}, error));
  EXPECT_EQ(error, "--jobs is only available in campaign mode");
  flags = table();
  EXPECT_FALSE(parse(flags, {"--socket=s", "--resume"}, error));
  EXPECT_EQ(error, "--resume requires --journal");
  flags = table();
  EXPECT_TRUE(parse(flags, {"--socket=s", "--budget=0"}, error)) << error;
  EXPECT_FALSE(flags.given("--budget"));
  flags = table();
  EXPECT_FALSE(parse(flags, {"--socket=s", "--budget=5"}, error));
  EXPECT_EQ(error, "--budget requires --journal");
  flags = table();
  EXPECT_FALSE(
      parse(flags, {"--socket=s", "--journal=j", "--campaign=1..2"}, error));
  EXPECT_EQ(error, "no journal");
  flags = table();
  EXPECT_TRUE(parse(flags, {"--socket=s", "--journal=", "--campaign=1..2",
                            "--jobs=1"},
                    error))
      << error;
}

TEST(FlagsTest, FileOrInline) {
  EXPECT_EQ(read_file("/nonexistent/esv/file"), std::nullopt);
  EXPECT_EQ(file_or_inline("wire.tx drop"), "wire.tx drop");
}

}  // namespace
}  // namespace esv::common
