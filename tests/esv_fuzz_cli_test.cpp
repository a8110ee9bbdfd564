// End-to-end tests for the esv-fuzz command line: usage mistakes exit 2 with
// a message naming the flag and the refused value, before any seed runs.
// Numeric values are strict, so a value with trailing bytes is refused
// rather than read as its numeric prefix (or as 0). The binary path is
// injected by CMake.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cli_runner.hpp"

#ifndef ESV_FUZZ_BIN
#error "ESV_FUZZ_BIN must be defined by the build"
#endif

namespace {

using esv::cli::RunResult;

RunResult run_fuzz(const std::string& args) {
  return esv::cli::run_command(std::string(ESV_FUZZ_BIN) + " " + args);
}

TEST(EsvFuzzCliTest, BadValuesExitTwoNamingFlagAndValue) {
  const std::pair<const char*, const char*> cases[] = {
      // Read as 0 before: planted a corruption in seed 0 and reported a
      // false disagreement (exit 1).
      {"--seeds=0..0 --corrupt-seed=x", "bad --corrupt-seed value 'x'"},
      // Read as 0 and clamped to one thread before (exit 0).
      {"--seeds=0..0 --jobs=abc", "bad --jobs value 'abc'"},
      {"--seeds=1..x", "bad --seeds value '1..x'"},
      {"--seeds=0..0 --jobs=-2", "bad --jobs value '-2'"},
      {"--seeds=0..0 --corrupt-property=1x",
       "bad --corrupt-property value '1x'"},
      {"--seeds=18446744073709551616", "bad --seeds value"},
      {"--seeds=0..0 --frobnicate", "unknown option '--frobnicate'"},
      // Bounded by nothing but the seed count before: one seed keeps this
      // probe at one thread whichever build runs it.
      {"--seeds=0..0 --jobs=1025", "bad --jobs value '1025'"},
  };
  for (const auto& [args, message] : cases) {
    const RunResult r = run_fuzz(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage: esv-fuzz"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(EsvFuzzCliTest, HelpAnswersBeforeLaterArguments) {
  for (const char* args : {"--help", "-h --frobnicate"}) {
    const RunResult r = run_fuzz(args);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage: esv-fuzz"), std::string::npos) << args;
  }
}

TEST(EsvFuzzCliTest, PlantedCorruptionIsReported) {
  const RunResult r = run_fuzz("--seeds=2..3 --corrupt-seed=3 --quiet");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("seed 3 DISAGREES"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("2 seed(s) [2..3]"), std::string::npos) << r.output;
}

}  // namespace
