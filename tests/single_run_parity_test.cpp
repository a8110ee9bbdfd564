// The single run and the campaign runner build every seed through the same
// stack (campaign::SeedStack), so `esv-verify --seed=N` must reach the
// same verdicts at the same steps as seed N of a one-seed `--campaign`
// report, and write the same event trace byte for byte (the trace records
// every proposition change, so it also pins the stimulus a budget-bound run
// saw). Covered: the blinker sample and the three corpus studies in
// examples/data, both approaches, every monitor mode, and each corpus study
// with and without its fault plan. The binary path and data directory are
// injected by CMake.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "cli_runner.hpp"
#include "dist/wire.hpp"

#ifndef ESV_VERIFY_BIN
#error "ESV_VERIFY_BIN must be defined by the build"
#endif
#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif

namespace {

constexpr std::uint64_t kSeed = 7;
constexpr const char* kMaxSteps = " --max-steps=30000";

using esv::cli::RunResult;
using esv::cli::read_file;

RunResult run_cli(const std::string& args) {
  return esv::cli::run_command(std::string(ESV_VERIFY_BIN) + " " + args);
}

/// Per property: (verdict, decided-at step; 0 while pending).
using Outcomes = std::map<std::string, std::pair<std::string, std::uint64_t>>;

/// Parses the checker report a single run prints:
///   SCTC sctc after <steps> steps (<mode> mode)
///     [<verdict>] <name>: <text>  (decided at step <S>, t=...)
Outcomes parse_single(const std::string& output, std::uint64_t& steps) {
  Outcomes outcomes;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("SCTC ", 0) == 0) {
      const std::size_t at = line.find(" after ");
      steps = std::stoull(line.substr(at + 7));
    } else if (line.rfind("  [", 0) == 0) {
      const std::size_t close = line.find(']');
      const std::size_t colon = line.find(':', close);
      const std::string name = line.substr(close + 2, colon - close - 2);
      std::uint64_t step = 0;
      const std::size_t decided = line.find("(decided at step ");
      if (decided != std::string::npos) {
        step = std::stoull(line.substr(decided + 17));
      }
      outcomes[name] = {line.substr(3, close - 3), step};
    }
  }
  return outcomes;
}

/// Reads seed kSeed's outcomes from a campaign's JSON report.
Outcomes parse_campaign(const std::string& path, std::uint64_t& steps) {
  const esv::dist::Json report = esv::dist::Json::parse(read_file(path));
  const auto& names = report.at("properties").items();
  const esv::dist::Json& seed = report.at("seeds").items().at(0);
  EXPECT_EQ(seed.at("seed").as_u64(), kSeed);
  steps = seed.at("steps").as_u64();
  Outcomes outcomes;
  for (std::size_t i = 0; i < names.size(); ++i) {
    outcomes[names[i].as_string()] = {
        seed.at("verdicts").items().at(i).as_string(),
        seed.at("decided_at_step").items().at(i).as_u64()};
  }
  return outcomes;
}

class SingleRunParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SingleRunParityTest, SeedMatchesOneSeedCampaign) {
  const std::string& study = std::get<0>(GetParam());
  const int approach = std::get<1>(GetParam());
  const std::string data = std::string(ESV_DATA_DIR) + "/" + study;
  const std::string plan = data + ".flt";
  const bool has_plan = std::ifstream(plan).good();
  const std::string dir = ::testing::TempDir() + "/parity_" + study + "_" +
                          std::to_string(approach) + "_" +
                          std::to_string(::getpid()) + "/";
  std::filesystem::create_directories(dir);
  const std::string report = dir + "report.json";
  const std::string trace = dir + "single.trace.jsonl";
  const std::string campaign_trace =
      dir + "seed_" + std::to_string(kSeed) + ".trace.jsonl";

  for (const char* mode : {"progression", "compiled", "both"}) {
    for (const bool faulted : {false, true}) {
      if (faulted && !has_plan) continue;
      const std::string args =
          data + ".c " + data + ".esv --approach=" +
          std::to_string(approach) + " --monitor-mode=" + mode + kMaxSteps +
          (faulted ? " --faults=" + plan : std::string()) + " --quiet";
      const std::string label = study + " a" + std::to_string(approach) +
                                " " + mode + (faulted ? " faulted" : "");

      const RunResult single = run_cli(args + " --seed=" +
                                       std::to_string(kSeed) +
                                       " --trace=" + trace);
      ASSERT_TRUE(single.exit_code == 0 || single.exit_code == 1)
          << label << "\n" << single.output;
      const RunResult campaign = run_cli(
          args + " --campaign=" + std::to_string(kSeed) + ".." +
          std::to_string(kSeed) + " --report=" + report +
          " --report-timing=off --trace-dir=" + dir);
      ASSERT_TRUE(campaign.exit_code == 0 || campaign.exit_code == 1)
          << label << "\n" << campaign.output;

      std::uint64_t single_steps = 0;
      std::uint64_t campaign_steps = 0;
      const Outcomes expected = parse_campaign(report, campaign_steps);
      const Outcomes actual = parse_single(single.output, single_steps);
      ASSERT_FALSE(expected.empty()) << label;
      EXPECT_EQ(actual, expected) << label << "\n" << single.output;
      EXPECT_EQ(single_steps, campaign_steps) << label;
      const std::string single_events = read_file(trace);
      EXPECT_FALSE(single_events.empty()) << label;
      EXPECT_TRUE(single_events == read_file(campaign_trace)) << label;
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Studies, SingleRunParityTest,
    ::testing::Combine(::testing::Values(std::string("blinker"),
                                         std::string("can_transport"),
                                         std::string("osek_scheduler"),
                                         std::string("sensor_debounce")),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_a" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
