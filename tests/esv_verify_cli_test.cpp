// End-to-end tests for the esv-verify command line, focused on the error
// paths: every usage or input mistake must exit with code 2 (never a crash,
// never a silent 0/1), and the campaign options must validate their input.
// The binary path and sample data directory are injected by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "cli_runner.hpp"

#ifndef ESV_VERIFY_BIN
#error "ESV_VERIFY_BIN must be defined by the build"
#endif
#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif

namespace {

using esv::cli::RunResult;

RunResult run_cli(const std::string& args) {
  return esv::cli::run_command(std::string(ESV_VERIFY_BIN) + " " + args);
}

std::string blinker_c() { return std::string(ESV_DATA_DIR) + "/blinker.c"; }
std::string blinker_esv() { return std::string(ESV_DATA_DIR) + "/blinker.esv"; }
std::string sample_args() { return blinker_c() + " " + blinker_esv(); }

TEST(EsvVerifyCliTest, MissingArgumentsExitsTwo) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(EsvVerifyCliTest, BadApproachExitsTwo) {
  for (const char* flag : {"--approach=3", "--approach=abc", "--approach="}) {
    const RunResult r = run_cli(sample_args() + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("--approach must be 1 or 2"), std::string::npos)
        << r.output;
  }
}

TEST(EsvVerifyCliTest, UnknownOptionExitsTwo) {
  const RunResult r = run_cli(sample_args() + " --frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos);
}

TEST(EsvVerifyCliTest, BadModeAndBadNumbersExitTwo) {
  EXPECT_EQ(run_cli(sample_args() + " --mode=psychic").exit_code, 2);
  EXPECT_EQ(run_cli(sample_args() + " --seed=banana").exit_code, 2);
  EXPECT_EQ(run_cli(sample_args() + " --max-steps=1e9").exit_code, 2);
  EXPECT_EQ(run_cli(sample_args() + " --witness=-1").exit_code, 2);
}

TEST(EsvVerifyCliTest, MalformedSeedRangeExitsTwo) {
  for (const char* flag :
       {"--campaign=abc", "--campaign=1..", "--campaign=..8", "--campaign=1-8",
        "--campaign=8..1", "--campaign=1..2..3"}) {
    const RunResult r = run_cli(sample_args() + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("--campaign"), std::string::npos) << r.output;
  }
  EXPECT_EQ(run_cli(sample_args() + " --campaign=1..4 --jobs=0").exit_code, 2);
  EXPECT_EQ(run_cli(sample_args() + " --campaign=1..4 --jobs=x").exit_code, 2);
  // VCD dumping is a single-run feature.
  EXPECT_EQ(
      run_cli(sample_args() + " --campaign=1..4 --vcd=/tmp/w.vcd").exit_code,
      2);
}

TEST(EsvVerifyCliTest, UnreadableInputFilesExitTwo) {
  const RunResult no_spec = run_cli(blinker_c() + " /nonexistent/spec.esv");
  EXPECT_EQ(no_spec.exit_code, 2);
  EXPECT_NE(no_spec.output.find("cannot open"), std::string::npos);

  const RunResult no_prog = run_cli("/nonexistent/prog.c " + blinker_esv());
  EXPECT_EQ(no_prog.exit_code, 2);
  EXPECT_NE(no_prog.output.find("cannot open"), std::string::npos);

  // Campaign mode reports unreadable inputs identically.
  const RunResult campaign =
      run_cli(blinker_c() + " /nonexistent/spec.esv --campaign=1..4");
  EXPECT_EQ(campaign.exit_code, 2);
  EXPECT_NE(campaign.output.find("cannot open"), std::string::npos);
}

TEST(EsvVerifyCliTest, MalformedSpecReportsLineAndExitsTwo) {
  const std::string path = ::testing::TempDir() + "/bad_spec.esv";
  std::ofstream(path) << "input enable 0 1\nbogus directive here\n";
  const RunResult r = run_cli(blinker_c() + " " + path);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("spec line 2"), std::string::npos) << r.output;
}

// A number past its field in any input language is a configuration error
// (exit 2) naming the number. Each of these ran before, misread: the bound
// and the comparison value wrapped to 0 (violated at step 1), the array
// shrank to one word (a[1] wrote the next global), and the window read as
// 0..1.
TEST(EsvVerifyCliTest, MisreadInputNumbersExitTwoNamingTheNumber) {
  const std::string dir = ::testing::TempDir();
  std::ofstream(dir + "/big_bound.esv")
      << "prop finished = cycles >= 500\ncheck big: F[4294967296] finished\n";
  std::ofstream(dir + "/big_prop.esv")
      << "prop led_big = led == 4294967296\ncheck never: G !led_big\n";
  std::ofstream(dir + "/big_array.c")
      << "int a[4294967297];\nint b;\nvoid main(void) { a[1] = 7; }\n";
  std::ofstream(dir + "/big_array.esv") << "prop p = b == 0\ncheck c: G p\n";
  std::ofstream(dir + "/big_window.flt")
      << "bitflip led window 0..18446744073709551617\n";
  const std::pair<std::string, const char*> cases[] = {
      {blinker_c() + " " + dir + "/big_bound.esv",
       "time bound 4294967296 exceeds 4294967295"},
      {blinker_c() + " " + dir + "/big_prop.esv",
       "value '4294967296' is outside -2147483648..4294967295"},
      {dir + "/big_array.c " + dir + "/big_array.esv",
       "array size 4294967297 exceeds 4294967295"},
      {sample_args() + " --faults=" + dir + "/big_window.flt",
       "malformed window '0..18446744073709551617'"},
  };
  for (const auto& [args, message] : cases) {
    const RunResult r = run_cli(args + " --quiet");
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(EsvVerifyCliTest, SingleRunStillExitsZeroOnCleanVerify) {
  const RunResult r = run_cli(sample_args() + " --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(EsvVerifyCliTest, MonitorModeFlagRejectsUnknownNames) {
  const RunResult r = run_cli(sample_args() + " --monitor-mode=psychic");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--monitor-mode"), std::string::npos) << r.output;
}

TEST(EsvVerifyCliTest, MonitorModeFlagSelectsEveryMode) {
  for (const char* mode : {"interpreted", "compiled", "both"}) {
    const RunResult r =
        run_cli(sample_args() + " --monitor-mode=" + mode + " --quiet");
    EXPECT_EQ(r.exit_code, 0) << mode << "\n" << r.output;
  }
  // The full spelling is echoed in the verdict table header.
  const RunResult both = run_cli(sample_args() + " --monitor-mode=both");
  EXPECT_EQ(both.exit_code, 0) << both.output;
  EXPECT_NE(both.output.find("both mode"), std::string::npos) << both.output;
}

TEST(EsvVerifyCliTest, RetiredAutomatonModeExitsTwoNamingCompiled) {
  for (const char* flag : {"--monitor-mode=automaton", "--mode=automaton"}) {
    for (const char* shape : {"", " --campaign=1..2"}) {
      const RunResult r =
          run_cli(sample_args() + " " + flag + shape + " --quiet");
      EXPECT_EQ(r.exit_code, 2) << flag << shape << "\n" << r.output;
      EXPECT_NE(r.output.find("\"automaton\" was retired"), std::string::npos)
          << r.output;
      EXPECT_NE(r.output.find("\"compiled\" runs the same synthesized"),
                std::string::npos)
          << r.output;
    }
  }
}

TEST(EsvVerifyCliTest, CampaignRunsAndWritesReport) {
  const std::string report = ::testing::TempDir() + "/campaign_report.json";
  std::remove(report.c_str());
  const RunResult r = run_cli(sample_args() + " --campaign=1..4 --jobs=2" +
                              " --report=" + report);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("campaign seeds 1..4"), std::string::npos);
  std::ifstream in(report);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"seed_lo\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"per_property\""), std::string::npos);
}

TEST(EsvVerifyCliTest, BadFaultAndHardeningOptionsExitTwo) {
  for (const char* flag :
       {"--seed-timeout=banana", "--seed-timeout=-1", "--seed-timeout=",
        "--seed-retries=x", "--seed-retries="}) {
    const RunResult r = run_cli(sample_args() + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
  }

  const RunResult no_plan =
      run_cli(sample_args() + " --faults=/nonexistent/plan.flt");
  EXPECT_EQ(no_plan.exit_code, 2);
  EXPECT_NE(no_plan.output.find("cannot open"), std::string::npos);

  const std::string bad_plan = ::testing::TempDir() + "/bad_plan.flt";
  std::ofstream(bad_plan) << "bitflip led\nexplode everything\n";
  const RunResult malformed =
      run_cli(sample_args() + " --faults=" + bad_plan);
  EXPECT_EQ(malformed.exit_code, 2) << malformed.output;
  EXPECT_NE(malformed.output.find("fault plan line 2"), std::string::npos)
      << malformed.output;

  // Unresolvable targets are configuration errors in campaign mode too.
  const std::string bad_target = ::testing::TempDir() + "/bad_target.flt";
  std::ofstream(bad_target) << "bitflip no_such_global\n";
  const RunResult unresolved = run_cli(sample_args() + " --campaign=1..2" +
                                       " --faults=" + bad_target);
  EXPECT_EQ(unresolved.exit_code, 2) << unresolved.output;
  EXPECT_NE(unresolved.output.find("cannot resolve fault target"),
            std::string::npos)
      << unresolved.output;
}

TEST(EsvVerifyCliTest, SingleRunWithFaultsPrintsTheLog) {
  const std::string plan = ::testing::TempDir() + "/flip_led.flt";
  std::ofstream(plan) << "bitflip led window 50..50\n";
  const RunResult r = run_cli(sample_args() + " --faults=" + plan);
  // The flipped bit usually breaks `legal` (exit 1); a bit-0 flip can
  // survive (exit 0). Either way the run completes and reports the log.
  EXPECT_TRUE(r.exit_code == 0 || r.exit_code == 1) << r.output;
  EXPECT_NE(r.output.find("faults injected: 1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bitflip led bit"), std::string::npos) << r.output;
}

TEST(EsvVerifyCliTest, FaultCampaignDeterministicAcrossJobs) {
  const std::string plan = ::testing::TempDir() + "/campaign_plan.flt";
  std::ofstream(plan) << "bitflip led prob 1/40\n";
  const std::string base =
      sample_args() + " --campaign=0..63 --faults=" + plan + " --quiet";
  const RunResult one = run_cli(base);
  const RunResult eight = run_cli(base + " --jobs=8");
  EXPECT_EQ(one.exit_code, eight.exit_code);
  EXPECT_EQ(one.output, eight.output);
  EXPECT_NE(one.output.find("faults:"), std::string::npos) << one.output;
}

TEST(EsvVerifyCliTest, RuntimeVerificationErrorExitsThree) {
  // The program draws an input the spec never constrains: configuration
  // parses fine, but the run itself fails — exit 3 with one diagnostic line.
  const std::string prog = ::testing::TempDir() + "/unconstrained.c";
  std::ofstream(prog) << "int x;\nvoid main(void) { x = __in(mystery); }\n";
  const std::string spec = ::testing::TempDir() + "/unconstrained.esv";
  // p is never true, so the property cannot decide and stop the run before
  // the unconstrained draw executes.
  std::ofstream(spec) << "prop p = x == 1\ncheck c: F p\n";
  const RunResult r = run_cli(prog + " " + spec);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("runtime error:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unconstrained input"), std::string::npos)
      << r.output;
}

TEST(EsvVerifyCliTest, CampaignSeedTimeoutRecordsTimeoutsAndExitsOne) {
  const std::string prog = ::testing::TempDir() + "/hang.c";
  std::ofstream(prog) << "int spin;\nvoid main(void) {\n  spin = 1;\n"
                      << "  while (spin == 1) { spin = __in(hang); }\n}\n";
  const std::string spec = ::testing::TempDir() + "/hang.esv";
  std::ofstream(spec) << "input hang 1 1\nprop done = spin == 2\n"
                      << "check free: F done\n";
  const RunResult r = run_cli(prog + " " + spec +
                              " --campaign=1..2 --jobs=2" +
                              " --max-steps=999999999999" +
                              " --seed-timeout=0.25 --quiet");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("2 timed out"), std::string::npos) << r.output;
}

TEST(EsvVerifyCliTest, MetricsAndTraceFlagsWriteFiles) {
  const std::string metrics = ::testing::TempDir() + "/run_metrics.json";
  const std::string trace = ::testing::TempDir() + "/run_trace.jsonl";
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  const RunResult r = run_cli(sample_args() + " --max-steps=2000" +
                              " --metrics=" + metrics + " --trace=" + trace);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metrics: " + metrics), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("trace: " + trace), std::string::npos) << r.output;

  std::ifstream metrics_in(metrics);
  ASSERT_TRUE(metrics_in.good());
  std::string metrics_json((std::istreambuf_iterator<char>(metrics_in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(metrics_json.find("\"sctc.steps\": 2000"), std::string::npos)
      << metrics_json;
  EXPECT_NE(metrics_json.find("\"run.wall_us\""), std::string::npos)
      << metrics_json;

  std::ifstream trace_in(trace);
  ASSERT_TRUE(trace_in.good());
  std::string jsonl((std::istreambuf_iterator<char>(trace_in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(jsonl.find("{\"type\":\"seed_start\",\"seed\":1}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"prop_change\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"seed_end\""), std::string::npos);
}

TEST(EsvVerifyCliTest, QuietSuppressesMetricsAndTraceStatusLines) {
  const std::string metrics = ::testing::TempDir() + "/quiet_metrics.json";
  const std::string trace = ::testing::TempDir() + "/quiet_trace.jsonl";
  const RunResult r =
      run_cli(sample_args() + " --quiet --max-steps=2000" +
              " --metrics=" + metrics + " --trace=" + trace);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("metrics:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("trace:"), std::string::npos) << r.output;
  // The files are still written.
  EXPECT_TRUE(std::ifstream(metrics).good());
  EXPECT_TRUE(std::ifstream(trace).good());
}

TEST(EsvVerifyCliTest, UnwritableMetricsOrTracePathExitsTwo) {
  const RunResult metrics =
      run_cli(sample_args() + " --metrics=/nonexistent/dir/m.json");
  EXPECT_EQ(metrics.exit_code, 2) << metrics.output;
  EXPECT_NE(metrics.output.find("cannot write"), std::string::npos)
      << metrics.output;

  const RunResult trace =
      run_cli(sample_args() + " --trace=/nonexistent/dir/t.jsonl");
  EXPECT_EQ(trace.exit_code, 2) << trace.output;
  EXPECT_NE(trace.output.find("cannot write"), std::string::npos)
      << trace.output;

  // Campaign mode preflights the metrics sink before any seed runs.
  const RunResult campaign = run_cli(
      sample_args() + " --campaign=1..2 --metrics=/nonexistent/dir/m.json");
  EXPECT_EQ(campaign.exit_code, 2) << campaign.output;
  EXPECT_NE(campaign.output.find("cannot write"), std::string::npos)
      << campaign.output;
}

TEST(EsvVerifyCliTest, TraceIsRejectedInCampaignMode) {
  const RunResult r =
      run_cli(sample_args() + " --campaign=1..4 --trace=/tmp/t.jsonl");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace is not available in campaign mode"),
            std::string::npos)
      << r.output;
}

TEST(EsvVerifyCliTest, CampaignMetricsIdenticalAcrossJobsAndInReport) {
  const std::string m1 = ::testing::TempDir() + "/campaign_m1.json";
  const std::string m8 = ::testing::TempDir() + "/campaign_m8.json";
  const std::string report = ::testing::TempDir() + "/campaign_mr.json";
  const std::string base = sample_args() + " --campaign=1..8 --quiet";
  const RunResult one =
      run_cli(base + " --metrics=" + m1 + " --report=" + report);
  const RunResult eight = run_cli(base + " --jobs=8 --metrics=" + m8);
  EXPECT_EQ(one.exit_code, 0) << one.output;
  EXPECT_EQ(eight.exit_code, 0) << eight.output;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string metrics_one = slurp(m1);
  EXPECT_FALSE(metrics_one.empty());
  EXPECT_EQ(metrics_one, slurp(m8));
  EXPECT_NE(metrics_one.find("\"campaign.seeds\": 8"), std::string::npos)
      << metrics_one;
  // --report always carries the merged metrics block.
  EXPECT_NE(slurp(report).find("\"metrics\": {"), std::string::npos);
}

TEST(EsvVerifyCliTest, TraceDirAndWorkersAreCampaignOnly) {
  const RunResult trace_dir =
      run_cli(sample_args() + " --trace-dir=/tmp/td");
  EXPECT_EQ(trace_dir.exit_code, 2);
  EXPECT_NE(
      trace_dir.output.find("--trace-dir is only available in campaign mode"),
      std::string::npos)
      << trace_dir.output;

  const RunResult workers = run_cli(sample_args() + " --workers=2");
  EXPECT_EQ(workers.exit_code, 2);
  EXPECT_NE(
      workers.output.find("--workers is only available in campaign mode"),
      std::string::npos)
      << workers.output;

  for (const char* flag : {"--workers=0", "--workers=x", "--workers="}) {
    const RunResult r = run_cli(sample_args() + " --campaign=1..2 " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("--workers must be a positive integer"),
              std::string::npos)
        << r.output;
  }
}

// Every campaign-only flag must reject non-campaign use with exit 2 and a
// message naming the flag — never silently ignore it.
TEST(EsvVerifyCliTest, EveryCampaignOnlyFlagIsRejectedOutsideCampaignMode) {
  const std::pair<const char*, const char*> cases[] = {
      {"--jobs=2", "--jobs"},
      {"--report=/tmp/r.json", "--report"},
      {"--report-timing=off", "--report-timing"},
      {"--seed-timeout=1.5", "--seed-timeout"},
      {"--seed-retries=1", "--seed-retries"},
      {"--trace-dir=/tmp/td", "--trace-dir"},
      {"--workers=2", "--workers"},
      {"--journal=/tmp/j.esvj", "--journal"},
      {"--campaign-timeout=5", "--campaign-timeout"},
      {"--chaos=wire.tx drop", "--chaos"},
  };
  for (const auto& [flag, name] : cases) {
    const RunResult r = run_cli(sample_args() + " \"" + flag + "\"");
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string(name) +
                            " is only available in campaign mode"),
              std::string::npos)
        << flag << "\n"
        << r.output;
  }
}

// Numeric values are strict: a sign, whitespace, a base prefix, or an
// overflow of the flag's type is refused with the flag's own message instead
// of being misread (wrapped to 0, or read as hex or infinity).
TEST(EsvVerifyCliTest, MisreadNumbersExitTwoWithTheFlagsMessage) {
  const std::pair<const char*, const char*> cases[] = {
      {"--jobs=4294967296", "--jobs must be a positive integer"},
      {"--seed-retries=4294967296", "--seed-retries must be an integer"},
      {"--seed-timeout=0x10",
       "--seed-timeout must be a non-negative number of seconds"},
      {"--seed-timeout= 1",
       "--seed-timeout must be a non-negative number of seconds"},
      {"--campaign-timeout=-0",
       "--campaign-timeout must be a non-negative number of seconds"},
      {"--campaign-timeout=inf",
       "--campaign-timeout must be a non-negative number of seconds"},
  };
  for (const auto& [flag, message] : cases) {
    const RunResult r =
        run_cli(sample_args() + " --campaign=1..2 --quiet \"" + flag + "\"");
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << flag << "\n" << r.output;
  }
}

// jobs, workers and workers x jobs are bounded before any thread or worker
// process starts.
TEST(EsvVerifyCliTest, ParallelismPastTheBoundExitsTwo) {
  const RunResult jobs =
      run_cli(sample_args() + " --campaign=1..2 --jobs=1025 --quiet");
  EXPECT_EQ(jobs.exit_code, 2) << jobs.output;
  EXPECT_NE(jobs.output.find("jobs 1025 exceeds the limit of 1024"),
            std::string::npos)
      << jobs.output;
  const RunResult product = run_cli(
      sample_args() + " --campaign=1..2 --workers=2 --jobs=513 --quiet");
  EXPECT_EQ(product.exit_code, 2) << product.output;
  EXPECT_NE(product.output.find("workers x jobs 2 x 513 exceeds the limit"),
            std::string::npos)
      << product.output;
}

TEST(EsvVerifyCliTest, CampaignTraceDirWritesPerSeedTraces) {
  const std::string dir = ::testing::TempDir() + "/campaign_traces";
  const RunResult r = run_cli(sample_args() + " --campaign=3..5 --jobs=2" +
                              " --trace-dir=" + dir + " --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (int seed = 3; seed <= 5; ++seed) {
    const std::string path =
        dir + "/seed_" + std::to_string(seed) + ".trace.jsonl";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string jsonl((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_NE(jsonl.find("{\"type\":\"seed_start\",\"seed\":" +
                         std::to_string(seed) + "}"),
              std::string::npos)
        << path;
    std::remove(path.c_str());
  }
}

TEST(EsvVerifyCliTest, DistributedCampaignMatchesInProcessOutput) {
  // esv-verify resolves esv-worker as its own sibling, so --workers works
  // out of the box in the build tree. Deterministic outputs (summary,
  // metrics file) must be byte-identical to the in-process runner.
  const std::string m0 = ::testing::TempDir() + "/dist_m0.json";
  const std::string m2 = ::testing::TempDir() + "/dist_m2.json";
  const std::string base = sample_args() + " --campaign=1..6 --quiet";
  const RunResult in_process = run_cli(base + " --metrics=" + m0);
  const RunResult two = run_cli(base + " --workers=2 --metrics=" + m2);
  EXPECT_EQ(in_process.exit_code, 0) << in_process.output;
  EXPECT_EQ(two.exit_code, 0) << two.output;
  EXPECT_EQ(in_process.output, two.output);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string metrics = slurp(m0);
  EXPECT_FALSE(metrics.empty());
  EXPECT_EQ(metrics, slurp(m2));
}

TEST(EsvVerifyCliTest, CampaignVerdictTableIdenticalAcrossJobs) {
  // The wall/seeds-per-second line is timing; --quiet prints the
  // deterministic summary only.
  const RunResult one = run_cli(sample_args() + " --campaign=1..12 --quiet");
  const RunResult eight =
      run_cli(sample_args() + " --campaign=1..12 --jobs=8 --quiet");
  EXPECT_EQ(one.exit_code, 0);
  EXPECT_EQ(eight.exit_code, 0);
  EXPECT_EQ(one.output, eight.output);
}

}  // namespace
