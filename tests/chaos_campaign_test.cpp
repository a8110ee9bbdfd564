// Integration tests for the self-chaos engine (docs/RESILIENCE.md) at
// campaign scale. The headline invariant, swept across 200+ seeded
// single-fault schedules: a campaign under any single infrastructure fault
// ends either byte-identical to the fault-free run (every deterministic
// rendering: verdict table, summary, timing-free JSON, merged metrics) or
// in a deterministic structured abort — never a hang, never silent data
// loss. The CLI half covers --chaos/--chaos-seed/--campaign-timeout flag
// plumbing, journal-fault structured aborts (exit 2), the deadline abort
// (exit 3), and worker-side plan propagation end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "chaos/chaos.hpp"
#include "cli_runner.hpp"
#include "dist/broker.hpp"

#ifndef ESV_WORKER_BIN
#error "ESV_WORKER_BIN must be defined by the build"
#endif
#ifndef ESV_VERIFY_BIN
#error "ESV_VERIFY_BIN must be defined by the build"
#endif
#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif

namespace esv::dist {
namespace {

const char* kBlinker = R"(
enum { LED_OFF = 0, LED_ON = 1 };

int led;
int cycles;

void update(int enable) {
  if (enable == 1) {
    if (led == LED_OFF) {
      led = LED_ON;
    } else {
      led = LED_OFF;
    }
  } else {
    led = LED_OFF;
  }
}

void main(void) {
  led = LED_OFF;
  while (cycles < 150) {
    int enable = __in(enable);
    update(enable);
    cycles = cycles + 1;
  }
}
)";

const char* kBlinkerSpec = R"(
input enable 0 1

prop led_on    = led == LED_ON
prop led_off   = led == LED_OFF
prop finished  = cycles >= 150

check legal: G (led_on || led_off)
check terminates: F finished
)";

constexpr std::uint64_t kSeedLo = 1;
constexpr std::uint64_t kSeedHi = 4;
constexpr std::uint64_t kSeedCount = kSeedHi - kSeedLo + 1;

campaign::CampaignConfig blinker_config(unsigned workers) {
  campaign::CampaignConfig config;
  config.program_source = kBlinker;
  config.spec_text = kBlinkerSpec;
  config.seed_lo = kSeedLo;
  config.seed_hi = kSeedHi;
  config.jobs = 1;
  config.workers = workers;
  config.worker_binary = ESV_WORKER_BIN;
  config.collect_metrics = true;
  config.seed_retries = 4;  // ample for single-fault crash re-dispatch
  return config;
}

/// Broker knobs tightened so fault recovery (idle re-ASSIGN, respawn
/// backoff, shutdown grace) runs at test speed rather than production speed.
BrokerOptions fast_recovery_options() {
  BrokerOptions options;
  options.reassign_after_seconds = 0.25;
  options.backoff_base_seconds = 0.01;
  options.backoff_cap_seconds = 0.05;
  options.shutdown_grace_seconds = 0.3;
  // Workers heartbeat every 200 ms, so 2 s of silence is decisively dead;
  // the production default (30 s) would turn every wedged-worker schedule
  // into a half-minute stall.
  options.heartbeat_timeout_seconds = 2.0;
  return options;
}

/// The fault-free reference every chaos run must reproduce byte for byte.
const campaign::CampaignReport& reference_report() {
  static const campaign::CampaignReport report = [] {
    campaign::CampaignConfig config = blinker_config(/*workers=*/0);
    return campaign::run(config);
  }();
  return report;
}

void expect_same_deterministic_renderings(const campaign::CampaignReport& a,
                                          const campaign::CampaignReport& b) {
  EXPECT_EQ(a.verdict_table(), b.verdict_table());
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.to_json(/*include_timing=*/false),
            b.to_json(/*include_timing=*/false));
  EXPECT_EQ(a.metrics.to_json(/*include_timing=*/false),
            b.metrics.to_json(/*include_timing=*/false));
}

struct ChaosRunOutcome {
  campaign::CampaignReport report;
  std::uint64_t broker_injections = 0;  // broker-side engine only
};

/// One distributed campaign under one chaos schedule, mirroring what
/// esv-verify --chaos does: a broker-role engine installed in this process
/// plus the plan forwarded to workers through BrokerOptions (and from there
/// the ESV_CHAOS_PLAN / ESV_CHAOS_SEED environment).
ChaosRunOutcome run_with_chaos(const std::string& plan_text,
                               std::uint64_t chaos_seed) {
  chaos::ChaosEngine engine(chaos::parse_plan(plan_text), chaos_seed,
                            chaos::Role::kBroker);
  chaos::ChaosEngine::install(&engine);
  BrokerOptions options = fast_recovery_options();
  options.chaos_plan_text = plan_text;
  options.chaos_seed = chaos_seed;
  ChaosRunOutcome outcome;
  outcome.report = run_distributed(blinker_config(/*workers=*/2), options);
  chaos::ChaosEngine::install(nullptr);
  outcome.broker_injections = engine.injected_count();
  return outcome;
}

/// The invariant a single-fault schedule must satisfy: byte-identical to
/// fault-free (graceful degradation included — degraded runs compute real
/// results), or a structured divergence where every slot is filled and every
/// failed seed carries a deterministic infrastructure capture.
void expect_survived_or_structured(const ChaosRunOutcome& outcome) {
  ASSERT_EQ(outcome.report.seeds.size(), kSeedCount) << "lost seed slots";
  if (outcome.report.error_seeds == 0) {
    expect_same_deterministic_renderings(reference_report(), outcome.report);
    return;
  }
  for (const campaign::SeedResult& seed : outcome.report.seeds) {
    if (!seed.error.empty()) {
      EXPECT_EQ(seed.error_kind, "infrastructure") << seed.error;
    }
  }
}

/// Sweeps `plans` x chaos seeds {1, 7} and returns how many schedules ran.
std::size_t sweep(const std::vector<std::string>& plans) {
  std::size_t schedules = 0;
  for (const std::string& plan : plans) {
    for (const std::uint64_t chaos_seed : {1ull, 7ull}) {
      SCOPED_TRACE("plan '" + plan + "' chaos-seed " +
                   std::to_string(chaos_seed));
      const auto t0 = std::chrono::steady_clock::now();
      expect_survived_or_structured(run_with_chaos(plan, chaos_seed));
      const double took =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (took > 2.0) {
        std::fprintf(stderr, "[chaos-sweep] slow schedule (%.1fs): '%s' seed %llu\n",
                     took, plan.c_str(),
                     static_cast<unsigned long long>(chaos_seed));
      }
      ++schedules;
    }
  }
  return schedules;
}

std::vector<std::string> wire_plans(const std::string& role_suffix) {
  const char* actions[] = {"drop",      "truncate",  "corrupt",
                           "duplicate", "shortsend", "delay 5"};
  std::vector<std::string> plans;
  for (const char* action : actions) {
    for (const int nth : {1, 2, 3, 5, 8}) {
      plans.push_back(std::string("wire.tx ") + action + " nth " +
                      std::to_string(nth) + role_suffix);
    }
  }
  return plans;
}

// The four sweeps below total 210 seeded single-fault schedules (ISSUE
// acceptance: >= 200), split so ctest can run them in parallel.

TEST(ChaosSweepTest, BrokerSideWireFaultsSurviveByteIdentical) {
  EXPECT_EQ(sweep(wire_plans(" role broker")), 60u);
}

TEST(ChaosSweepTest, WorkerSideWireFaultsSurviveByteIdentical) {
  EXPECT_EQ(sweep(wire_plans(" role worker")), 60u);
}

TEST(ChaosSweepTest, UnscopedWireFaultsSurviveByteIdentical) {
  EXPECT_EQ(sweep(wire_plans("")), 60u);
}

TEST(ChaosSweepTest, WorkerProcessFaultsSurviveByteIdentical) {
  std::vector<std::string> plans;
  for (const int nth : {1, 2, 3, 5, 8}) {
    // gen 0: only the first incarnation crashes, so the respawn completes
    // the campaign (the crash-loop shape is DegradedFleet... below).
    plans.push_back("worker.seed crash nth " + std::to_string(nth) + " gen 0");
    plans.push_back("worker.seed stall 20 nth " + std::to_string(nth));
    plans.push_back("worker.heartbeat delay 300 nth " + std::to_string(nth));
  }
  EXPECT_EQ(sweep(plans), 30u);
}

TEST(ChaosSweepTest, BrokerSideInjectionsReallyFire) {
  // Guards the sweep against silently passing because nothing injected: the
  // broker's very first frame is an ASSIGN, so this schedule must fire.
  const ChaosRunOutcome outcome = run_with_chaos("wire.tx drop nth 1 role broker", 1);
  EXPECT_GE(outcome.broker_injections, 1u);
  EXPECT_EQ(outcome.report.error_seeds, 0u);
}

TEST(ChaosSweepTest, WorkerCrashChaosReallyKillsWorkers) {
  chaos::ChaosEngine engine(
      chaos::parse_plan("worker.seed crash nth 1 gen 0"), 1,
      chaos::Role::kBroker);
  chaos::ChaosEngine::install(&engine);
  BrokerOptions options = fast_recovery_options();
  options.chaos_plan_text = "worker.seed crash nth 1 gen 0";
  const campaign::CampaignReport report =
      run_distributed(blinker_config(/*workers=*/2), options);
  chaos::ChaosEngine::install(nullptr);
  EXPECT_NE(report.dist_metrics.counters.at("dist.worker_exits"), 0u);
  EXPECT_EQ(report.error_seeds, 0u);
  expect_same_deterministic_renderings(reference_report(), report);
}

TEST(ChaosSweepTest, CrashLoopExhaustsFleetAndDegradesByteIdentical) {
  // Every incarnation crashes before its first seed: the whole fleet burns
  // its respawn budget, and graceful degradation must still produce a
  // byte-identical report on the broker's own threads.
  chaos::ChaosEngine engine(chaos::parse_plan("worker.seed crash nth 1"), 1,
                            chaos::Role::kBroker);
  chaos::ChaosEngine::install(&engine);
  BrokerOptions options = fast_recovery_options();
  options.chaos_plan_text = "worker.seed crash nth 1";
  options.max_respawns = 1;
  campaign::CampaignConfig config = blinker_config(/*workers=*/2);
  config.seed_retries = 8;
  const campaign::CampaignReport report = run_distributed(config, options);
  chaos::ChaosEngine::install(nullptr);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.error_seeds, 0u);
  EXPECT_NE(report.dist_metrics.counters.at("dist.degradations"), 0u);
  expect_same_deterministic_renderings(reference_report(), report);
}

TEST(ChaosSweepTest, InProcessRunnerHasNoChaosSurface) {
  // The compute path itself carries no fault points: an installed engine
  // with every point armed must never fire during an in-process campaign
  // (wire/worker/journal probes all live in the infrastructure layers).
  chaos::ChaosEngine engine(
      chaos::parse_plan("wire.tx drop nth 1; worker.seed crash nth 1;"
                        " worker.heartbeat delay 100 nth 1;"
                        " journal.write failwrite nth 1;"
                        " journal.fsync failsync nth 1"),
      1, chaos::Role::kBroker);
  chaos::ChaosEngine::install(&engine);
  campaign::CampaignConfig config = blinker_config(/*workers=*/0);
  config.jobs = 2;
  const campaign::CampaignReport report = campaign::run(config);
  chaos::ChaosEngine::install(nullptr);
  EXPECT_EQ(engine.injected_count(), 0u);
  expect_same_deterministic_renderings(reference_report(), report);
}

// --- CLI surface ---------------------------------------------------------

using cli::RunResult;
using cli::read_file;

RunResult run_cli(const std::string& args) {
  return cli::run_command(std::string(ESV_VERIFY_BIN) + " " + args);
}

std::string sample_args() {
  return std::string(ESV_DATA_DIR) + "/blinker.c " + ESV_DATA_DIR +
         "/blinker.esv";
}

std::string temp_path(const std::string& name) {
  return cli::temp_path("esv_chaos_", name);
}

TEST(ChaosCliTest, FlagValidationExitsTwo) {
  struct Case {
    const char* flags;
    const char* message;
  };
  const Case cases[] = {
      {"'--chaos=wire.tx drop'", "--chaos is only available in campaign"},
      {"--campaign=1..4 --chaos-seed=3", "--chaos-seed requires --chaos"},
      {"--campaign-timeout=5", "--campaign-timeout is only available"},
      {"--campaign=1..4 --chaos=", "--chaos expects a plan"},
      {"--campaign=1..4 '--chaos=wire.tx explode'", "chaos plan line 1"},
  };
  for (const Case& test_case : cases) {
    const RunResult r = run_cli(sample_args() + " " + test_case.flags);
    EXPECT_EQ(r.exit_code, 2) << test_case.flags << "\n" << r.output;
    EXPECT_NE(r.output.find(test_case.message), std::string::npos)
        << test_case.flags << "\n"
        << r.output;
  }
}

TEST(ChaosCliTest, JournalShortWriteChaosIsByteIdentical) {
  const std::string reference_report_path = temp_path("sw_ref.json");
  const std::string chaos_report_path = temp_path("sw_chaos.json");
  const std::string journal = temp_path("sw.journal");
  std::remove(journal.c_str());

  const RunResult reference =
      run_cli(sample_args() + " --campaign=1..6 --jobs=2 --quiet" +
              " --report=" + reference_report_path + " --report-timing=off");
  ASSERT_EQ(reference.exit_code, 0) << reference.output;

  // Every journal record degraded to one-byte writes: the write loop must
  // absorb it (EINTR-style chunking) and the campaign must not notice.
  const RunResult chaotic = run_cli(
      sample_args() + " --campaign=1..6 --jobs=2 --quiet" + " --journal=" +
      journal + " \"--chaos=journal.write shortwrite nth 1 count 0\"" +
      " --report=" + chaos_report_path + " --report-timing=off");
  ASSERT_EQ(chaotic.exit_code, 0) << chaotic.output;
  EXPECT_EQ(read_file(chaos_report_path), read_file(reference_report_path));

  std::remove(journal.c_str());
  std::remove(reference_report_path.c_str());
  std::remove(chaos_report_path.c_str());
}

TEST(ChaosCliTest, JournalWriteAndFsyncChaosAbortStructuredWithExitTwo) {
  struct Case {
    const char* plan;
    const char* extra;
  };
  const Case cases[] = {
      {"journal.write failwrite nth 2", ""},
      {"journal.write enospc nth 1", ""},
      {"journal.fsync failsync nth 1", " --journal-sync=record"},
  };
  for (const Case& test_case : cases) {
    const std::string journal = temp_path("abort.journal");
    std::remove(journal.c_str());
    const RunResult r = run_cli(sample_args() +
                                " --campaign=1..6 --jobs=2 --quiet" +
                                " --journal=" + journal + " \"--chaos=" +
                                test_case.plan + "\"" + test_case.extra);
    EXPECT_EQ(r.exit_code, 2) << test_case.plan << "\n" << r.output;
    EXPECT_NE(r.output.find("journal"), std::string::npos)
        << test_case.plan << "\n"
        << r.output;
    std::remove(journal.c_str());
  }
}

TEST(ChaosCliTest, ChaosMetricsLandInTheTimingReport) {
  const std::string report_path = temp_path("metrics.json");
  const std::string journal = temp_path("metrics.journal");
  std::remove(journal.c_str());
  const RunResult r = run_cli(
      sample_args() + " --campaign=1..4 --jobs=2 --quiet" + " --journal=" +
      journal + " \"--chaos=journal.write shortwrite nth 1 count 0\"" +
      " --report=" + report_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string json = read_file(report_path);
  EXPECT_NE(json.find("\"chaos\""), std::string::npos) << json;
  EXPECT_NE(json.find("chaos.injected"), std::string::npos) << json;
  EXPECT_NE(json.find("chaos.journal.write.shortwrite"), std::string::npos)
      << json;
  std::remove(journal.c_str());
  std::remove(report_path.c_str());
}

TEST(ChaosCliTest, DistributedChaosPropagatesToWorkersAndStaysByteIdentical) {
  const std::string reference_report_path = temp_path("dist_ref.json");
  const std::string chaos_report_path = temp_path("dist_chaos.json");

  const RunResult reference = run_cli(
      sample_args() + " --campaign=1..6 --workers=2 --seed-retries=3 --quiet" +
      " --report=" + reference_report_path + " --report-timing=off");
  ASSERT_EQ(reference.exit_code, 0) << reference.output;

  // The corrupted RESULT frame trips the broker-side CRC check: the broker
  // kills that incarnation and re-dispatches, and the report must not
  // notice. `gen 0` scopes the fault to the first incarnation — the env
  // propagation re-arms the plan in every respawned worker, so an unscoped
  // `nth 2` would crash-loop the fleet into the structured-abort path
  // instead of proving clean recovery. --seed-retries must cover the crash:
  // its default of 0 abandons a seed on the first infrastructure loss.
  const RunResult chaotic = run_cli(
      sample_args() + " --campaign=1..6 --workers=2 --seed-retries=3 --quiet" +
      " --chaos-seed=3" +
      " \"--chaos=wire.tx corrupt nth 2 role worker gen 0\"" +
      " --report=" + chaos_report_path + " --report-timing=off");
  ASSERT_EQ(chaotic.exit_code, 0) << chaotic.output;
  EXPECT_EQ(read_file(chaos_report_path), read_file(reference_report_path));

  std::remove(reference_report_path.c_str());
  std::remove(chaos_report_path.c_str());
}

TEST(ChaosCliTest, CampaignTimeoutAbortsStructuredWithExitThree) {
  const std::string report_path = temp_path("deadline.json");
  const RunResult r =
      run_cli(sample_args() + " --campaign=1..64 --jobs=1 --quiet" +
              " --campaign-timeout=0.000001 --report=" + report_path);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("deadline exceeded"), std::string::npos) << r.output;
  // The partial report was still written, flagged, and every unfinished
  // seed carries the deterministic deadline capture.
  const std::string json = read_file(report_path);
  EXPECT_NE(json.find("\"aborted\": \"deadline\""), std::string::npos) << json;
  EXPECT_NE(json.find("--campaign-timeout"), std::string::npos) << json;
  EXPECT_NE(json.find("\"error_kind\": \"infrastructure\""), std::string::npos)
      << json;
  std::remove(report_path.c_str());
}

}  // namespace
}  // namespace esv::dist
