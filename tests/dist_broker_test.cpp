// End-to-end tests of the distributed campaign broker: spawns real
// esv-worker processes (ESV_WORKER_BIN, injected by the build) and checks
// the two load-bearing properties of docs/DISTRIBUTED.md —
//
//   determinism: every deterministic rendering (verdict table, summary,
//   timing-free JSON, merged metrics) is byte-identical for any --workers
//   count and identical to the in-process runner;
//
//   crash isolation: a worker killed mid-campaign (SIGKILL, via the
//   ESV_WORKER_TEST_CRASH_SEED hook) never fails the campaign — its seeds
//   are re-dispatched under the --seed-retries budget and the final report
//   is byte-identical to an undisturbed run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hpp"
#include "dist/broker.hpp"

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

campaign::CampaignConfig blinker_config(std::uint64_t lo, std::uint64_t hi,
                                        unsigned workers) {
  campaign::CampaignConfig config;
  config.program_source = kBlinker;
  config.spec_text = kBlinkerSpec;
  config.seed_lo = lo;
  config.seed_hi = hi;
  config.jobs = 1;
  config.workers = workers;
  config.worker_binary = ESV_WORKER_BIN;
  config.collect_metrics = true;
  return config;
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

TEST(DistBrokerTest, DeterministicAcrossWorkerCountsAndInProcess) {
  campaign::CampaignConfig in_process = blinker_config(1, 10, 0);
  const campaign::CampaignReport reference = campaign::run(in_process);

  const campaign::CampaignReport one = run_distributed(blinker_config(1, 10, 1));
  const campaign::CampaignReport four =
      run_distributed(blinker_config(1, 10, 4));

  expect_same_deterministic_renderings(reference, one);
  expect_same_deterministic_renderings(reference, four);

  EXPECT_FALSE(reference.distributed);
  EXPECT_TRUE(one.distributed);
  EXPECT_TRUE(four.distributed);
  EXPECT_EQ(one.workers, 1u);
  EXPECT_EQ(four.workers, 4u);
  // The broker's operational counters live in dist_metrics only; the
  // deterministic snapshot must stay free of them.
  EXPECT_NE(four.dist_metrics.counters.count("dist.results_rx"), 0u);
  EXPECT_EQ(reference.metrics.counters.count("dist.results_rx"), 0u);
  EXPECT_NE(four.dist_events_jsonl.find("\"event\":\"spawn\""),
            std::string::npos);
}

// workers x jobs composed: multi-threaded workers connect nearly
// simultaneously, which is the shape that once dangled poll_io's pre-HELLO
// connection pointers when an accept reallocated the pending list.
TEST(DistBrokerTest, MultiThreadedWorkersStayDeterministic) {
  campaign::CampaignConfig in_process = blinker_config(1, 12, 0);
  const campaign::CampaignReport reference = campaign::run(in_process);
  campaign::CampaignConfig config = blinker_config(1, 12, 4);
  config.jobs = 2;
  const campaign::CampaignReport distributed = run_distributed(config);
  expect_same_deterministic_renderings(reference, distributed);
  EXPECT_EQ(distributed.error_seeds, 0u);
}

TEST(DistBrokerTest, FaultCampaignMatchesInProcess) {
  campaign::CampaignConfig config = blinker_config(1, 6, 0);
  config.fault_plan_text = "bitflip led window 40..45 prob 1/2\n";
  const campaign::CampaignReport reference = campaign::run(config);

  config.workers = 2;
  const campaign::CampaignReport distributed = run_distributed(config);
  expect_same_deterministic_renderings(reference, distributed);
  EXPECT_TRUE(distributed.fault_campaign);
  EXPECT_EQ(distributed.injected_faults_total,
            reference.injected_faults_total);
}

class CrashHookGuard {
 public:
  CrashHookGuard(std::uint64_t seed, const std::string& latch) {
    ::unlink(latch.c_str());
    ::setenv("ESV_WORKER_TEST_CRASH_SEED", std::to_string(seed).c_str(), 1);
    ::setenv("ESV_WORKER_TEST_CRASH_LATCH", latch.c_str(), 1);
  }
  ~CrashHookGuard() {
    ::unsetenv("ESV_WORKER_TEST_CRASH_SEED");
    ::unsetenv("ESV_WORKER_TEST_CRASH_LATCH");
  }
};

TEST(DistBrokerTest, KilledWorkerNeverFailsTheCampaign) {
  const campaign::CampaignReport undisturbed =
      run_distributed(blinker_config(1, 8, 2));

  campaign::CampaignConfig config = blinker_config(1, 8, 2);
  config.seed_retries = 1;
  const std::string latch =
      testing::TempDir() + "esv_dist_crash_latch_" + std::to_string(::getpid());
  campaign::CampaignReport crashed;
  {
    CrashHookGuard guard(5, latch);
    crashed = run_distributed(config);
  }
  ::unlink(latch.c_str());

  // The kill really happened ...
  EXPECT_NE(crashed.dist_metrics.counters["dist.worker_exits"], 0u);
  // ... and the victim's seeds moved elsewhere. Usually that is the crash
  // re-dispatch path, but under load a steal may have already moved the
  // crash seed off the victim's broker-side list before it died — either
  // way a recovery transfer must be visible.
  EXPECT_NE(crashed.dist_metrics.counters["dist.redispatched_seeds"] +
                crashed.dist_metrics.counters["dist.stolen_seeds"],
            0u);
  // ... and left no trace in the results: every seed completed, nothing
  // errored, and every deterministic rendering is byte-identical to the
  // undisturbed run.
  EXPECT_EQ(crashed.error_seeds, 0u);
  expect_same_deterministic_renderings(undisturbed, crashed);
}

TEST(DistBrokerTest, CrashBeyondRetryBudgetBecomesInfrastructureError) {
  campaign::CampaignConfig config = blinker_config(1, 6, 2);
  config.seed_retries = 0;  // first crash already exhausts the budget
  const std::string latch = testing::TempDir() + "esv_dist_budget_latch_" +
                            std::to_string(::getpid());
  campaign::CampaignReport report;
  {
    CrashHookGuard guard(3, latch);
    report = run_distributed(config);
  }
  ::unlink(latch.c_str());

  // The campaign still completes. The crashed seed is charged as an
  // infrastructure error; any other seed that was in flight on the killed
  // worker may be charged too, but never more than that.
  ASSERT_EQ(report.seeds.size(), 6u);
  const campaign::SeedResult& victim = report.seeds[2];
  EXPECT_EQ(victim.seed, 3u);
  EXPECT_EQ(victim.error_kind, "infrastructure");
  EXPECT_NE(victim.error.find("worker crashed"), std::string::npos);
  EXPECT_GE(report.error_seeds, 1u);
  std::uint64_t completed = 0;
  for (const campaign::SeedResult& seed : report.seeds) {
    if (seed.error.empty()) {
      ++completed;
      EXPECT_TRUE(seed.finished);  // survivors ran to completion
    } else {
      EXPECT_EQ(seed.error_kind, "infrastructure");
    }
  }
  EXPECT_EQ(completed + report.error_seeds, report.seed_count());
}

TEST(DistBrokerTest, UnresolvableWorkerBinaryIsAConfigurationError) {
  campaign::CampaignConfig config = blinker_config(1, 2, 2);
  config.worker_binary = "/nonexistent/esv-worker";
  EXPECT_THROW(run_distributed(config), std::invalid_argument);
}

TEST(DistBrokerTest, WorkerThatDiesOnStartupDegradesToInProcess) {
  // Graceful degradation (docs/RESILIENCE.md): every slot exhausts its
  // respawn budget without ever connecting, so the broker finishes the
  // seeds itself on --jobs threads — real results, not abandonment, and
  // byte-identical to a healthy run.
  const campaign::CampaignReport healthy =
      run_distributed(blinker_config(1, 4, 2));

  campaign::CampaignConfig config = blinker_config(1, 4, 2);
  config.worker_binary = "/bin/false";  // executes, exits, never connects
  // The journal hook still runs exactly once per freshly computed seed.
  std::mutex mutex;
  std::map<std::uint64_t, int> on_result_calls;
  config.on_result = [&](const campaign::SeedResult& result) {
    std::lock_guard<std::mutex> lock(mutex);
    ++on_result_calls[result.seed];
  };
  BrokerOptions options;
  options.max_respawns = 1;
  const campaign::CampaignReport report = run_distributed(config, options);
  ASSERT_EQ(report.seeds.size(), 4u);
  EXPECT_EQ(on_result_calls,
            (std::map<std::uint64_t, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}}));
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.error_seeds, 0u);
  EXPECT_NE(report.dist_metrics.counters.at("dist.degradations"), 0u);
  expect_same_deterministic_renderings(healthy, report);
}

TEST(DistBrokerTest, WorkerThatDiesOnStartupAbandonsWhenDegradationIsOff) {
  campaign::CampaignConfig config = blinker_config(1, 4, 2);
  config.worker_binary = "/bin/false";  // executes, exits, never connects
  BrokerOptions options;
  options.max_respawns = 1;
  options.degrade_in_process = false;
  const campaign::CampaignReport report = run_distributed(config, options);
  // Nothing hangs, nothing throws: every seed is an infrastructure error.
  ASSERT_EQ(report.seeds.size(), 4u);
  EXPECT_EQ(report.error_seeds, 4u);
  EXPECT_FALSE(report.degraded);
  for (const campaign::SeedResult& seed : report.seeds) {
    EXPECT_EQ(seed.error_kind, "infrastructure");
  }
  EXPECT_NE(report.dist_metrics.counters.at("dist.abandoned_seeds"), 0u);
}

TEST(DistBrokerTest, CampaignDeadlineAbortsWithStructuredCaptures) {
  campaign::CampaignConfig config = blinker_config(1, 64, 2);
  config.campaign_timeout_seconds = 0.000001;  // expires immediately
  const campaign::CampaignReport report = run_distributed(config);
  EXPECT_TRUE(report.deadline_exceeded);
  ASSERT_EQ(report.seeds.size(), 64u);
  std::uint64_t deadline_seeds = 0;
  for (const campaign::SeedResult& seed : report.seeds) {
    if (seed.error.find("--campaign-timeout") != std::string::npos) {
      EXPECT_EQ(seed.error_kind, "infrastructure");
      ++deadline_seeds;
    }
  }
  // The deadline fired before the fleet finished: at least one seed carries
  // the deterministic deadline capture, and every slot is filled.
  EXPECT_GE(deadline_seeds, 1u);
  EXPECT_NE(report.dist_metrics.counters.count("dist.deadline_aborts"), 0u);
}

TEST(DistBrokerTest, UnfinishedSlotCapturesMatchInProcessKnownAnswers) {
  // The broker's abort captures are the same known answers as
  // CampaignTest.UnfinishedSlotCapturesAreKnownAnswers: both the deadline
  // and a cancel set before the run cut every slot before any dispatch.
  campaign::CampaignConfig config = blinker_config(1, 6, 2);
  config.program_source = R"(
int cycles;
void main(void) {
  while (cycles < 50) {
    int x = __in(x);
    assert(x < 3);
    cycles = cycles + 1;
  }
}
)";
  config.spec_text = R"(
input x 0 3
prop done = cycles >= 50
check terminates: F done
)";
  config.fault_plan_text = "bitflip cycles window 10..10\n";
  int on_result_calls = 0;
  config.on_result = [&](const campaign::SeedResult&) { ++on_result_calls; };
  for (const bool cancel : {false, true}) {
    if (cancel) {
      config.campaign_timeout_seconds = 0.0;
      config.cancel = std::make_shared<std::atomic<bool>>(true);
    } else {
      config.campaign_timeout_seconds = 1e-9;
    }
    const campaign::CampaignReport report = run_distributed(config);
    EXPECT_EQ(report.cancelled, cancel);
    EXPECT_EQ(report.deadline_exceeded, !cancel);
    EXPECT_EQ(report.dist_metrics.counters.at("dist.deadline_seeds"), 6u);
    ASSERT_EQ(report.seeds.size(), 6u);
    for (const campaign::SeedResult& seed : report.seeds) {
      EXPECT_EQ(seed.error,
                cancel ? "campaign: cancelled"
                       : "campaign: wall-clock deadline exceeded "
                         "(--campaign-timeout)")
          << seed.seed;
      EXPECT_EQ(seed.error_kind, "infrastructure") << seed.seed;
      EXPECT_EQ(seed.fault_plan_digest, "e95081c9a5c95ff4") << seed.seed;
      EXPECT_EQ(seed.attempts, 1u) << seed.seed;
    }
  }
  EXPECT_EQ(on_result_calls, 0);
}

// The re-dispatch/respawn backoff schedule must be byte-deterministic for a
// fixed seed across runs — it feeds the chaos sweep's replay guarantee — so
// two schedules built alike produce bit-identical delay sequences, and the
// sequence obeys the documented envelope: attempt n draws from
// [min(base*2^n, cap)/2, min(base*2^n, cap)].
TEST(DistBrokerTest, BackoffScheduleIsDeterministicAndEnveloped) {
  const double base = 0.05;
  const double cap = 2.0;
  BackoffSchedule a(base, cap, 42);
  BackoffSchedule b(base, cap, 42);
  BackoffSchedule other_seed(base, cap, 43);
  bool any_seed_difference = false;
  for (unsigned attempt = 0; attempt < 24; ++attempt) {
    const double delay = a.delay_seconds(attempt);
    // Bit-identical, not approximately equal: the schedule is a pure
    // function of (base, cap, seed, call sequence).
    EXPECT_EQ(delay, b.delay_seconds(attempt)) << "attempt " << attempt;
    double ceiling = base;
    for (unsigned i = 0; i < attempt && ceiling < cap; ++i) ceiling *= 2.0;
    if (ceiling > cap) ceiling = cap;
    EXPECT_GE(delay, ceiling * 0.5) << "attempt " << attempt;
    EXPECT_LE(delay, ceiling) << "attempt " << attempt;
    any_seed_difference |= delay != other_seed.delay_seconds(attempt);
  }
  // A different seed jitters differently somewhere in the sequence.
  EXPECT_TRUE(any_seed_difference);
}

// The jitter draw advances with call order, not the attempt number: asking
// for the same attempt twice yields the next point in the stream, which is
// what keeps concurrent crash/respawn interleavings replayable from the
// call sequence alone.
TEST(DistBrokerTest, BackoffScheduleConsumesOneDrawPerCall) {
  BackoffSchedule a(0.05, 2.0, 7);
  BackoffSchedule b(0.05, 2.0, 7);
  const double first = a.delay_seconds(3);
  const double second = a.delay_seconds(3);
  EXPECT_EQ(first, b.delay_seconds(3));
  EXPECT_EQ(second, b.delay_seconds(3));
}

// SIGPIPE hardening (the worker ignores it at startup): a worker whose
// broker socket vanishes mid-conversation must exit in a structured way,
// not die of SIGPIPE. The broker path proves it end to end: kill the broker
// side of the pair by finishing the campaign early while a straggler
// respawned worker is still handshaking — covered implicitly above — so
// here it is enough that a full campaign under worker churn never records
// a SIGPIPE death (signal 13) in its worker-exit events.
TEST(DistBrokerTest, WorkerChurnNeverDiesOfSigpipe) {
  campaign::CampaignConfig config = blinker_config(1, 8, 2);
  config.seed_retries = 1;
  const std::string latch = testing::TempDir() + "esv_dist_sigpipe_latch_" +
                            std::to_string(::getpid());
  campaign::CampaignReport report;
  {
    CrashHookGuard guard(4, latch);
    report = run_distributed(config);
  }
  ::unlink(latch.c_str());
  EXPECT_EQ(report.dist_events_jsonl.find("killed by signal 13"),
            std::string::npos);
  EXPECT_EQ(report.error_seeds, 0u);
}

}  // namespace
}  // namespace esv::dist
