// Campaign runner tests: determinism across jobs counts, equivalence with
// the legacy single-run path, aggregation, error capture, and coverage
// merging. The determinism tests are the regression net for the thread-pool
// runner — any scheduling dependence shows up as a table diff.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/seed_runner.hpp"
#include "esw/esw_model.hpp"
#include "mem/address_space.hpp"
#include "minic/sema.hpp"
#include "spec/specfile.hpp"
#include "stimulus/coverage.hpp"
#include "stimulus/random_inputs.hpp"

namespace esv::campaign {
namespace {

const char* kBlinker = R"(
enum { LED_OFF = 0, LED_ON = 1 };

bool flag;
int led;
int ticks_on;
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
  if (led == LED_ON) {
    ticks_on = ticks_on + 1;
  }
}

void main(void) {
  led = LED_OFF;
  ticks_on = 0;
  flag = true;
  while (cycles < 200) {
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
prop finished  = cycles >= 200

check legal: G (led_on || led_off)
check terminates: F finished
check responds: G (led_on -> F[10] led_off)
)";

CampaignConfig blinker_config(std::uint64_t lo, std::uint64_t hi,
                              unsigned jobs) {
  CampaignConfig config;
  config.program_source = kBlinker;
  config.spec_text = kBlinkerSpec;
  config.seed_lo = lo;
  config.seed_hi = hi;
  config.jobs = jobs;
  return config;
}

TEST(CampaignTest, DeterministicAcrossJobsCounts) {
  const CampaignReport serial = run(blinker_config(1, 24, 1));
  const CampaignReport parallel = run(blinker_config(1, 24, 8));

  // Bit-identical verdict table, merged coverage, and timing-free JSON.
  EXPECT_EQ(serial.verdict_table(), parallel.verdict_table());
  EXPECT_EQ(serial.to_json(/*include_timing=*/false),
            parallel.to_json(/*include_timing=*/false));
  ASSERT_EQ(serial.seeds.size(), parallel.seeds.size());
  for (std::size_t i = 0; i < serial.seeds.size(); ++i) {
    EXPECT_EQ(serial.seeds[i].seed, parallel.seeds[i].seed);
    EXPECT_EQ(serial.seeds[i].steps, parallel.seeds[i].steps);
    EXPECT_EQ(serial.seeds[i].draws, parallel.seeds[i].draws);
    EXPECT_EQ(serial.seeds[i].prop_true_counts,
              parallel.seeds[i].prop_true_counts);
  }
  // The jobs count is echoed in the report but must never leak into the
  // deterministic renderings.
  EXPECT_EQ(serial.jobs, 1u);
  EXPECT_EQ(parallel.jobs, 8u);
}

TEST(CampaignTest, DeterministicAcrossJobsCountsAutomatonMode) {
  // Compiled mode runs the synthesized AR-automaton.
  CampaignConfig config = blinker_config(1, 8, 1);
  config.mode = sctc::MonitorMode::kCompiled;
  const CampaignReport serial = run(config);
  config.jobs = 8;
  const CampaignReport parallel = run(config);
  EXPECT_EQ(serial.verdict_table(), parallel.verdict_table());
}

TEST(CampaignTest, CompiledAndBothModesMatchInterpretedVerdicts) {
  const CampaignReport interpreted = run(blinker_config(1, 8, 2));
  for (const sctc::MonitorMode mode :
       {sctc::MonitorMode::kCompiled, sctc::MonitorMode::kBoth}) {
    CampaignConfig config = blinker_config(1, 8, 2);
    config.mode = mode;
    const CampaignReport report = run(config);
    // The verdict tables carry the mode name, so compare the aggregates.
    EXPECT_EQ(report.validated_total, interpreted.validated_total);
    EXPECT_EQ(report.violated_total, interpreted.violated_total);
    EXPECT_EQ(report.pending_total, interpreted.pending_total);
    EXPECT_EQ(report.total_steps, interpreted.total_steps);
    // `both` would surface any compiled-vs-interpreted divergence as an
    // errored seed (error_kind "monitor"); a correct build has none.
    EXPECT_EQ(report.error_seeds, 0u);
  }
}

// ESV_CAMPAIGN_TEST_DIVERGE_SEED goes through the one number reader: a
// malformed value names no seed (strtoull read each of these as seed 0).
TEST(CampaignTest, MalformedDivergeSeedDivergesNoSeed) {
  constexpr const char* kHook = "ESV_CAMPAIGN_TEST_DIVERGE_SEED";
  CampaignConfig config = blinker_config(0, 1, 1);
  config.mode = sctc::MonitorMode::kBoth;
  ::setenv(kHook, "0", 1);  // the hook itself fires on a valid seed
  EXPECT_EQ(run(config).error_seeds, 1u);
  for (const char* bad :
       {"", "x0", "0x0", "-0", "0 ", "18446744073709551616"}) {
    ::setenv(kHook, bad, 1);
    EXPECT_EQ(run(config).error_seeds, 0u) << "'" << bad << "'";
  }
  ::unsetenv(kHook);
}

TEST(CampaignTest, ReportMetricsBlockRecordsMonitorModeAndThroughput) {
  CampaignConfig config = blinker_config(1, 4, 2);
  config.mode = sctc::MonitorMode::kCompiled;
  config.collect_metrics = true;
  const CampaignReport report = run(config);

  // The metrics block alone must pin down how a BENCH_* figure was made:
  // monitor mode always, steps/s only when timing is included (so the
  // timing-free rendering stays byte-deterministic).
  const std::string deterministic = report.to_json(/*include_timing=*/false);
  EXPECT_NE(deterministic.find("\"monitor_mode\": \"compiled\""),
            std::string::npos);
  EXPECT_EQ(deterministic.find("steps_per_second"), std::string::npos);

  const std::string timed = report.to_json(/*include_timing=*/true);
  EXPECT_NE(timed.find("\"monitor_mode\": \"compiled\""), std::string::npos);
  EXPECT_NE(timed.find("\"steps_per_second\": "), std::string::npos);
}

TEST(CampaignTest, SingleSeedCampaignMatchesLegacySingleRunPath) {
  const std::uint64_t kSeed = 7;
  const CampaignReport report = run(blinker_config(kSeed, kSeed, 1));
  ASSERT_EQ(report.seeds.size(), 1u);
  const SeedResult& campaign_seed = report.seeds[0];

  // The legacy path: exactly what esv-verify does for --approach=2 --seed=7.
  minic::Program program = minic::compile(kBlinker);
  const spec::SpecFile specfile = spec::parse_spec(kBlinkerSpec);
  mem::AddressSpace memory(program.memory_bytes());
  stimulus::RandomInputProvider inputs(kSeed);
  for (const auto& input : specfile.inputs) {
    inputs.set_range(input.name, input.lo, input.hi);
  }
  sim::Simulation sim;
  sctc::TemporalChecker checker(sim, "sctc");
  spec::apply_spec(specfile, program, memory, checker);
  checker.set_stop_on_violation(true);
  esw::EswProgram lowered = esw::lower_program(program);
  esw::EswModel model(sim, "esw", program, lowered, memory, inputs);
  checker.bind_trigger(model.pc_event());
  sim.create_method(
      "supervisor",
      [&] {
        if (model.finished() || checker.all_decided() ||
            model.interpreter().steps_executed() >= 1'000'000) {
          sim.stop();
        }
      },
      {&model.pc_event()}, /*run_at_start=*/false);
  sim.run();

  ASSERT_EQ(campaign_seed.properties.size(), checker.properties().size());
  for (std::size_t p = 0; p < checker.properties().size(); ++p) {
    EXPECT_EQ(campaign_seed.properties[p].verdict,
              checker.properties()[p].verdict());
    EXPECT_EQ(campaign_seed.properties[p].decided_at_step,
              checker.properties()[p].decided_at_step);
  }
  EXPECT_EQ(campaign_seed.steps, checker.steps());
  EXPECT_EQ(campaign_seed.statements, model.interpreter().steps_executed());
  EXPECT_EQ(campaign_seed.draws, inputs.draw_count());
  EXPECT_EQ(campaign_seed.finished, model.finished());
  EXPECT_EQ(campaign_seed.prop_true_counts,
            checker.registered_proposition_true_counts());
}

TEST(CampaignTest, ApproachOneCampaignIsDeterministic) {
  CampaignConfig config = blinker_config(1, 4, 1);
  config.approach = 1;
  config.max_steps = 2'000'000;
  // A violation-free spec: the run must reach the CPU halt, so `finished`
  // is meaningful. (The default spec's bounded response violates under
  // statement-granular sampling and stops the simulation early.)
  config.spec_text = R"(
input enable 0 1
prop led_on    = led == LED_ON
prop led_off   = led == LED_OFF
prop finished  = cycles >= 200
check legal: G (led_on || led_off)
check terminates: F finished
)";
  const CampaignReport serial = run(config);
  config.jobs = 4;
  const CampaignReport parallel = run(config);
  EXPECT_EQ(serial.verdict_table(), parallel.verdict_table());
  for (const SeedResult& seed : serial.seeds) {
    EXPECT_TRUE(seed.finished) << "seed " << seed.seed;
    EXPECT_TRUE(seed.error.empty()) << seed.error;
  }
}

TEST(CampaignTest, AggregatesViolationsAndWitnesses) {
  CampaignConfig config = blinker_config(1, 6, 3);
  // ticks_on < 3 is eventually violated on every seed that toggles enough.
  config.spec_text = R"(
input enable 0 1
prop calm = ticks_on < 3
check never_busy: G calm
)";
  config.witness_depth = 4;
  const CampaignReport report = run(config);

  ASSERT_EQ(report.per_property.size(), 1u);
  const PropertyAggregate& agg = report.per_property[0];
  EXPECT_EQ(agg.name, "never_busy");
  EXPECT_GT(agg.violated, 0u);
  EXPECT_EQ(agg.validated + agg.violated + agg.pending, report.seed_count());
  ASSERT_TRUE(agg.first_violation_seed.has_value());

  EXPECT_TRUE(report.any_violated());
  EXPECT_EQ(report.violated_total, agg.violated);
  bool found_witness = false;
  for (const SeedResult& seed : report.seeds) {
    if (seed.properties[0].verdict == temporal::Verdict::kViolated) {
      EXPECT_FALSE(seed.witness.empty());
      EXPECT_NE(seed.witness.find("calm"), std::string::npos);
      found_witness = true;
      // first_violation_seed is the smallest violating seed.
      EXPECT_LE(*agg.first_violation_seed, seed.seed);
    }
  }
  EXPECT_TRUE(found_witness);
}

TEST(CampaignTest, SutFaultIsRecordedNotFatal) {
  CampaignConfig config = blinker_config(1, 4, 2);
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
  const CampaignReport report = run(config);
  EXPECT_GT(report.error_seeds, 0u);
  for (const SeedResult& seed : report.seeds) {
    if (!seed.error.empty()) {
      EXPECT_NE(seed.error.find("assertion failed"), std::string::npos)
          << seed.error;
      EXPECT_FALSE(seed.finished);
    }
  }
  // Deterministic error capture too.
  const CampaignReport again = run(config);
  EXPECT_EQ(report.verdict_table(), again.verdict_table());
}

TEST(CampaignTest, ErroredSeedsRecordFaultPlanDigest) {
  // In a fault campaign every errored seed carries the plan digest, so a
  // crash report (local or shipped back from a distributed worker) names the
  // exact (plan, seed) pair needed to reproduce it with one
  // `esv-verify --seed=N --faults=PLAN` run.
  CampaignConfig config = blinker_config(1, 6, 2);
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
  const CampaignReport report = run(config);
  ASSERT_GT(report.error_seeds, 0u);
  std::string digest;
  for (const SeedResult& seed : report.seeds) {
    if (seed.error.empty()) {
      EXPECT_TRUE(seed.fault_plan_digest.empty()) << seed.seed;
    } else {
      ASSERT_EQ(seed.fault_plan_digest.size(), 16u) << seed.seed;
      if (digest.empty()) digest = seed.fault_plan_digest;
      EXPECT_EQ(seed.fault_plan_digest, digest);  // one plan, one digest
    }
  }
  // The digest surfaces in both renderings of the error.
  EXPECT_NE(report.verdict_table().find("plan=" + digest), std::string::npos)
      << report.verdict_table();
  EXPECT_NE(report.to_json(false).find("\"fault_plan_digest\": \"" + digest),
            std::string::npos);

  // Nominal campaigns have no plan, so errored seeds carry no digest.
  config.fault_plan_text.clear();
  const CampaignReport nominal = run(config);
  ASSERT_GT(nominal.error_seeds, 0u);
  for (const SeedResult& seed : nominal.seeds) {
    EXPECT_TRUE(seed.fault_plan_digest.empty());
  }
  EXPECT_EQ(nominal.verdict_table().find("plan="), std::string::npos);
}

TEST(CampaignTest, UnfinishedSlotCapturesAreKnownAnswers) {
  // Every slot a deadline or a cancel leaves unfinished is a deterministic
  // infrastructure error carrying the plan digest; on_result (the journal
  // hook) never runs for it, and a resumed slot keeps its result. The bytes
  // are known answers; DistBrokerTest pins the same ones for the broker.
  CampaignConfig config = blinker_config(1, 6, 2);
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
  std::atomic<int> on_result_calls{0};
  config.on_result = [&](const SeedResult&) { ++on_result_calls; };
  const auto expect_captured = [](const SeedResult& seed, const char* error) {
    EXPECT_EQ(seed.error, error) << seed.seed;
    EXPECT_EQ(seed.error_kind, "infrastructure") << seed.seed;
    EXPECT_EQ(seed.fault_plan_digest, "e95081c9a5c95ff4") << seed.seed;
    EXPECT_EQ(seed.attempts, 1u) << seed.seed;
  };

  config.campaign_timeout_seconds = 1e-9;  // past before the first claim
  const CampaignReport late = run(config);
  EXPECT_TRUE(late.deadline_exceeded);
  EXPECT_FALSE(late.cancelled);
  ASSERT_EQ(late.seeds.size(), 6u);
  for (const SeedResult& seed : late.seeds) {
    expect_captured(
        seed, "campaign: wall-clock deadline exceeded (--campaign-timeout)");
  }

  CampaignConfig checkpoint = blinker_config(3, 3, 1);
  checkpoint.program_source = config.program_source;
  checkpoint.spec_text = config.spec_text;
  checkpoint.fault_plan_text = config.fault_plan_text;
  config.resume_results = run(checkpoint).seeds;
  ASSERT_EQ(config.resume_results.size(), 1u);
  config.campaign_timeout_seconds = 0.0;
  config.cancel = std::make_shared<std::atomic<bool>>(true);
  const CampaignReport cancelled = run(config);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.deadline_exceeded);
  ASSERT_EQ(cancelled.seeds.size(), 6u);
  for (const SeedResult& seed : cancelled.seeds) {
    if (seed.seed == 3) {
      EXPECT_TRUE(seed.error.empty());
      EXPECT_EQ(seed.steps, 11u);
      EXPECT_EQ(seed.injected_faults, 1u);
    } else {
      expect_captured(seed, "campaign: cancelled");
    }
  }
  EXPECT_EQ(cancelled.error_seeds, 5u);
  EXPECT_EQ(on_result_calls.load(), 0);
}

TEST(CampaignTest, MergedCoverageIsSumOfSeeds) {
  const CampaignReport report = run(blinker_config(1, 10, 4));
  ASSERT_FALSE(report.coverage.empty());
  for (std::size_t c = 0; c < report.coverage.size(); ++c) {
    std::uint64_t true_sum = 0;
    for (const SeedResult& seed : report.seeds) {
      ASSERT_LT(c, seed.prop_true_counts.size());
      true_sum += seed.prop_true_counts[c];
    }
    EXPECT_EQ(report.coverage[c].true_steps, true_sum);
    EXPECT_EQ(report.coverage[c].total_steps, report.total_steps);
    EXPECT_GE(report.coverage[c].percent(), 0.0);
    EXPECT_LE(report.coverage[c].percent(), 100.0);
  }
  // led_on and led_off partition every step.
  EXPECT_EQ(report.coverage[0].name, "led_on");
  EXPECT_EQ(report.coverage[1].name, "led_off");
  EXPECT_EQ(report.coverage[0].true_steps + report.coverage[1].true_steps,
            report.total_steps);
}

TEST(CampaignTest, ConfigurationErrorsThrowBeforeWorkersStart) {
  CampaignConfig config = blinker_config(5, 1, 2);
  EXPECT_THROW(run(config), std::invalid_argument);

  config = blinker_config(1, 2, 1);
  config.approach = 3;
  EXPECT_THROW(run(config), std::invalid_argument);

  config = blinker_config(1, 2, 1);
  config.spec_text = "bogus directive";
  EXPECT_THROW(run(config), spec::SpecError);

  config = blinker_config(1, 2, 1);
  config.spec_text = "prop x = no_such_global == 0\ncheck p: G x";
  EXPECT_THROW(run(config), spec::SpecError);

  config = blinker_config(1, 2, 1);
  config.program_source = "void main(void) { undeclared = 1; }";
  EXPECT_THROW(run(config), std::exception);

  // Synthesis runs once, in prepare_campaign: a compiled-mode property over
  // 17 propositions exceeds the synthesis limit there, and the
  // SynthesisLimitError reaches the caller wrapped in the spec line's
  // SpecError before any worker starts.
  config = blinker_config(1, 4, 2);
  config.mode = sctc::MonitorMode::kCompiled;
  std::atomic<int> results{0};
  config.on_result = [&results](const SeedResult&) { ++results; };
  std::string wide_spec;
  std::string disjunction;
  for (int i = 0; i < 17; ++i) {
    const std::string name = "c" + std::to_string(i);
    wide_spec += "prop " + name + " = cycles == " + std::to_string(i) + "\n";
    disjunction += (i == 0 ? "" : " || ") + name;
  }
  config.spec_text = wide_spec + "check wide: G (" + disjunction + ")\n";
  try {
    run(config);
    ADD_FAILURE() << "a 17-proposition compiled property ran";
  } catch (const spec::SpecError& e) {
    EXPECT_EQ(e.line(), 18);
    EXPECT_NE(std::string(e.what()).find(
                  "synthesize: property has 17 propositions; limit is 16"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(results.load(), 0);
}

// Every path runs prepare_campaign before it starts a thread or a process,
// so the parallelism bound holds there for the in-process pool, the broker,
// the worker shards and the single run alike.
TEST(CampaignTest, ParallelismPastTheBoundIsRefused) {
  constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
  CampaignConfig config = blinker_config(1, 1, kMaxParallelism);
  EXPECT_NO_THROW(prepare_campaign(config));
  config.workers = 1;
  EXPECT_NO_THROW(prepare_campaign(config));
  for (const auto& [workers, jobs] :
       std::vector<std::pair<unsigned, unsigned>>{
           {0, kMaxParallelism + 1},
           {0, kMax},
           {kMaxParallelism + 1, 1},
           {kMaxParallelism + 1, 0},
           {2, kMaxParallelism / 2 + 1},
           {kMax, kMax}}) {
    config.workers = workers;
    config.jobs = jobs;
    EXPECT_THROW(prepare_campaign(config), ParallelismError)
        << workers << " x " << jobs;
  }
  config.workers = 32;
  config.jobs = 32;
  EXPECT_NO_THROW(prepare_campaign(config));

  // A one-seed in-process run starts at most one thread even with the bound
  // broken, so it can safely show the refusal reaching campaign::run.
  try {
    run(blinker_config(1, 1, kMax));
    ADD_FAILURE() << "a campaign with jobs = " << kMax << " ran";
  } catch (const ParallelismError& e) {
    EXPECT_EQ(std::string(e.what()),
              "campaign: jobs 4294967295 exceeds the limit of 1024");
  }
}

TEST(CampaignTest, JobsLargerThanSeedRangeIsClamped) {
  const CampaignReport report = run(blinker_config(3, 4, 16));
  EXPECT_EQ(report.jobs, 2u);
  EXPECT_EQ(report.seed_count(), 2u);
  EXPECT_EQ(report.seeds[0].seed, 3u);
  EXPECT_EQ(report.seeds[1].seed, 4u);
}

// The stimulus-layer merge that campaign-style aggregation builds on.
TEST(CampaignTest, ReturnCodeCoverageMerge) {
  stimulus::ReturnCodeCoverage a({10, 20, 30});
  stimulus::ReturnCodeCoverage b({10, 20, 30});
  a.observe(10);
  b.observe(20);
  b.observe(99);  // anomaly in b
  a.merge(b);
  EXPECT_EQ(a.observed_count(), 2u);
  EXPECT_EQ(a.anomaly_count(), 1u);
  EXPECT_DOUBLE_EQ(a.percent(), 100.0 * 2 / 3);

  // Merging a collector with a different expected set cannot inflate
  // coverage: unknown codes land in the anomaly count instead.
  stimulus::ReturnCodeCoverage other({40});
  other.observe(40);
  a.merge(other);
  EXPECT_EQ(a.observed_count(), 2u);
  EXPECT_EQ(a.anomaly_count(), 2u);
}

}  // namespace
}  // namespace esv::campaign
