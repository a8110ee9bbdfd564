// The per-campaign monitor plan: prepare_campaign parses, synthesizes and
// compiles a compiled-mode spec's properties once, and every seed's stack
// runs that frozen plan with only its own proposition evaluators and monitor
// state. Two things are pinned here:
//   - per seed, over every examples/data program and both approaches, the
//     shared plan reaches exactly what `both` mode (which synthesizes per
//     seed and checks the compiled tables against the interpreted oracle)
//     reaches, under one and under four worker threads;
//   - building a seed's stack no longer does work that grows with the
//     property's time bound, and building a worker thread's SeedRunner no
//     longer compiles the program: prepare_campaign compiles it once and
//     every thread shares it. This binary replaces the global operator new
//     with a counting version to measure both.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/seed_runner.hpp"

#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace esv::campaign {
namespace {

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(ESV_DATA_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in) ADD_FAILURE() << "cannot read " << name;
  return text.str();
}

TEST(SharedPlanCampaignTest, PrepareFreezesAPlanForCompiledModeOnly) {
  CampaignConfig config;
  config.program_source = read_data("blinker.c");
  config.spec_text = read_data("blinker.esv");
  for (const sctc::MonitorMode mode :
       {sctc::MonitorMode::kProgression, sctc::MonitorMode::kCompiled,
        sctc::MonitorMode::kBoth}) {
    config.mode = mode;
    const CampaignSetup setup = prepare_campaign(config);
    if (mode != sctc::MonitorMode::kCompiled) {
      EXPECT_EQ(setup.specfile.monitor_plan, nullptr);
      continue;
    }
    ASSERT_NE(setup.specfile.monitor_plan, nullptr);
    const sctc::MonitorPlan& plan = *setup.specfile.monitor_plan;
    ASSERT_EQ(plan.properties.size(), setup.property_names.size());
    for (std::size_t i = 0; i < plan.properties.size(); ++i) {
      EXPECT_EQ(plan.properties[i].name, setup.property_names[i]);
      EXPECT_TRUE(plan.properties[i].compiled.valid());
    }
  }
}

class CorpusParityTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CorpusParityTest, SharedPlanMatchesPerSeedSynthesisSeedBySeed) {
  const auto [study, approach] = GetParam();
  CampaignConfig config;
  config.program_source = read_data(study + ".c");
  config.spec_text = read_data(study + ".esv");
  config.approach = approach;
  config.max_steps = 30'000;
  config.seed_lo = 1;
  config.seed_hi = 6;
  for (const unsigned jobs : {1u, 4u}) {
    config.jobs = jobs;
    config.mode = sctc::MonitorMode::kCompiled;
    const CampaignReport shared = run(config);
    config.mode = sctc::MonitorMode::kBoth;
    const CampaignReport oracle = run(config);
    ASSERT_EQ(shared.seeds.size(), oracle.seeds.size());
    for (std::size_t i = 0; i < shared.seeds.size(); ++i) {
      const SeedResult& got = shared.seeds[i];
      const SeedResult& want = oracle.seeds[i];
      SCOPED_TRACE("jobs " + std::to_string(jobs) + ", seed " +
                   std::to_string(want.seed));
      // `both` records any compiled-vs-interpreted divergence as an error.
      EXPECT_EQ(want.error_kind, got.error_kind) << want.error;
      EXPECT_EQ(want.error, got.error);
      ASSERT_EQ(got.properties.size(), want.properties.size());
      for (std::size_t p = 0; p < got.properties.size(); ++p) {
        EXPECT_EQ(got.properties[p].verdict, want.properties[p].verdict)
            << "property " << p;
        EXPECT_EQ(got.properties[p].decided_at_step,
                  want.properties[p].decided_at_step)
            << "property " << p;
      }
      EXPECT_EQ(got.steps, want.steps);
      EXPECT_EQ(got.prop_true_counts, want.prop_true_counts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExamplesData, CorpusParityTest,
    ::testing::Combine(::testing::Values(std::string("blinker"),
                                         std::string("can_transport"),
                                         std::string("osek_scheduler"),
                                         std::string("sensor_debounce")),
                       ::testing::Values(1, 2)));

/// Heap allocations made while constructing seed 1's stack on a prepared
/// blinker campaign whose spec checks `property`.
std::uint64_t stack_allocations(const std::string& property) {
  CampaignConfig config;
  config.program_source = read_data("blinker.c");
  config.spec_text =
      "input enable 0 1\n"
      "prop led_on  = led == LED_ON\n"
      "prop led_off = led == LED_OFF\n"
      "check respond: " + property + "\n";
  config.mode = sctc::MonitorMode::kCompiled;
  const CampaignSetup setup = prepare_campaign(config);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  SeedStack stack(config, setup, 1, nullptr, nullptr);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SharedPlanCampaignTest, StackAllocationsDoNotGrowWithTheTimeBound) {
  // Synthesizing G (p -> F[n] q) builds a state, a formula node and a
  // transition row for every pending step of the window, so its cost grows
  // with n; a stack that runs the frozen plan builds none of them.
  const std::uint64_t short_bound =
      stack_allocations("G (led_on -> F[10] led_off)");
  const std::uint64_t long_bound =
      stack_allocations("G (led_on -> F[1000] led_off)");
  EXPECT_EQ(short_bound, long_bound);
  EXPECT_GT(short_bound, 0u);
}

/// Heap allocations made while constructing a SeedRunner on a prepared
/// campaign over examples/data/`study`.
std::uint64_t runner_allocations(const std::string& study, int approach) {
  CampaignConfig config;
  config.program_source = read_data(study + ".c");
  config.spec_text = read_data(study + ".esv");
  config.approach = approach;
  const CampaignSetup setup = prepare_campaign(config);
  EXPECT_NE(setup.program, nullptr);
  if (setup.program != nullptr) {
    EXPECT_EQ(setup.program->lowered.has_value(), approach == 2);
    EXPECT_EQ(setup.program->image.has_value(), approach == 1);
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const SeedRunner runner(config, setup);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SharedPlanCampaignTest, SeedRunnerConstructionDoesNotCompile) {
  // Compiling osek_scheduler.c (the AST, the lowering or the code image)
  // allocates far more than compiling blinker.c; a runner that shares the
  // setup's compile allocates the same few blocks for either.
  for (const int approach : {1, 2}) {
    SCOPED_TRACE("approach " + std::to_string(approach));
    const std::uint64_t blinker = runner_allocations("blinker", approach);
    const std::uint64_t osek = runner_allocations("osek_scheduler", approach);
    EXPECT_EQ(blinker, osek);
    EXPECT_LE(blinker, 4u);
  }
}

}  // namespace
}  // namespace esv::campaign
