// Unit tests for the self-chaos engine (src/chaos/, docs/RESILIENCE.md):
// plan parsing and validation, the canonical digest, deterministic decide()
// schedules (nth / count / prob / role / generation selectors), the
// observability sinks, and the off-is-free fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esv::chaos {
namespace {

TEST(ChaosPlanTest, ParsesEveryDirectiveForm) {
  const ChaosPlan plan = parse_plan(
      "# comment line\n"
      "wire.tx drop nth 3\n"
      "wire.tx corrupt prob 1/50 count 2 ; wire.tx delay 50\n"
      "worker.seed crash nth 2 role worker gen 1\n"
      "worker.seed stall 200 prob 1/10 count 0\n"
      "worker.heartbeat delay 400 nth 5\n"
      "journal.write shortwrite\n"
      "journal.write failwrite nth 4\n"
      "journal.write enospc\n"
      "journal.fsync failsync nth 2\n"
      "serve.accept drop nth 1\n"
      "serve.rx delay 100 prob 1/5\n");
  ASSERT_EQ(plan.entries.size(), 12u);
  EXPECT_EQ(plan.entries[0].point, Point::kWireTx);
  EXPECT_EQ(plan.entries[0].action, Action::kDrop);
  EXPECT_EQ(plan.entries[0].nth, 3u);
  EXPECT_EQ(plan.entries[0].count, 1u);
  EXPECT_EQ(plan.entries[1].nth, 0u);  // prob selector
  EXPECT_EQ(plan.entries[1].prob_num, 1u);
  EXPECT_EQ(plan.entries[1].prob_den, 50u);
  EXPECT_EQ(plan.entries[1].count, 2u);
  EXPECT_EQ(plan.entries[2].action, Action::kDelay);
  EXPECT_EQ(plan.entries[2].arg, 50u);
  EXPECT_EQ(plan.entries[2].nth, 1u);  // default selector
  EXPECT_EQ(plan.entries[3].role, Role::kWorker);
  EXPECT_TRUE(plan.entries[3].has_generation);
  EXPECT_EQ(plan.entries[3].generation, 1u);
  EXPECT_EQ(plan.entries[4].count, 0u);  // uncapped
  EXPECT_EQ(plan.entries[9].point, Point::kJournalFsync);
  EXPECT_EQ(plan.entries[9].action, Action::kFailSync);
  EXPECT_EQ(plan.entries[10].point, Point::kServeAccept);
  EXPECT_EQ(plan.entries[10].action, Action::kDrop);
  EXPECT_EQ(plan.entries[11].point, Point::kServeRx);
  EXPECT_EQ(plan.entries[11].action, Action::kDelay);
  EXPECT_EQ(plan.entries[11].arg, 100u);
}

TEST(ChaosPlanTest, RejectsMalformedDirectives) {
  EXPECT_THROW(parse_plan("wire.tx"), ChaosPlanError);
  EXPECT_THROW(parse_plan("nowhere drop"), ChaosPlanError);
  EXPECT_THROW(parse_plan("wire.tx explode"), ChaosPlanError);
  EXPECT_THROW(parse_plan("journal.write drop"), ChaosPlanError);  // wrong point
  EXPECT_THROW(parse_plan("serve.accept crash"), ChaosPlanError);  // wrong point
  EXPECT_THROW(parse_plan("serve.rx delay"), ChaosPlanError);  // missing ms arg
  EXPECT_THROW(parse_plan("wire.tx delay"), ChaosPlanError);  // missing ms arg
  EXPECT_THROW(parse_plan("wire.tx drop nth 0"), ChaosPlanError);  // 1-based
  EXPECT_THROW(parse_plan("wire.tx drop nth 1 prob 1/2"), ChaosPlanError);
  EXPECT_THROW(parse_plan("wire.tx drop prob 1/0"), ChaosPlanError);
  EXPECT_THROW(parse_plan("wire.tx drop role nobody"), ChaosPlanError);
  EXPECT_THROW(parse_plan("wire.tx drop frequency 3"), ChaosPlanError);
  // Error messages carry the line number.
  try {
    parse_plan("wire.tx drop\nbogus");
    FAIL() << "expected ChaosPlanError";
  } catch (const ChaosPlanError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

// Plan numbers are read by the one strict reader: a value past its field
// is refused, naming the value (the 32-bit fields truncated: prob
// 4294967297/2 read as 1/2, gen 4294967296 as gen 0).
TEST(ChaosPlanTest, NumbersPastTheirFieldAreRefusedNamingThem) {
  const std::pair<const char*, const char*> cases[] = {
      {"wire.tx drop prob 4294967297/2",
       "bad probability numerator '4294967297'"},
      {"wire.tx drop prob 1/4294967296",
       "bad probability denominator '4294967296'"},
      {"worker.seed crash gen 4294967296", "bad gen '4294967296'"},
      {"wire.tx drop nth 18446744073709551616",
       "bad nth '18446744073709551616'"},
      {"wire.tx delay 18446744073709551616",
       "bad milliseconds '18446744073709551616'"},
      {"wire.tx drop count 18446744073709551616",
       "bad count '18446744073709551616'"},
      {"wire.tx drop prob /2", "probability numerator missing"},
      {"wire.tx drop nth -1", "bad nth '-1'"},
  };
  for (const auto& [text, message] : cases) {
    try {
      parse_plan(text);
      FAIL() << "no error for: " << text;
    } catch (const ChaosPlanError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // The edges of each field stay accepted.
  const ChaosPlan edges = parse_plan(
      "wire.tx drop prob 4294967295/4294967295 count 18446744073709551615\n"
      "worker.seed crash nth 18446744073709551615 gen 4294967295");
  EXPECT_EQ(edges.entries[0].prob_num, UINT32_MAX);
  EXPECT_EQ(edges.entries[0].prob_den, UINT32_MAX);
  EXPECT_EQ(edges.entries[0].count, UINT64_MAX);
  EXPECT_EQ(edges.entries[1].nth, UINT64_MAX);
  EXPECT_EQ(edges.entries[1].generation, UINT32_MAX);
}

TEST(ChaosPlanTest, DigestIsStableAndSelective) {
  const ChaosPlan a = parse_plan("wire.tx drop nth 3\njournal.fsync failsync");
  const ChaosPlan b =
      parse_plan("# same plan, different spelling\nwire.tx  drop  nth 3 ;"
                 " journal.fsync failsync nth 1");
  const ChaosPlan c = parse_plan("wire.tx drop nth 4");
  EXPECT_EQ(a.digest(), b.digest());  // canonical form, not source text
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_EQ(a.digest().size(), 16u);
  EXPECT_EQ(ChaosPlan{}.digest(), "");
}

TEST(ChaosEngineTest, NthAndCountScheduleExactly) {
  ChaosEngine engine(parse_plan("wire.tx drop nth 3 count 2"), 1);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(static_cast<bool>(engine.decide(Point::kWireTx)));
  }
  // Fires on hits 3 and 4 (count 2 starting at nth 3), never again.
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(engine.injected_count(), 2u);
  EXPECT_EQ(engine.hit_count(Point::kWireTx), 6u);
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0].hit, 3u);
  EXPECT_EQ(engine.log()[1].action, Action::kDrop);
}

TEST(ChaosEngineTest, DecisionsAreDeterministicPerSeedAndSalt) {
  const char* plan = "wire.tx drop prob 1/3 count 0";
  const auto schedule = [&](std::uint64_t seed, Role role, std::uint32_t id,
                            std::uint32_t gen) {
    ChaosEngine engine(parse_plan(plan), seed, role, id, gen);
    std::string out;
    for (int i = 0; i < 64; ++i) {
      out += engine.decide(Point::kWireTx) ? '1' : '0';
    }
    return out;
  };
  // Same salt => identical schedule; any salt component changing => the
  // schedule changes (probabilistically certain over 64 draws).
  EXPECT_EQ(schedule(7, Role::kWorker, 2, 1), schedule(7, Role::kWorker, 2, 1));
  EXPECT_NE(schedule(7, Role::kWorker, 2, 1), schedule(8, Role::kWorker, 2, 1));
  EXPECT_NE(schedule(7, Role::kWorker, 2, 1), schedule(7, Role::kWorker, 3, 1));
  EXPECT_NE(schedule(7, Role::kWorker, 2, 1), schedule(7, Role::kWorker, 2, 2));
  // The broker role ignores the worker-id salt.
  EXPECT_EQ(schedule(7, Role::kBroker, 0, 0), schedule(7, Role::kBroker, 9, 0));
  // A 1/3 chance over 64 draws fires somewhere in (0, 64).
  const std::string bits = schedule(7, Role::kWorker, 2, 1);
  const std::size_t ones =
      static_cast<std::size_t>(std::count(bits.begin(), bits.end(), '1'));
  EXPECT_GT(ones, 0u);
  EXPECT_LT(ones, 64u);
}

TEST(ChaosEngineTest, RoleAndGenerationSelectorsFilter) {
  const ChaosPlan plan =
      parse_plan("worker.seed crash nth 1 role worker gen 2");
  ChaosEngine broker(plan, 1, Role::kBroker);
  EXPECT_FALSE(broker.decide(Point::kWorkerSeed));
  ChaosEngine wrong_gen(plan, 1, Role::kWorker, 0, 1);
  EXPECT_FALSE(wrong_gen.decide(Point::kWorkerSeed));
  ChaosEngine right(plan, 1, Role::kWorker, 0, 2);
  EXPECT_TRUE(right.decide(Point::kWorkerSeed));
}

TEST(ChaosEngineTest, CorruptDrawsAByteIndexWithinExtent) {
  ChaosEngine engine(parse_plan("wire.tx corrupt nth 1"), 1);
  // Zero extent (empty payload): nothing to corrupt, nothing recorded.
  EXPECT_FALSE(engine.decide(Point::kWireTx, 0));
  ChaosEngine engine2(parse_plan("wire.tx corrupt nth 1"), 1);
  const Injection injection = engine2.decide(Point::kWireTx, 32);
  ASSERT_TRUE(injection);
  EXPECT_EQ(injection.action, Action::kCorrupt);
  EXPECT_LT(injection.arg, 32u);
}

TEST(ChaosEngineTest, SinksRecordInjections) {
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  ChaosEngine engine(parse_plan("journal.fsync failsync nth 2"), 1);
  engine.set_metrics(&metrics);
  engine.set_trace(&trace);
  engine.decide(Point::kJournalFsync);
  engine.decide(Point::kJournalFsync);
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counters.at("chaos.injected"), 1u);
  EXPECT_EQ(snapshot.counters.at("chaos.journal.fsync.failsync"), 1u);
  EXPECT_NE(trace.text().find("\"type\":\"chaos_injected\""),
            std::string::npos);
  EXPECT_NE(trace.text().find("\"point\":\"journal.fsync\""),
            std::string::npos);
}

TEST(ChaosEngineTest, GlobalProbeIsInertWithoutAnInstalledEngine) {
  ASSERT_EQ(ChaosEngine::installed(), nullptr);
  EXPECT_FALSE(at(Point::kWireTx));
  EXPECT_FALSE(at(Point::kJournalWrite, 100));

  ChaosEngine engine(parse_plan("wire.tx drop nth 1"), 1);
  ChaosEngine::install(&engine);
  EXPECT_TRUE(at(Point::kWireTx));
  ChaosEngine::install(nullptr);
  EXPECT_FALSE(at(Point::kWireTx));
  EXPECT_EQ(engine.injected_count(), 1u);
}

TEST(ChaosEngineTest, InstallFromEnvHonoursTheEnvironment) {
  ASSERT_EQ(ChaosEngine::installed(), nullptr);
  EXPECT_EQ(install_from_env(0, 0), nullptr);  // nothing set: no engine

  ::setenv(kPlanEnv, "worker.seed crash nth 1", 1);
  ::setenv(kSeedEnv, "42", 1);
  ChaosEngine* engine = install_from_env(3, 1);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine, ChaosEngine::installed());
  EXPECT_EQ(engine->role(), Role::kWorker);
  EXPECT_EQ(engine->plan().entries.size(), 1u);
  ChaosEngine::install(nullptr);

  // A malformed plan in the environment is tolerated (harness skew must not
  // crash-loop a worker), installing nothing.
  ::setenv(kPlanEnv, "not a directive", 1);
  EXPECT_EQ(install_from_env(0, 0), nullptr);
  EXPECT_EQ(ChaosEngine::installed(), nullptr);
  ::unsetenv(kPlanEnv);
  ::unsetenv(kSeedEnv);
}

// A malformed seed is handled as a malformed plan is: nothing is installed
// (strtoull read each of these as seed 0 and installed an engine).
TEST(ChaosEngineTest, InstallFromEnvRefusesAMalformedSeed) {
  ASSERT_EQ(ChaosEngine::installed(), nullptr);
  ::setenv(kPlanEnv, "worker.seed crash nth 1", 1);
  for (const char* seed : {"x42", "42x", "-1", " 42", "18446744073709551616"}) {
    ::setenv(kSeedEnv, seed, 1);
    EXPECT_EQ(install_from_env(0, 0), nullptr) << seed;
    EXPECT_EQ(ChaosEngine::installed(), nullptr) << seed;
  }
  ::unsetenv(kPlanEnv);
  ::unsetenv(kSeedEnv);
}

}  // namespace
}  // namespace esv::chaos
