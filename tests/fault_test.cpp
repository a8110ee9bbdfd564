// Fault-injection subsystem tests: plan parsing, target resolution, and the
// engine's deterministic injection behaviour against each bindable target
// (memory, flash, CAN, clock).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "can/can_controller.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "flash/flash_controller.hpp"
#include "mem/address_space.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace esv::fault {
namespace {

TEST(FaultPlanTest, ParsesEveryKindWithDefaults) {
  const FaultPlan plan = parse_plan(R"(
# comment line

bitflip led
stuckbit state 2 1
flashfail erase
canfault delay 8
clockjitter
)");
  ASSERT_EQ(plan.entries.size(), 5u);

  EXPECT_EQ(plan.entries[0].kind, FaultKind::kBitFlip);
  EXPECT_EQ(plan.entries[0].target, "led");
  EXPECT_EQ(plan.entries[0].from, 0u);
  EXPECT_EQ(plan.entries[0].until, UINT64_MAX);
  EXPECT_EQ(plan.entries[0].prob_num, 1u);
  EXPECT_EQ(plan.entries[0].prob_den, 1u);

  EXPECT_EQ(plan.entries[1].kind, FaultKind::kStuckBit);
  EXPECT_EQ(plan.entries[1].bit, 2u);
  EXPECT_EQ(plan.entries[1].stuck_value, 1u);

  EXPECT_EQ(plan.entries[2].kind, FaultKind::kFlashFail);
  EXPECT_EQ(plan.entries[2].flash_op, FlashFailOp::kErase);

  EXPECT_EQ(plan.entries[3].kind, FaultKind::kCanFault);
  EXPECT_EQ(plan.entries[3].can_op, CanFaultOp::kDelay);
  EXPECT_EQ(plan.entries[3].delay_ticks, 8u);

  EXPECT_EQ(plan.entries[4].kind, FaultKind::kClockJitter);
}

TEST(FaultPlanTest, ParsesWindowAndProbClausesInAnyOrder) {
  const FaultSpec a = parse_fault_line("bitflip x window 100..500 prob 1/50", 1);
  EXPECT_EQ(a.from, 100u);
  EXPECT_EQ(a.until, 500u);
  EXPECT_EQ(a.prob_num, 1u);
  EXPECT_EQ(a.prob_den, 50u);

  const FaultSpec b = parse_fault_line("clockjitter prob 3/4 window 7..7", 2);
  EXPECT_EQ(b.from, 7u);
  EXPECT_EQ(b.until, 7u);
  EXPECT_EQ(b.prob_num, 3u);
  EXPECT_EQ(b.prob_den, 4u);
  EXPECT_TRUE(b.active_at(7));
  EXPECT_FALSE(b.active_at(6));
  EXPECT_FALSE(b.active_at(8));
}

TEST(FaultPlanTest, RejectsMalformedDirectives) {
  EXPECT_THROW(parse_plan("frobnicate x"), FaultPlanError);
  EXPECT_THROW(parse_plan("bitflip"), FaultPlanError);
  EXPECT_THROW(parse_plan("stuckbit x 32 1"), FaultPlanError);
  EXPECT_THROW(parse_plan("stuckbit x 3 2"), FaultPlanError);
  EXPECT_THROW(parse_plan("flashfail format"), FaultPlanError);
  EXPECT_THROW(parse_plan("canfault explode"), FaultPlanError);
  EXPECT_THROW(parse_plan("canfault delay 0"), FaultPlanError);
  EXPECT_THROW(parse_plan("bitflip x window 9..3"), FaultPlanError);
  EXPECT_THROW(parse_plan("bitflip x window banana"), FaultPlanError);
  EXPECT_THROW(parse_plan("bitflip x prob 1/0"), FaultPlanError);
  EXPECT_THROW(parse_plan("bitflip x sideways"), FaultPlanError);
  // Errors carry the plan line number.
  try {
    parse_plan("bitflip ok\nbogus");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// Plan numbers are read by the one strict reader: a window bound past 64
// bits or a probability term past 32 bits is refused with the clause's
// message (they wrapped: 0..18446744073709551617 read as 0..1).
TEST(FaultPlanTest, NumbersPastTheirFieldAreRefusedNotWrapped) {
  const std::pair<const char*, const char*> cases[] = {
      {"bitflip x window 0..18446744073709551617",
       "malformed window '0..18446744073709551617' (want LO..HI)"},
      {"bitflip x window 18446744073709551616..18446744073709551617",
       "malformed window"},
      {"bitflip x prob 1/18446744073709551617",
       "malformed prob '1/18446744073709551617' (want N/D)"},
      {"bitflip x prob 4294967296/4294967297", "malformed prob"},
      {"bitflip x window -1..5", "malformed window"},
      {"stuckbit x 18446744073709551618 1", "stuckbit bit must be 0..31"},
      {"canfault delay 18446744073709551620",
       "canfault delay ticks must be > 0"},
  };
  for (const auto& [text, message] : cases) {
    try {
      parse_plan(text);
      FAIL() << "no error for: " << text;
    } catch (const FaultPlanError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // The edges of each field stay accepted.
  const FaultSpec edge = parse_fault_line(
      "bitflip x window 0..18446744073709551615 prob 4294967295/4294967295",
      1);
  EXPECT_EQ(edge.from, 0u);
  EXPECT_EQ(edge.until, UINT64_MAX);
  EXPECT_EQ(edge.prob_num, UINT32_MAX);
  EXPECT_EQ(edge.prob_den, UINT32_MAX);
  EXPECT_EQ(parse_fault_line("canfault delay 4294967295", 1).delay_ticks,
            UINT32_MAX);
}

TEST(FaultPlanTest, ResolveFillsAddressesAndRejectsUnknownTargets) {
  FaultPlan plan = parse_plan("bitflip led\nflashfail\nstuckbit led 0 1");
  plan.resolve([](const std::string& name, std::uint32_t& address) {
    if (name != "led") return false;
    address = 0x40;
    return true;
  });
  EXPECT_EQ(plan.entries[0].address, 0x40u);
  EXPECT_TRUE(plan.entries[0].resolved);
  EXPECT_TRUE(plan.entries[1].resolved);  // non-memory kinds need no target
  EXPECT_EQ(plan.entries[2].address, 0x40u);

  FaultPlan bad = parse_plan("bitflip nosuch");
  EXPECT_THROW(
      bad.resolve([](const std::string&, std::uint32_t&) { return false; }),
      FaultPlanError);
}

TEST(FaultEngineTest, BitFlipFlipsExactlyOneBit) {
  FaultPlan plan = parse_plan("bitflip x window 3..3");
  plan.entries[0].address = 0x10;
  plan.entries[0].resolved = true;

  mem::AddressSpace memory(0x1000);
  memory.write_word(0x10, 0xA5A5A5A5u);

  FaultEngine engine(plan, /*seed=*/42);
  engine.bind_memory(memory);
  for (std::uint64_t step = 0; step < 8; ++step) engine.on_step(step);

  EXPECT_EQ(engine.injected_count(), 1u);
  const std::uint32_t diff = memory.read_word(0x10) ^ 0xA5A5A5A5u;
  EXPECT_NE(diff, 0u);
  EXPECT_EQ(diff & (diff - 1), 0u) << "more than one bit changed";
  EXPECT_NE(engine.log_text().find("bitflip x bit"), std::string::npos);
}

TEST(FaultEngineTest, StuckBitIsReassertedAndLoggedOnlyOnChange) {
  FaultPlan plan = parse_plan("stuckbit x 4 1 window 0..10");
  plan.entries[0].address = 0x20;
  plan.entries[0].resolved = true;

  mem::AddressSpace memory(0x1000);
  FaultEngine engine(plan, 1);
  engine.bind_memory(memory);

  engine.on_step(0);  // 0 -> bit forced on: one injection
  EXPECT_EQ(memory.read_word(0x20), 1u << 4);
  EXPECT_EQ(engine.injected_count(), 1u);

  engine.on_step(1);  // already stuck: no new record
  EXPECT_EQ(engine.injected_count(), 1u);

  memory.write_word(0x20, 0);  // the software "writes through" the fault
  engine.on_step(2);           // ...and the level re-asserts
  EXPECT_EQ(memory.read_word(0x20), 1u << 4);
  EXPECT_EQ(engine.injected_count(), 2u);

  engine.on_step(11);  // outside the window: left alone
  memory.write_word(0x20, 0);
  engine.on_step(12);
  EXPECT_EQ(memory.read_word(0x20), 0u);
}

TEST(FaultEngineTest, FlashFailFailsTheNextMatchingCommand) {
  const FaultPlan plan = parse_plan("flashfail erase window 0..0");

  flash::FlashController flash;
  FaultEngine engine(plan, 1);
  engine.bind_flash(flash);
  engine.on_step(0);
  EXPECT_EQ(engine.injected_count(), 1u);

  // A program does not consume the armed erase fault...
  flash.mmio_write(flash::FlashController::kRegAddr, 0);
  flash.mmio_write(flash::FlashController::kRegData, 0x1234);
  flash.mmio_write(flash::FlashController::kRegCmd,
                   flash::FlashController::kCmdProgramWord);
  while (flash.busy()) flash.tick();
  EXPECT_FALSE(flash.error());
  EXPECT_EQ(flash.word_at(0), 0x1234u);

  // ...the next erase fails with the ERROR bit.
  flash.mmio_write(flash::FlashController::kRegAddr, 0);
  flash.mmio_write(flash::FlashController::kRegCmd,
                   flash::FlashController::kCmdErasePage);
  while (flash.busy()) flash.tick();
  EXPECT_TRUE(flash.error());
  EXPECT_EQ(flash.failed_op_count(), 1u);
  EXPECT_EQ(flash.word_at(0), 0x1234u) << "failed erase must not erase";
}

TEST(FaultEngineTest, CanFaultsCorruptDropAndDelay) {
  const auto transmit = [](can::CanController& can, std::uint32_t id,
                           std::uint32_t data) {
    can.mmio_write(can::CanController::kRegTxId, id);
    can.mmio_write(can::CanController::kRegTxData, data);
    can.mmio_write(can::CanController::kRegTxCtrl, 1);
    std::uint32_t ticks = 0;
    while (can.tx_busy()) {
      can.tick();
      ++ticks;
    }
    return ticks;
  };

  // Corrupt: frame reaches the log with a flipped payload.
  {
    can::CanController can;
    const FaultPlan plan = parse_plan("canfault corrupt window 0..0");
    FaultEngine engine(plan, 3);
    engine.bind_can(can);
    engine.on_step(0);
    transmit(can, 0x10, 0xCAFE);
    ASSERT_EQ(can.tx_log().size(), 1u);
    EXPECT_EQ(can.tx_log()[0].id, 0x10u);
    EXPECT_NE(can.tx_log()[0].data, 0xCAFEu);
  }
  // Drop: the sender completes but the frame never reaches the bus.
  {
    can::CanController can;
    const FaultPlan plan = parse_plan("canfault drop window 0..0");
    FaultEngine engine(plan, 3);
    engine.bind_can(can);
    engine.on_step(0);
    transmit(can, 0x10, 0xCAFE);
    EXPECT_TRUE(can.tx_log().empty());
    transmit(can, 0x11, 0xBEEF);  // only the next frame was lost
    ASSERT_EQ(can.tx_log().size(), 1u);
    EXPECT_EQ(can.tx_log()[0].data, 0xBEEFu);
  }
  // Delay: the transmission takes the configured extra busy ticks.
  {
    can::CanController can;
    const std::uint32_t baseline = transmit(can, 1, 2);
    const FaultPlan plan = parse_plan("canfault delay 8 window 0..0");
    FaultEngine engine(plan, 3);
    engine.bind_can(can);
    engine.on_step(0);
    EXPECT_EQ(transmit(can, 1, 2), baseline + 8);
  }
}

TEST(FaultEngineTest, ClockJitterFiresASpuriousEdge) {
  sim::Simulation sim;
  sim::Clock clock(sim, "clk", sim::Time::ns(10));
  const FaultPlan plan = parse_plan("clockjitter window 0..0");
  FaultEngine engine(plan, 9);
  engine.bind_clock(clock);

  const std::uint64_t before = clock.cycles();
  engine.on_step(0);
  EXPECT_EQ(clock.cycles(), before + 1);
  EXPECT_EQ(engine.injected_count(), 1u);
}

TEST(FaultEngineTest, SameSeedSamePlanSameLog) {
  FaultPlan plan = parse_plan("bitflip x prob 1/3\nclockjitter prob 1/5");
  plan.entries[0].address = 0x40;
  plan.entries[0].resolved = true;

  const auto run = [&plan](std::uint64_t seed) {
    mem::AddressSpace memory(0x1000);
    FaultEngine engine(plan, seed);
    engine.bind_memory(memory);
    for (std::uint64_t step = 0; step < 500; ++step) engine.on_step(step);
    return engine.log_text();
  };

  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(FaultEngineTest, ChanceStreamIsIndependentOfBindings) {
  // The same plan with and without a bound memory must inject at the same
  // steps for the bound kinds — unbound entries consume their draws too.
  FaultPlan plan =
      parse_plan("flashfail prob 1/4\nbitflip x prob 1/4\nclockjitter prob 1/4");
  plan.entries[1].address = 0x40;
  plan.entries[1].resolved = true;

  const auto bitflip_steps = [&plan](bool bind_flash_and_clock) {
    mem::AddressSpace memory(0x1000);
    flash::FlashController flash;
    sim::Simulation sim;
    sim::Clock clock(sim, "clk", sim::Time::ns(10));
    FaultEngine engine(plan, 11, /*log_limit=*/0);
    engine.bind_memory(memory);
    if (bind_flash_and_clock) {
      engine.bind_flash(flash);
      engine.bind_clock(clock);
    }
    for (std::uint64_t step = 0; step < 200; ++step) engine.on_step(step);
    std::string steps;
    for (const FaultRecord& rec : engine.log()) {
      if (rec.text.find("bitflip") != std::string::npos) {
        steps += std::to_string(rec.step) + ",";
      }
    }
    return steps;
  };

  EXPECT_EQ(bitflip_steps(false), bitflip_steps(true));
}

TEST(FaultEngineTest, LogLimitKeepsCountsExact) {
  FaultPlan plan = parse_plan("bitflip x");
  plan.entries[0].address = 0x40;
  plan.entries[0].resolved = true;

  mem::AddressSpace memory(0x1000);
  FaultEngine engine(plan, 1, /*log_limit=*/3);
  engine.bind_memory(memory);
  for (std::uint64_t step = 0; step < 10; ++step) engine.on_step(step);

  EXPECT_EQ(engine.injected_count(), 10u);
  EXPECT_EQ(engine.log().size(), 3u);
  EXPECT_NE(engine.log_text().find("7 more faults injected"),
            std::string::npos);
}

}  // namespace
}  // namespace esv::fault
