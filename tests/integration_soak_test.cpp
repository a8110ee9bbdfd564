// Integration soak: the full case study with ALL seven operation-response
// properties monitored simultaneously in one simulation — the paper runs one
// property per experiment; the checker handles the whole set at once.
#include <gtest/gtest.h>

#include "casestudy/eeprom.hpp"
#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "minic/sema.hpp"
#include "sctc/checker.hpp"
#include "stimulus/coverage.hpp"
#include "stimulus/random_inputs.hpp"

namespace esv {
namespace {

TEST(IntegrationSoakTest, AllPropertiesSimultaneouslyOnEswModel) {
  using namespace casestudy;

  minic::Program program = minic::compile(eeprom_emulation_source());
  esw::EswProgram lowered = esw::lower_program(program);
  mem::AddressSpace memory(program.memory_bytes());
  flash::FlashController flash_dev(eeprom_flash_config());
  memory.map_device(kFlashMmioBase, flash_dev.window_bytes(), flash_dev);
  stimulus::RandomInputProvider inputs(0xCAFE);
  stimulus::configure_eeprom_inputs(inputs, /*fault_permille=*/15);
  esw::Interpreter interp(program, lowered, memory, inputs);

  sim::Simulation sim;
  sctc::TemporalChecker checker(sim, "sctc");
  std::vector<std::unique_ptr<stimulus::ReturnCodeCoverage>> coverages;
  std::vector<std::uint32_t> ret_addrs;
  for (const OperationSpec& op : eeprom_operations()) {
    register_operation_propositions(checker, memory, program, op);
    checker.add_property(op.name, response_property(op, 20000));
    coverages.push_back(
        std::make_unique<stimulus::ReturnCodeCoverage>(op.return_codes));
    ret_addrs.push_back(program.find_global(op.ret_global)->address);
  }
  ASSERT_EQ(checker.properties().size(), 7u);

  const std::uint32_t tc_addr = program.find_global("test_cases")->address;
  std::uint64_t steps = 0;
  while (memory.sctc_read_uint(tc_addr) < 3000 && steps < 10'000'000) {
    ASSERT_TRUE(interp.step());
    ++steps;
    checker.step_all();
    for (std::size_t i = 0; i < coverages.size(); ++i) {
      coverages[i]->observe(memory.sctc_read_uint(ret_addrs[i]));
    }
    ASSERT_FALSE(checker.any_violated()) << checker.report();
  }

  EXPECT_EQ(memory.sctc_read_uint(tc_addr), 3000u);
  // Every operation executed and produced documented return values only.
  double total_coverage = 0;
  for (std::size_t i = 0; i < coverages.size(); ++i) {
    EXPECT_GT(coverages[i]->percent(), 0.0)
        << eeprom_operations()[i].name;
    EXPECT_EQ(coverages[i]->anomaly_count(), 0u)
        << eeprom_operations()[i].name;
    total_coverage += coverages[i]->percent();
  }
  // The mixed workload with fault injection reaches most return codes.
  EXPECT_GT(total_coverage / static_cast<double>(coverages.size()), 70.0);
  // The flash saw real wear: erases from formats/prepares, programs from
  // writes/refreshes, and injected failures.
  EXPECT_GT(flash_dev.erase_count(), 100u);
  EXPECT_GT(flash_dev.program_count(), 500u);
  EXPECT_GT(flash_dev.failed_op_count(), 0u);
}

TEST(IntegrationSoakTest, LongRunStaysConsistentAcrossReboots) {
  // Alternate random operation and reboots; after every startup the pool
  // must come back consistent (startup1+2 succeed once formatted).
  using namespace casestudy;
  minic::Program program = minic::compile(eeprom_emulation_source());
  esw::EswProgram lowered = esw::lower_program(program);
  mem::AddressSpace memory(program.memory_bytes());
  flash::FlashController flash_dev(eeprom_flash_config());
  memory.map_device(kFlashMmioBase, flash_dev.window_bytes(), flash_dev);

  const std::uint32_t tc_addr = program.find_global("test_cases")->address;
  common::Rng rng(77);
  bool formatted = false;
  for (int reboot = 0; reboot < 12; ++reboot) {
    stimulus::RandomInputProvider inputs(rng.next_u64());
    stimulus::configure_eeprom_inputs(inputs, 0);
    esw::Interpreter interp(program, lowered, memory, inputs);
    // Random number of operations, then "power loss" at a random step.
    const std::uint64_t cases = 5 + rng.next_below(40);
    std::uint64_t guard = 0;
    while (memory.sctc_read_uint(tc_addr) < cases && guard++ < 3'000'000) {
      if (!interp.step()) break;
    }
    const std::uint64_t extra = rng.next_below(2000);
    for (std::uint64_t i = 0; i < extra; ++i) {
      if (!interp.step()) break;  // cut power mid-operation
    }
    if (interp.global("ret_format") == kEeeOk) formatted = true;

    if (formatted) {
      // Reboot and verify the pool recovers. A power loss in the middle of
      // a *format* legitimately leaves no active page (EEE_ERR_NO_INSTANCE:
      // the application layer must format again); anything else must come
      // back clean.
      class BootScript : public minic::InputProvider {
       public:
        std::uint32_t input(int, const std::string& name) override {
          if (name == "op_select") return next_op_++ == 0 ? 1 : 2;
          return 0;
        }

       private:
        int next_op_ = 0;
      };
      BootScript boot;
      esw::Interpreter recover(program, lowered, memory, boot);
      std::uint64_t guard2 = 0;
      while (memory.sctc_read_uint(tc_addr) < 2 && guard2++ < 3'000'000) {
        ASSERT_TRUE(recover.step());
      }
      const std::uint32_t s1 = recover.global("ret_startup1");
      EXPECT_TRUE(s1 == kEeeOk || s1 == kEeeErrNoInstance)
          << "reboot " << reboot << ": " << s1;
      if (s1 == kEeeOk) {
        EXPECT_EQ(recover.global("ret_startup2"), kEeeOk)
            << "reboot " << reboot;
      } else {
        formatted = false;  // the next round must format first
      }
    }
  }
}

}  // namespace
}  // namespace esv
