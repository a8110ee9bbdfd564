// Tests for the EEPROM-emulation case study: the software's functional
// behaviour on the derived model, operation specs, properties, coverage,
// and both experiment harnesses end to end.
#include <gtest/gtest.h>

#include <map>

#include "casestudy/eeprom.hpp"
#include "casestudy/harness.hpp"
#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "minic/sema.hpp"
#include "stimulus/coverage.hpp"
#include "stimulus/random_inputs.hpp"

namespace esv::casestudy {
namespace {

/// Scripted application layer: drives the main loop with a fixed operation
/// sequence instead of random stimulus.
class ScriptedApp : public minic::InputProvider {
 public:
  struct Step {
    int op;             // 0 format, 1 startup1, 2 startup2, 3 read, 4 write,
                        // 5 prepare, 6 refresh
    std::uint32_t id = 0;
    std::uint32_t data = 0;
    bool fault = false;
  };

  explicit ScriptedApp(std::vector<Step> steps) : steps_(std::move(steps)) {}

  std::uint32_t input(int, const std::string& name) override {
    const Step& s = steps_[index_ >= steps_.size() ? steps_.size() - 1 : index_];
    if (name == "op_select") {
      // op_select is the first input of each loop iteration.
      if (started_) ++index_;
      started_ = true;
      const Step& cur =
          steps_[index_ >= steps_.size() ? steps_.size() - 1 : index_];
      return static_cast<std::uint32_t>(cur.op);
    }
    if (name == "inject_fault") return s.fault ? 1 : 0;
    if (name == "rec_id") return s.id;
    if (name == "wdata") return s.data;
    return 0;
  }

 private:
  std::vector<Step> steps_;
  std::size_t index_ = 0;
  bool started_ = false;
};

struct EswRun {
  explicit EswRun(minic::InputProvider& provider)
      : program(minic::compile(eeprom_emulation_source())),
        lowered(esw::lower_program(program)),
        memory(0x4000),
        flash_dev(eeprom_flash_config()),
        interp((memory.map_device(kFlashMmioBase, flash_dev.window_bytes(),
                                  flash_dev),
                program),
               lowered, memory, provider) {}

  /// Runs until `n` test cases completed (with a step budget).
  void run_test_cases(std::uint64_t n, std::uint64_t budget = 3000000) {
    const std::uint32_t tc_addr = program.find_global("test_cases")->address;
    std::uint64_t steps = 0;
    while (steps < budget && memory.sctc_read_uint(tc_addr) < n) {
      ASSERT_TRUE(interp.step()) << "software terminated unexpectedly";
      ++steps;
    }
    ASSERT_LT(steps, budget) << "did not reach " << n << " test cases";
  }

  std::uint32_t g(const std::string& name) const {
    return interp.global(name);
  }

  minic::Program program;
  esw::EswProgram lowered;
  mem::AddressSpace memory;
  flash::FlashController flash_dev;
  esw::Interpreter interp;
};

TEST(EepromSoftwareTest, CompilesAndHasAllOperations) {
  minic::Program program = minic::compile(eeprom_emulation_source());
  for (const OperationSpec& op : eeprom_operations()) {
    EXPECT_NE(program.find_function(op.function), nullptr) << op.function;
    EXPECT_NE(program.find_global(op.ret_global), nullptr) << op.ret_global;
  }
  // A substantial, layered program: DFA + EEE + app layers.
  EXPECT_GE(program.functions.size(), 25u);
}

TEST(EepromSoftwareTest, FormatThenWriteThenRead) {
  ScriptedApp app({{.op = 0},                         // format
                   {.op = 4, .id = 3, .data = 0x55},  // write id3 = 0x55
                   {.op = 3, .id = 3},                // read id3
                   {.op = 3, .id = 5}});              // read id5: not found
  EswRun r(app);
  r.run_test_cases(4);
  EXPECT_EQ(r.g("ret_format"), kEeeOk);
  EXPECT_EQ(r.g("ret_write"), kEeeOk);
  EXPECT_EQ(r.g("ret_read"), kEeeErrNotFound);  // last read was id5
  EXPECT_EQ(r.g("read_value"), 0x55u);          // but id3's value was seen
}

TEST(EepromSoftwareTest, ReadBeforeStartupIsRejected) {
  ScriptedApp app({{.op = 3, .id = 0}});
  EswRun r(app);
  r.run_test_cases(1);
  EXPECT_EQ(r.g("ret_read"), kEeeErrRejected);
}

TEST(EepromSoftwareTest, ParameterErrorOnBadId) {
  ScriptedApp app({{.op = 0}, {.op = 3, .id = 9}});  // MAX_IDS is 8
  EswRun r(app);
  r.run_test_cases(2);
  EXPECT_EQ(r.g("ret_read"), kEeeErrParameter);
}

TEST(EepromSoftwareTest, StartupFindsFormattedPool) {
  // Format, then simulate a reboot by running startup1/startup2 on the same
  // flash (the interpreter keeps the flash device state).
  ScriptedApp app({{.op = 0},
                   {.op = 4, .id = 1, .data = 42},
                   {.op = 1},    // startup1
                   {.op = 2},    // startup2
                   {.op = 3, .id = 1}});
  EswRun r(app);
  r.run_test_cases(5);
  EXPECT_EQ(r.g("ret_startup1"), kEeeOk);
  EXPECT_EQ(r.g("ret_startup2"), kEeeOk);
  EXPECT_EQ(r.g("ret_read"), kEeeOk);
  EXPECT_EQ(r.g("read_value"), 42u);
}

TEST(EepromSoftwareTest, StartupOnBlankFlashReportsNoInstance) {
  ScriptedApp app(std::vector<ScriptedApp::Step>{{.op = 1}});
  EswRun r(app);
  r.run_test_cases(1);
  EXPECT_EQ(r.g("ret_startup1"), kEeeErrNoInstance);
}

TEST(EepromSoftwareTest, PoolFullAfterManyWrites) {
  std::vector<ScriptedApp::Step> steps{{.op = 0}};
  // 30 record slots per page ((64-4)/2); write 31 times.
  for (int i = 0; i < 31; ++i) {
    steps.push_back({.op = 4, .id = static_cast<std::uint32_t>(i % 8),
                     .data = static_cast<std::uint32_t>(i)});
  }
  ScriptedApp app(steps);
  EswRun r(app);
  r.run_test_cases(32);
  EXPECT_EQ(r.g("ret_write"), kEeeErrPoolFull);
}

TEST(EepromSoftwareTest, PrepareRefreshCycleCompactsPool) {
  std::vector<ScriptedApp::Step> steps{{.op = 0}};
  // Overwrite id 2 many times, then prepare+refresh, then read.
  for (int i = 0; i < 10; ++i) {
    steps.push_back({.op = 4, .id = 2, .data = static_cast<std::uint32_t>(i)});
  }
  steps.push_back({.op = 5});            // prepare
  steps.push_back({.op = 6});            // refresh
  steps.push_back({.op = 3, .id = 2});   // read id 2
  ScriptedApp app(steps);
  EswRun r(app);
  r.run_test_cases(14);
  EXPECT_EQ(r.g("ret_prepare"), kEeeOk);
  EXPECT_EQ(r.g("ret_refresh"), kEeeOk);
  EXPECT_EQ(r.g("ret_read"), kEeeOk);
  EXPECT_EQ(r.g("read_value"), 9u);       // newest value survives refresh
  EXPECT_EQ(r.g("eee_cursor"), 1u);       // compacted to one record
  EXPECT_EQ(r.g("eee_active_page"), 1u);  // switched pages
}

TEST(EepromSoftwareTest, RefreshWithoutPrepareRejected) {
  ScriptedApp app({{.op = 0}, {.op = 6}});
  EswRun r(app);
  r.run_test_cases(2);
  EXPECT_EQ(r.g("ret_refresh"), kEeeErrRejected);
}

TEST(EepromSoftwareTest, InjectedFaultYieldsInternalError) {
  ScriptedApp app({{.op = 0},
                   {.op = 4, .id = 1, .data = 7, .fault = true}});
  EswRun r(app);
  r.run_test_cases(2);
  EXPECT_EQ(r.g("ret_write"), kEeeErrInternal);
}

TEST(EepromSoftwareTest, InvalidateHidesIdAndRefreshDropsIt) {
  ScriptedApp app({{.op = 0},                         // format
                   {.op = 4, .id = 2, .data = 77},    // write id2
                   {.op = 7, .id = 2},                // invalidate id2
                   {.op = 3, .id = 2},                // read id2: gone
                   {.op = 5},                         // prepare
                   {.op = 6},                         // refresh (compaction)
                   {.op = 3, .id = 2}});              // still gone
  EswRun r(app);
  r.run_test_cases(7);
  EXPECT_EQ(r.g("ret_invalidate"), kEeeOk);
  EXPECT_EQ(r.g("ret_read"), kEeeErrNotFound);
  EXPECT_EQ(r.g("ret_refresh"), kEeeOk);
  EXPECT_EQ(r.g("eee_cursor"), 0u);  // the tombstone was not carried over
}

TEST(EepromSoftwareTest, InvalidateOfUnknownIdReportsNotFound) {
  ScriptedApp app({{.op = 0}, {.op = 7, .id = 5}});
  EswRun r(app);
  r.run_test_cases(2);
  EXPECT_EQ(r.g("ret_invalidate"), kEeeErrNotFound);
}

// Power-loss robustness: interrupt a write between the value and checksum
// programs, "reboot" (fresh interpreter over the same flash), and check that
// startup detects the torn record and the data stays consistent.
TEST(EepromSoftwareTest, TornWriteIsDetectedAndSkippedAfterReboot) {
  ScriptedApp app({{.op = 0},                        // format (2 programs)
                   {.op = 4, .id = 3, .data = 0xAB}});
  EswRun r(app);
  // Run until the value word of the record is programmed (program #4:
  // 2 marks + id + value) but the checksum word is not: a torn write.
  std::uint64_t guard = 0;
  while (r.flash_dev.program_count() < 4 && guard++ < 1000000) {
    ASSERT_TRUE(r.interp.step());
  }
  ASSERT_EQ(r.flash_dev.program_count(), 4u);

  // Reboot: new software instance over the same (persistent) flash.
  ScriptedApp boot({{.op = 1},               // startup1
                    {.op = 2},               // startup2
                    {.op = 3, .id = 3},      // read id3: torn, not found
                    {.op = 4, .id = 3, .data = 0xCD},  // rewrite
                    {.op = 3, .id = 3}});    // now found
  esw::Interpreter second(r.program, r.lowered, r.memory, boot);
  const std::uint32_t tc_addr =
      r.program.find_global("test_cases")->address;
  guard = 0;
  while (r.memory.sctc_read_uint(tc_addr) < 5 && guard++ < 3000000) {
    ASSERT_TRUE(second.step());
  }
  EXPECT_EQ(second.global("ret_startup1"), kEeeOk);
  EXPECT_EQ(second.global("ret_startup2"), kEeeOk);
  EXPECT_EQ(second.global("eee_torn"), 1u);    // the torn record was seen
  // Startup left the cursor past the torn slot (1); the rewrite appended at
  // slot 1 without colliding with the half-programmed cells, so it is 2 now.
  EXPECT_EQ(second.global("eee_cursor"), 2u);
  EXPECT_EQ(second.global("ret_write"), kEeeOk);
  EXPECT_EQ(second.global("ret_read"), kEeeOk);
  EXPECT_EQ(second.global("read_value"), 0xCDu);
}

TEST(EepromSoftwareTest, PowerLossDuringRefreshIsRecoverable) {
  // Fill some data, prepare, then cut power in the middle of the refresh
  // copy phase. After reboot the old page must still be active (its INVALID
  // mark was never programmed) and every committed value readable.
  ScriptedApp app({{.op = 0},
                   {.op = 4, .id = 1, .data = 11},
                   {.op = 4, .id = 2, .data = 22},
                   {.op = 5},    // prepare
                   {.op = 6}});  // refresh (will be interrupted)
  EswRun r(app);
  const std::uint32_t tc_addr =
      r.program.find_global("test_cases")->address;
  std::uint64_t guard = 0;
  // Run up to the start of the refresh, then a little into the copy phase.
  while (r.memory.sctc_read_uint(tc_addr) < 4 && guard++ < 3000000) {
    ASSERT_TRUE(r.interp.step());
  }
  const std::uint64_t programs_before = r.flash_dev.program_count();
  guard = 0;
  while (r.flash_dev.program_count() < programs_before + 2 &&
         guard++ < 1000000) {
    ASSERT_TRUE(r.interp.step());  // a record landed on the prepared page
  }

  ScriptedApp boot({{.op = 1},
                    {.op = 2},
                    {.op = 3, .id = 1},
                    {.op = 3, .id = 2}});
  esw::Interpreter second(r.program, r.lowered, r.memory, boot);
  guard = 0;
  while (r.memory.sctc_read_uint(tc_addr) < 4 && guard++ < 3000000) {
    ASSERT_TRUE(second.step());
  }
  EXPECT_EQ(second.global("ret_startup1"), kEeeOk);
  EXPECT_EQ(second.global("eee_active_page"), 0u);  // old page still active
  EXPECT_EQ(second.global("read_value"), 22u);      // id2 intact
  EXPECT_EQ(second.global("ret_read"), kEeeOk);
}

// --- specs / properties -------------------------------------------------------

TEST(OperationSpecTest, TableIsCompleteAndConsistent) {
  const auto& ops = eeprom_operations();
  ASSERT_EQ(ops.size(), 7u);
  std::map<int, int> op_codes;
  for (const auto& op : ops) {
    EXPECT_FALSE(op.return_codes.empty()) << op.name;
    ++op_codes[op.op_code];
  }
  EXPECT_EQ(op_codes.size(), 7u);  // distinct dispatch codes
  EXPECT_EQ(operation_by_name("Read").function, "EEE_Read");
  EXPECT_THROW(operation_by_name("Bogus"), std::invalid_argument);
}

TEST(OperationSpecTest, PslAndFltlPropertiesAreTheSameFormula) {
  // SCTC accepts both dialects; the case-study properties must denote the
  // identical hash-consed formula in either syntax.
  temporal::FormulaFactory factory;
  for (const OperationSpec& op : eeprom_operations()) {
    for (const auto& bound :
         {std::optional<std::uint32_t>(1000), std::optional<std::uint32_t>()}) {
      const auto fltl =
          temporal::parse_fltl(response_property(op, bound), factory);
      const auto psl =
          temporal::parse_psl(response_property_psl(op, bound), factory);
      EXPECT_EQ(fltl, psl) << op.name;
    }
  }
}

TEST(OperationSpecTest, ResponsePropertyText) {
  const OperationSpec& read = operation_by_name("Read");
  EXPECT_EQ(response_property(read, 1000),
            "G (Read -> F[1000] (Read_EEE_OK || Read_EEE_ERR_NOT_FOUND || "
            "Read_EEE_ERR_PARAMETER || Read_EEE_ERR_REJECTED))");
  EXPECT_EQ(response_property(read, std::nullopt, PropertyShape::kPaperLiteral)
                .substr(0, 11),
            "F (Read -> ");
}

TEST(CoverageTest, TracksDocumentedCodesOnly) {
  stimulus::ReturnCodeCoverage cov({1, 5, 7});
  EXPECT_EQ(cov.percent(), 0.0);
  cov.observe(0);   // "no return yet" ignored
  cov.observe(1);
  cov.observe(1);   // duplicates don't double count
  EXPECT_NEAR(cov.percent(), 100.0 / 3, 1e-9);
  cov.observe(5);
  cov.observe(7);
  EXPECT_TRUE(cov.complete());
  cov.observe(42);  // undocumented: anomaly
  EXPECT_EQ(cov.anomaly_count(), 1u);
  cov.reset();
  EXPECT_EQ(cov.percent(), 0.0);
}

TEST(RandomInputsTest, ConstraintsAreEnforced) {
  stimulus::RandomInputProvider inputs(7);
  inputs.set_range("a", 3, 5);
  inputs.set_weighted("b", {{10, 1}, {20, 0}});
  inputs.set_chance("c", 0, 10);
  for (int i = 0; i < 50; ++i) {
    const auto a = inputs.input(0, "a");
    EXPECT_GE(a, 3u);
    EXPECT_LE(a, 5u);
    EXPECT_EQ(inputs.input(1, "b"), 10u);  // zero-weight value never drawn
    EXPECT_EQ(inputs.input(2, "c"), 0u);
  }
  EXPECT_EQ(inputs.draw_count(), 150u);
  EXPECT_THROW(inputs.input(3, "unconstrained"), std::runtime_error);
}

// --- harness end-to-end -------------------------------------------------------

class HarnessTest : public ::testing::TestWithParam<sctc::MonitorMode> {};

TEST_P(HarnessTest, Approach2RunsReadProperty) {
  ExperimentConfig config;
  config.max_test_cases = 300;
  config.time_bound = 10000;
  config.mode = GetParam();
  config.seed = 42;
  const ExperimentResult r =
      run_with_esw_model(operation_by_name("Read"), config);
  EXPECT_EQ(r.operation, "Read");
  EXPECT_EQ(r.test_cases, 300u);
  EXPECT_GT(r.coverage_percent, 0.0);
  EXPECT_EQ(r.coverage_anomalies, 0u);
  // The response property must never be violated: that would be a bug in
  // the EEPROM software ("all the tested properties were safe").
  EXPECT_NE(r.verdict, temporal::Verdict::kViolated);
  if (GetParam() == sctc::MonitorMode::kCompiled) {
    EXPECT_GT(r.automaton_states, 10000u);  // grows with the bound
  }
}

TEST_P(HarnessTest, Approach1RunsReadProperty) {
  ExperimentConfig config;
  config.max_test_cases = 30;  // the processor path is slow by design
  config.mode = GetParam();
  config.seed = 42;
  const ExperimentResult r =
      run_with_microprocessor(operation_by_name("Read"), config);
  EXPECT_EQ(r.test_cases, 30u);
  EXPECT_FALSE(r.cpu_trapped);
  EXPECT_NE(r.verdict, temporal::Verdict::kViolated);
  EXPECT_GT(r.temporal_steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, HarnessTest,
                         ::testing::Values(sctc::MonitorMode::kProgression,
                                           sctc::MonitorMode::kCompiled),
                         [](const ::testing::TestParamInfo<sctc::MonitorMode>& info) {
                           return sctc::monitor_mode_name(info.param);
                         });

TEST(HarnessTest2, AllOperationsSafeOnEswModel) {
  for (const OperationSpec& op : eeprom_operations()) {
    ExperimentConfig config;
    config.max_test_cases = 200;
    config.seed = 7;
    const ExperimentResult r = run_with_esw_model(op, config);
    EXPECT_NE(r.verdict, temporal::Verdict::kViolated) << op.name;
    EXPECT_EQ(r.coverage_anomalies, 0u) << op.name;
    EXPECT_EQ(r.test_cases, 200u) << op.name;
  }
}

TEST(HarnessTest2, Approach2IsFasterPerTestCase) {
  ExperimentConfig config;
  config.max_test_cases = 50;
  config.seed = 3;
  const ExperimentResult slow =
      run_with_microprocessor(operation_by_name("Write"), config);
  const ExperimentResult fast =
      run_with_esw_model(operation_by_name("Write"), config);
  ASSERT_EQ(slow.test_cases, fast.test_cases);
  // The paper reports up to 900x; require at least a solid multiple here to
  // keep the test robust on slow machines.
  EXPECT_GT(slow.verification_seconds, 3 * fast.verification_seconds);
}

TEST(HarnessTest2, TightBoundViolatesSlowOperation) {
  // A 50-statement budget is far too small for Format (it erases 8 pages
  // with busy polling), so the bounded response property must be violated —
  // the mechanism behind the paper's coverage-vs-bound observations.
  ExperimentConfig config;
  config.max_test_cases = 300;
  config.time_bound = 50;
  config.seed = 11;
  const ExperimentResult r =
      run_with_esw_model(operation_by_name("Format"), config);
  EXPECT_EQ(r.verdict, temporal::Verdict::kViolated);
}

TEST(HarnessTest2, KernelAndLockstepApproach2Agree) {
  // The in-kernel variant (the paper's literal SystemC setup) and the
  // kernel-free lockstep must produce identical functional results.
  ExperimentConfig lockstep;
  lockstep.max_test_cases = 150;
  lockstep.seed = 21;
  ExperimentConfig kernel = lockstep;
  kernel.esw_in_kernel = true;
  const ExperimentResult a =
      run_with_esw_model(operation_by_name("Read"), lockstep);
  const ExperimentResult b =
      run_with_esw_model(operation_by_name("Read"), kernel);
  EXPECT_EQ(a.test_cases, b.test_cases);
  EXPECT_EQ(a.coverage_percent, b.coverage_percent);
  EXPECT_EQ(a.verdict, b.verdict);
}

TEST(HarnessTest2, DeterministicForSameSeed) {
  ExperimentConfig config;
  config.max_test_cases = 100;
  config.seed = 99;
  const ExperimentResult a =
      run_with_esw_model(operation_by_name("Write"), config);
  const ExperimentResult b =
      run_with_esw_model(operation_by_name("Write"), config);
  EXPECT_EQ(a.test_cases, b.test_cases);
  EXPECT_EQ(a.temporal_steps, b.temporal_steps);
  EXPECT_EQ(a.coverage_percent, b.coverage_percent);
  EXPECT_EQ(a.verdict, b.verdict);
}

}  // namespace
}  // namespace esv::casestudy
