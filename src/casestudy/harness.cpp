#include "casestudy/harness.hpp"

#include <chrono>

#include "cpu/codegen.hpp"
#include "cpu/cpu.hpp"
#include "esw/esw_program.hpp"
#include "esw/esw_model.hpp"
#include "esw/interpreter.hpp"
#include "flash/flash_controller.hpp"
#include "minic/sema.hpp"
#include "sctc/esw_monitor.hpp"
#include "sim/clock.hpp"
#include "stimulus/coverage.hpp"
#include "stimulus/random_inputs.hpp"

namespace esv::casestudy {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The EEPROM emulation platform both approaches verify: the compiled
/// software, page-rounded RAM with the flash controller's MMIO window
/// mapped, the fault-injecting inputs, return-code coverage, the globals the
/// testbench reads, and the kernel. Built before the timed region: this is
/// the compile/link step of the design flow.
struct Platform {
  Platform(const OperationSpec& op, const ExperimentConfig& config)
      : program(minic::compile(eeprom_emulation_source())),
        memory(program.memory_bytes()),
        flash_dev(eeprom_flash_config()),
        inputs(config.seed),
        coverage(op.return_codes),
        tc_addr(program.find_global("test_cases")->address),
        ret_addr(program.find_global(op.ret_global)->address) {
    memory.map_device(kFlashMmioBase, flash_dev.window_bytes(), flash_dev);
    stimulus::configure_eeprom_inputs(inputs, config.fault_permille);
    result.operation = op.name;
    result.property_text =
        response_property(op, config.time_bound, config.shape);
  }

  std::uint64_t test_cases() const { return memory.sctc_read_uint(tc_addr); }
  void observe_return_code() {
    coverage.observe(memory.sctc_read_uint(ret_addr));
  }

  /// Stops the verification clock started at `started`, then fills the
  /// result tail from the platform and the checker's one property.
  ExperimentResult finish(Clock::time_point started,
                          const sctc::TemporalChecker& checker) {
    result.verification_seconds = seconds_since(started);
    result.test_cases = test_cases();
    result.coverage_percent = coverage.percent();
    result.coverage_anomalies = coverage.anomaly_count();
    const sctc::PropertyRecord& record = checker.properties().front();
    result.verdict = record.verdict();
    result.temporal_steps = checker.steps();
    result.automaton_states = record.automaton_states;
    return std::move(result);
  }

  minic::Program program;
  mem::AddressSpace memory;
  flash::FlashController flash_dev;
  stimulus::RandomInputProvider inputs;
  stimulus::ReturnCodeCoverage coverage;
  const std::uint32_t tc_addr;
  const std::uint32_t ret_addr;
  ExperimentResult result;
  sim::Simulation sim;
};

}  // namespace

ExperimentResult run_with_microprocessor(const OperationSpec& op,
                                         const ExperimentConfig& config) {
  Platform p(op, config);
  const cpu::CodeImage image = cpu::compile_to_image(p.program);
  sim::Clock clock(p.sim, "clk", sim::Time::ns(10));
  cpu::Cpu core(p.sim, "cpu", image, p.memory, p.inputs, clock);

  const auto started = Clock::now();
  sctc::EswMonitor monitor(
      p.sim, "esw", clock.posedge_event(), p.memory,
      p.program.find_global("flag")->address,
      [&](sctc::TemporalChecker& checker) {
        register_operation_propositions(checker, p.memory, p.program, op);
        const auto synth_start = Clock::now();
        checker.add_property(op.name, p.result.property_text);
        p.result.ar_generation_seconds = seconds_since(synth_start);
      },
      config.mode);

  // Testbench supervision: coverage sampling and stop conditions, clocked
  // like the checker.
  p.sim.create_method(
      "supervisor",
      [&] {
        p.observe_return_code();
        const bool decided = monitor.initialized() &&
                             monitor.checker().all_decided();
        if (p.test_cases() >= config.max_test_cases || decided ||
            core.trapped() || core.halted() ||
            clock.cycles() >= config.max_steps) {
          p.sim.stop();
        }
      },
      {&clock.posedge_event()}, /*run_at_start=*/false);

  p.sim.run();

  p.result.cpu_trapped = core.trapped();
  return p.finish(started, monitor.checker());
}

ExperimentResult run_with_esw_model(const OperationSpec& op,
                                    const ExperimentConfig& config) {
  Platform p(op, config);
  const esw::EswProgram lowered = esw::lower_program(p.program);
  sctc::TemporalChecker checker(p.sim, "sctc", config.mode);
  register_operation_propositions(checker, p.memory, p.program, op);

  const auto started = Clock::now();
  const auto synth_start = Clock::now();
  checker.add_property(op.name, p.result.property_text);
  p.result.ar_generation_seconds = seconds_since(synth_start);

  if (config.esw_in_kernel) {
    // The paper's setup: the derived model is a thread process whose
    // pc event triggers the checker through the kernel.
    esw::EswModel model(p.sim, "esw", p.program, lowered, p.memory, p.inputs);
    checker.bind_trigger(model.pc_event());
    p.sim.create_method(
        "supervisor",
        [&] {
          p.observe_return_code();
          if (checker.all_decided() || model.finished() ||
              p.test_cases() >= config.max_test_cases ||
              model.interpreter().steps_executed() >= config.max_steps) {
            p.sim.stop();
          }
        },
        {&model.pc_event()}, /*run_at_start=*/false);
    p.sim.run();
  } else {
    // Kernel-free lockstep: identical semantics (one statement = one
    // temporal step), maximum speed.
    esw::Interpreter interpreter(p.program, lowered, p.memory, p.inputs);
    std::uint64_t steps = 0;
    while (steps < config.max_steps) {
      if (!interpreter.step()) break;
      ++steps;
      checker.step_all();
      p.observe_return_code();
      if (checker.all_decided()) break;
      if (p.test_cases() >= config.max_test_cases) break;
    }
  }

  return p.finish(started, checker);
}

}  // namespace esv::casestudy
