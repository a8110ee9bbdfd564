#include "hybrid/coverage_closure.hpp"

#include <algorithm>
#include <chrono>

#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "flash/flash_controller.hpp"
#include "formal/bmc/spec.hpp"
#include "minic/sema.hpp"
#include "stimulus/coverage.hpp"
#include "stimulus/random_inputs.hpp"

namespace esv::hybrid {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ClosureResult close_coverage(const casestudy::OperationSpec& op,
                             const ClosureConfig& config) {
  using casestudy::eeprom_emulation_source;

  ClosureResult result;
  result.operation = op.name;
  const auto started = Clock::now();

  // Live simulation platform (approach 2).
  minic::Program program = minic::compile(eeprom_emulation_source());
  esw::EswProgram lowered = esw::lower_program(program);
  mem::AddressSpace memory(program.memory_bytes());
  flash::FlashController flash_dev(casestudy::eeprom_flash_config());
  memory.map_device(casestudy::kFlashMmioBase, flash_dev.window_bytes(),
                    flash_dev);

  stimulus::RandomInputProvider random(config.seed);
  random.set_range("op_select", 0, 6);
  random.set_range("rec_id", 0,
                   static_cast<std::int64_t>(config.max_random_rec_id));
  random.set_range("wdata", 0, 0xFFFF);
  random.set_chance("inject_fault", config.fault_permille, 1000);
  stimulus::ScriptedOverrideProvider provider(random);

  esw::Interpreter interp(program, lowered, memory, provider);
  stimulus::ReturnCodeCoverage coverage(op.return_codes);

  const std::uint32_t tc_addr = program.find_global("test_cases")->address;
  const std::uint32_t ret_addr =
      program.find_global(op.ret_global)->address;

  // Runs the live simulation until `n` more test cases completed, sampling
  // coverage every statement.
  const auto simulate_cases = [&](std::uint64_t n) {
    const std::uint64_t target = memory.sctc_read_uint(tc_addr) + n;
    std::uint64_t budget = n * config.max_steps_per_case;
    while (budget-- > 0 && memory.sctc_read_uint(tc_addr) < target) {
      if (!interp.step()) break;
      coverage.observe(memory.sctc_read_uint(ret_addr));
    }
  };

  const auto missing_codes = [&] {
    std::vector<std::uint32_t> missing;
    for (std::uint32_t code : op.return_codes) {
      if (coverage.observed().count(code) == 0) missing.push_back(code);
    }
    return missing;
  };

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    result.rounds = round + 1;

    // 1. Random phase.
    simulate_cases(config.random_test_cases);
    result.random_test_cases += config.random_test_cases;
    if (round == 0) result.random_coverage_percent = coverage.percent();
    if (coverage.complete()) break;

    // 2+3. Formal phase + directed replay, one query per open code.
    for (std::uint32_t code : missing_codes()) {
      // Snapshot every scalar global of the *live* state.
      formal::bmc::BmcOptions bmc = config.bmc;
      for (const auto& g : program.globals) {
        if (g.is_array) continue;
        bmc.initial_globals[g.address] = memory.sctc_read_uint(g.address);
      }
      // Pin the dispatched operation: the query only concerns this op, and
      // pinning folds every other dispatch branch out of the formula.
      bmc.input_ranges["op_select"] = {op.op_code, op.op_code};
      bmc.input_ranges["rec_id"] = {0, 15};  // may exceed the random range
      bmc.input_ranges["wdata"] = {0, 0xFFFF};
      bmc.input_ranges["inject_fault"] = {0, 1};

      const std::string query = formal::single_iteration(
          formal::instrument_reachability(eeprom_emulation_source(),
                                          op.op_code, op.ret_global, code));
      minic::Program query_program = minic::compile(query);
      const formal::bmc::BmcResult r =
          formal::bmc::check(query_program, bmc);

      if (r.status == formal::bmc::BmcResult::Status::kCounterexample) {
        DirectedTest test;
        test.target_code = code;
        test.inputs = r.inputs;
        // Replay: the counterexample's input values, in draw order.
        std::vector<std::uint32_t> script;
        for (const auto& [name, value] : r.inputs) script.push_back(value);
        provider.play(script);
        simulate_cases(1);
        test.hit = coverage.observed().count(code) != 0;
        if (!test.hit) {
          // The counterexample may have leaned on a nondeterministic
          // hardware read the real flash does not reproduce. Mutation
          // retry: force fault injection on and replay once more (a
          // standard coverage-driven test-generation heuristic).
          std::vector<std::uint32_t> mutated = script;
          for (std::size_t i = 0;
               i < r.inputs.size() && i < mutated.size(); ++i) {
            if (r.inputs[i].first == "inject_fault") mutated[i] = 1;
          }
          provider.play(std::move(mutated));
          simulate_cases(1);
          test.hit = coverage.observed().count(code) != 0;
        }
        result.directed_tests.push_back(std::move(test));
      } else if (r.status == formal::bmc::BmcResult::Status::kSafe) {
        // A real certificate: from this state, one iteration can never
        // produce the code, under any inputs.
        if (std::find(result.proven_unreachable.begin(),
                      result.proven_unreachable.end(),
                      code) == result.proven_unreachable.end()) {
          result.proven_unreachable.push_back(code);
        }
      }
      // kBoundedSafe / budget statuses: undecided this round; keep trying.
    }
    if (coverage.complete()) break;
  }

  result.final_coverage_percent = coverage.percent();
  result.unresolved = missing_codes();
  // Proven-unreachable codes are resolved, not open.
  for (std::uint32_t code : result.proven_unreachable) {
    result.unresolved.erase(std::remove(result.unresolved.begin(),
                                        result.unresolved.end(), code),
                            result.unresolved.end());
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  return result;
}

}  // namespace esv::hybrid
