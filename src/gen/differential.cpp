#include "gen/differential.hpp"

#include <algorithm>
#include <sstream>

#include "cpu/codegen.hpp"
#include "cpu/cpu.hpp"
#include "esw/esw_model.hpp"
#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "mem/address_space.hpp"
#include "minic/io.hpp"
#include "minic/sema.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace esv::gen {

namespace {

/// The cells of the matrix, reference first (approach 2, progression): cell
/// comparisons and expected-verdict checks are reported against it.
constexpr sctc::MonitorMode kModes[] = {
    sctc::MonitorMode::kProgression,
    sctc::MonitorMode::kCompiled,
    sctc::MonitorMode::kBoth,
};

bool mode_has_compiled(sctc::MonitorMode mode) {
  return mode == sctc::MonitorMode::kCompiled ||
         mode == sctc::MonitorMode::kBoth;
}

/// Which program properties participate in a cell: approach 1 samples per
/// clock cycle, so only stutter-invariant (clock-free) properties run there.
std::vector<std::size_t> cell_properties(const GeneratedProgram& program,
                                         int approach) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < program.properties.size(); ++i) {
    if (approach == 1 && !program.properties[i].clock_free) continue;
    indices.push_back(i);
  }
  return indices;
}

CellRun run_cell(const GeneratedProgram& program, int approach,
                 sctc::MonitorMode mode, const DifferentialOptions& options) {
  CellRun cell;
  cell.approach = approach;
  cell.mode = mode;
  cell.verdicts.assign(program.properties.size(), std::nullopt);

  const std::vector<std::size_t> indices = cell_properties(program, approach);
  if (indices.empty()) return cell;  // ran stays false: nothing to compare
  cell.ran = true;

  try {
    minic::Program compiled = minic::compile(program.source);
    sim::Simulation sim;
    mem::AddressSpace memory(0x10000);
    minic::ZeroInputProvider inputs;

    sctc::TemporalChecker checker(sim, "sctc", mode);
    obs::TraceWriter trace;
    checker.set_trace(&trace);

    for (const auto& prop : program.propositions) {
      const minic::GlobalVar* global = compiled.find_global(prop.global);
      if (global == nullptr) {
        throw GenError("proposition '" + prop.name +
                       "' names unknown global '" + prop.global + "'");
      }
      checker.register_proposition(
          prop.name, std::make_unique<sctc::MemoryWordProposition>(
                         memory, global->address, prop.op, prop.value));
    }
    for (const std::size_t i : indices) {
      checker.add_property(program.properties[i].name,
                           program.properties[i].text);
    }
    if (options.corrupt_property >= 0 && mode_has_compiled(mode)) {
      checker.corrupt_compiled_for_test(
          static_cast<std::size_t>(options.corrupt_property) % indices.size(),
          options.corrupt_state);
    }

    if (approach == 2) {
      esw::EswProgram lowered = esw::lower_program(compiled);
      esw::EswModel model(sim, "esw", compiled, lowered, memory, inputs);
      checker.bind_trigger(model.pc_event());
      sim.create_method(
          "supervisor",
          [&] {
            if (model.finished() ||
                model.interpreter().steps_executed() >=
                    options.max_statements) {
              sim.stop();
            }
          },
          {&model.pc_event()}, /*run_at_start=*/false);
      // The microprocessor's clock samples the pre-main state (the first
      // posedge fires before any store retires); the pc event only fires
      // after the first statement. One manual step aligns the sequences.
      checker.step_all();
      sim.run();
      if (!model.finished()) {
        throw GenError("approach-2 run did not finish within " +
                       std::to_string(options.max_statements) + " statements");
      }
    } else {
      cpu::CodeImage image = cpu::compile_to_image(compiled);
      sim::Clock clock(sim, "clk", sim::Time::ns(10));
      cpu::Cpu core(sim, "cpu", image, memory, inputs, clock);
      core.set_stop_on_halt(true);
      checker.bind_trigger(clock.posedge_event());
      sim.run(sim::Time::sec(1));
      if (!core.halted()) {
        throw GenError("approach-1 run did not halt within the time budget");
      }
      if (core.trapped()) {
        throw GenError("approach-1 run trapped: " + core.trap_message());
      }
    }

    for (std::size_t k = 0; k < indices.size(); ++k) {
      cell.verdicts[indices[k]] = checker.properties()[k].verdict();
    }
    cell.transitions = transition_events(trace.text());
    cell.divergence_count = checker.divergence_count();
    cell.divergences = checker.divergences();
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

}  // namespace

std::string CellRun::label() const {
  return "approach" + std::to_string(approach) + "/" +
         sctc::monitor_mode_name(mode);
}

std::vector<std::string> transition_events(const std::string& jsonl) {
  std::vector<std::string> events;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"monitor_transition\"") == std::string::npos) {
      continue;
    }
    const std::size_t property = line.find("\"property\"");
    if (property == std::string::npos) continue;
    events.push_back(line.substr(property));
  }
  return events;
}

std::vector<std::string> filter_transitions(
    const std::vector<std::string>& events,
    const std::vector<std::string>& names) {
  std::vector<std::string> kept;
  for (const std::string& event : events) {
    const bool match = std::any_of(
        names.begin(), names.end(), [&](const std::string& name) {
          return event.find("\"property\":\"" + name + "\"") !=
                 std::string::npos;
        });
    if (match) kept.push_back(event);
  }
  return kept;
}

DifferentialResult run_differential(const GeneratedProgram& program,
                                    const DifferentialOptions& options) {
  DifferentialResult result;
  auto& issues = result.disagreements;

  for (const int approach : {2, 1}) {
    if (approach == 1 && !options.run_approach1) continue;
    for (const sctc::MonitorMode mode : kModes) {
      result.cells.push_back(run_cell(program, approach, mode, options));
    }
  }

  const CellRun& reference = result.cells.front();
  if (!reference.error.empty() || !reference.ran) {
    issues.push_back("cell " + reference.label() + ": " +
                     (reference.error.empty() ? "did not run"
                                              : reference.error));
    return result;  // without the reference, comparisons are meaningless
  }

  for (const CellRun& cell : result.cells) {
    if (!cell.ran) continue;
    if (!cell.error.empty()) {
      issues.push_back("cell " + cell.label() + " errored: " + cell.error);
      continue;
    }
    // Every cell must reproduce the generation-time expected verdicts for
    // the properties it runs.
    for (std::size_t i = 0; i < program.properties.size(); ++i) {
      if (!cell.verdicts[i].has_value()) continue;
      const temporal::Verdict expected = program.properties[i].expected;
      if (*cell.verdicts[i] != expected) {
        issues.push_back(
            "cell " + cell.label() + ": property '" +
            program.properties[i].name + "' is " +
            temporal::to_string(*cell.verdicts[i]) + ", expected " +
            temporal::to_string(expected));
      }
    }
    if (cell.divergence_count != 0) {
      issues.push_back("cell " + cell.label() + ": " +
                       std::to_string(cell.divergence_count) +
                       " compiled-vs-interpreted divergence(s): " +
                       cell.divergences.front());
    }
    if (&cell == &reference) continue;
    // Transition-trace comparison. Same approach: streams must be identical.
    // Across approaches: compare the clock-free subset only.
    if (cell.approach == reference.approach) {
      if (cell.transitions != reference.transitions) {
        issues.push_back("cell " + cell.label() +
                         ": transition trace differs from " +
                         reference.label());
      }
    } else {
      std::vector<std::string> clock_free_names;
      for (const auto& property : program.properties) {
        if (property.clock_free) clock_free_names.push_back(property.name);
      }
      const auto expected_stream =
          filter_transitions(reference.transitions, clock_free_names);
      if (cell.transitions != expected_stream) {
        issues.push_back("cell " + cell.label() +
                         ": clock-free transition trace differs from " +
                         reference.label());
      }
    }
  }
  return result;
}

}  // namespace esv::gen
