// Quickstart: check a temporal property on embedded C software in ~40 lines.
//
// Flow (the paper's 2nd approach):
//   1. write the software in mini-C,
//   2. derive the SystemC model (C2SystemC lowering),
//   3. register propositions over the software's variables,
//   4. add an FLTL property and bind the checker to the pc event,
//   5. simulate.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "esw/esw_model.hpp"
#include "minic/sema.hpp"
#include "sctc/checker.hpp"
#include "temporal/automaton.hpp"
#include "temporal/parser.hpp"

int main() {
  using namespace esv;

  // 1. The embedded software: a counter that must reach its limit.
  const char* source = R"(
    int counter;
    bool done;
    void main(void) {
      counter = 0;
      while (counter < 10) {
        counter = counter + 1;
      }
      done = true;
    }
  )";
  minic::Program program = minic::compile(source);

  // 2. Derive the executable model (every statement = one temporal step).
  esw::EswProgram lowered = esw::lower_program(program);
  mem::AddressSpace memory(0x2000);  // the virtual memory model
  minic::ZeroInputProvider inputs;

  sim::Simulation sim;
  esw::EswModel model(sim, "esw", program, lowered, memory, inputs);

  // 3. Propositions: named predicates over the software state (SCTC reads
  //    the variables from the virtual memory model by address).
  sctc::TemporalChecker checker(sim, "sctc");
  const std::uint32_t counter_addr = program.find_global("counter")->address;
  const std::uint32_t done_addr = program.find_global("done")->address;
  checker.register_proposition("done", [&] {
    return memory.sctc_read_uint(done_addr) != 0;
  });
  checker.register_proposition("counter_in_range", [&] {
    return memory.sctc_read_uint(counter_addr) <= 10;
  });

  // 4. Properties: FLTL (or PSL via Dialect::kPsl). F[64] = "within 64
  //    statements".
  checker.add_property("terminates", "F[64] done");
  checker.add_property("bounded", "G counter_in_range");
  checker.bind_trigger(model.pc_event());

  // 5. Simulate and report.
  sim.run();
  std::cout << checker.report();

  // Bonus: the AR-automaton (IL representation) behind a property.
  temporal::FormulaFactory factory;
  temporal::FormulaRef f = temporal::parse_fltl("F[3] done", factory);
  std::cout << "\nIL dump of F[3] done:\n"
            << temporal::synthesize(factory, f).to_il(factory, "demo");
  return checker.any_violated() ? 1 : 0;
}
