// EswModel: the derived SystemC model (the paper's ESW_SC class).
//
// Wraps the interpreter in a thread process. After every executed statement
// the model notifies `esw_pc_event` — the derived model's timing reference —
// and suspends for one statement-time quantum, so an SCTC bound to the event
// advances one temporal step per statement (paper Fig. 5, lines 13-15).
#pragma once

#include <string>

#include "esw/interpreter.hpp"
#include "sim/module.hpp"

namespace esv::esw {

class EswModel : public sim::Module {
 public:
  /// Each statement consumes `statement_time` of simulated time (default
  /// 1 ns; any non-zero quantum works since the pc event, not the clock, is
  /// the temporal reference).
  EswModel(sim::Simulation& sim, std::string name,
           const minic::Program& program, const EswProgram& lowered,
           mem::AddressSpace& memory, minic::InputProvider& inputs,
           sim::Time statement_time = sim::Time::ns(1));

  /// The program-counter event: fires after every executed statement.
  sim::Event& pc_event() { return pc_event_; }

  Interpreter& interpreter() { return interpreter_; }
  const Interpreter& interpreter() const { return interpreter_; }
  bool finished() const { return interpreter_.finished(); }

 private:
  sim::Task run();

  Interpreter interpreter_;
  sim::Event pc_event_;
  sim::Time statement_time_;
};

}  // namespace esv::esw
