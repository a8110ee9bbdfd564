#include "esw/esw_model.hpp"

namespace esv::esw {

EswModel::EswModel(sim::Simulation& sim, std::string name,
                   const minic::Program& program, const EswProgram& lowered,
                   mem::AddressSpace& memory, minic::InputProvider& inputs,
                   sim::Time statement_time)
    : sim::Module(sim, std::move(name)),
      interpreter_(program, lowered, memory, inputs),
      pc_event_(sim, sub_name("esw_pc_event")),
      statement_time_(statement_time) {
  sim_.spawn(sub_name("esw_sc_thread"), run());
}

sim::Task EswModel::run() {
  while (interpreter_.step()) {
    pc_event_.notify();
    co_await sim_.delay(statement_time_);
  }
  // Final event so monitors observe the state after the last statement.
  pc_event_.notify();
}

}  // namespace esv::esw
