// EswMonitor: the paper's ESW_monitor module (Fig. 2 / Fig. 3).
//
// Wraps the SCTC in a SystemC design containing a microprocessor model and
// implements the handshake protocol between the embedded software and the
// checker:
//
//   1  define clock as trigger
//   2  while !initialized
//   3    initialized = read_from_memory(flag_address)
//   5  register the propositions
//   6  instantiate the temporal properties
//   7  forever
//   8    monitor the temporal properties
//
// The software signals readiness by setting a global `flag` variable; only
// then are propositions registered and monitors instantiated, because the
// proposition addresses are not meaningful before the software initialized
// its globals.
#pragma once

#include <functional>
#include <string>

#include "sctc/checker.hpp"
#include "sim/module.hpp"

namespace esv::sctc {

class EswMonitor : public sim::Module {
 public:
  /// `setup` is invoked once, after the handshake, to register the ESW
  /// propositions and instantiate the temporal properties on the checker.
  EswMonitor(sim::Simulation& sim, std::string name, sim::Event& trigger,
             const MemoryReadInterface& memory, std::uint32_t flag_address,
             std::function<void(TemporalChecker&)> setup,
             MonitorMode mode = MonitorMode::kProgression);

  TemporalChecker& checker() { return checker_; }
  const TemporalChecker& checker() const { return checker_; }

  /// True once the software's flag variable was observed non-zero.
  bool initialized() const { return initialized_; }
  /// Trigger count spent waiting for the handshake.
  std::uint64_t handshake_steps() const { return handshake_steps_; }

 private:
  sim::Task run(sim::Event& trigger);

  TemporalChecker checker_;
  const MemoryReadInterface& memory_;
  std::uint32_t flag_address_;
  std::function<void(TemporalChecker&)> setup_;
  bool initialized_ = false;
  std::uint64_t handshake_steps_ = 0;
};

}  // namespace esv::sctc
