#include "sctc/esw_monitor.hpp"

#include <utility>

namespace esv::sctc {

EswMonitor::EswMonitor(sim::Simulation& sim, std::string name,
                       sim::Event& trigger, const MemoryReadInterface& memory,
                       std::uint32_t flag_address,
                       std::function<void(TemporalChecker&)> setup,
                       MonitorMode mode)
    : sim::Module(sim, std::move(name)),
      checker_(sim, sub_name("sctc"), mode),
      memory_(memory),
      flag_address_(flag_address),
      setup_(std::move(setup)) {
  sim_.spawn(sub_name("esw_monitor"), run(trigger));
}

sim::Task EswMonitor::run(sim::Event& trigger) {
  // Handshake: the checker may only call into the software once it is active
  // and has initialized its globals (paper Fig. 3, lines 3-5).
  while (!initialized_) {
    co_await trigger;
    ++handshake_steps_;
    initialized_ = memory_.sctc_read_uint(flag_address_) != 0;
  }
  // Register the propositions and instantiate the temporal properties
  // (lines 6-7). This happens exactly once.
  setup_(checker_);
  // Monitor the temporal properties forever (lines 8-9).
  for (;;) {
    co_await trigger;
    checker_.step_all();
  }
}

}  // namespace esv::sctc
