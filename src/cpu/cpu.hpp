// Microprocessor model (approach 1 execution platform).
//
// Executes a CodeImage against the shared AddressSpace, paced by a Clock:
// one instruction per posedge plus wait states for data-memory accesses.
// Memory-mapped devices tick once per clock cycle. The SCTC observes the
// software through the AddressSpace (variables at their linked addresses),
// using the same clock as its trigger — real operating conditions, as the
// paper puts it.
//
// Software faults (failed assert, memory fault, division by zero) put the
// core into a trapped state rather than throwing across the simulation
// kernel: real cores don't throw C++ exceptions, and the testbench usually
// wants to inspect the trap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cpu/isa.hpp"
#include "mem/address_space.hpp"
#include "minic/io.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"

namespace esv::cpu {

// Multicycle timing, matching small automotive MCU cores (NEC 78K0-class
// parts take 4+ clocks per instruction): every instruction pays fetch and
// decode cycles before the execute cycle, and data-memory instructions add
// bus wait states.
struct CpuTiming {
  std::uint32_t fetch_cycles = 2;
  std::uint32_t decode_cycles = 1;
  /// Additional cycles charged for each data-memory instruction.
  std::uint32_t memory_wait_states = 2;
};

class Cpu : public sim::Module {
 public:
  /// Loads the image: writes the data segment (global initializers) into
  /// memory and starts fetching at main once the clock runs.
  Cpu(sim::Simulation& sim, std::string name, const CodeImage& image,
      mem::AddressSpace& memory, minic::InputProvider& inputs,
      sim::Clock& clock, CpuTiming timing = {});

  bool halted() const { return halted_; }
  bool trapped() const { return trapped_; }

  /// When enabled, the core requests sc_stop() as it halts, so a run whose
  /// only master is this CPU ends instead of the clock ticking forever.
  void set_stop_on_halt(bool stop) { stop_on_halt_ = stop; }
  const std::string& trap_message() const { return trap_message_; }

  std::uint64_t instructions_retired() const { return instructions_; }
  std::uint64_t cycles_consumed() const { return cycles_; }

  /// Resets architectural state and re-initializes the data segment.
  void reset();

  /// Executes exactly one instruction (kernel-free use; returns false once
  /// halted). The clocked process uses this internally.
  bool step_instruction();

  mem::AddressSpace& memory() { return memory_; }

 private:
  struct Frame {
    std::uint32_t return_pc;
    std::vector<std::uint32_t> slots;
    bool returns_value;
    std::uint32_t fn_index;  // function this frame belongs to (fname restore)
  };

  sim::Task run(sim::Clock& clock);
  void load_data_segment();
  void trap(const std::string& message);
  std::uint32_t pop();
  void push(std::uint32_t v) { stack_.push_back(v); }

  const CodeImage& image_;
  mem::AddressSpace& memory_;
  minic::InputProvider& inputs_;
  CpuTiming timing_;

  std::uint32_t pc_ = 0;
  std::vector<std::uint32_t> stack_;
  std::vector<Frame> frames_;
  bool halted_ = false;
  bool trapped_ = false;
  bool stop_on_halt_ = false;
  std::string trap_message_;
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint32_t pending_wait_states_ = 0;
};

}  // namespace esv::cpu
