// Executor for the derived ESW model.
//
// Runs the lowered statement program one operation per step(). Globals live
// at their sema-assigned addresses inside an AddressSpace (the virtual
// memory model), so the SCTC observes variables exactly as it does on the
// microprocessor — by address. Locals and ANF temporaries live in frames.
//
// One step() == one executed statement == one program-counter event in the
// derived model. Structural jumps are free.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "esw/esw_program.hpp"
#include "mem/address_space.hpp"
#include "minic/io.hpp"

namespace esv::esw {

/// A failed `assert(e)` in the software under test.
class AssertionFailure : public std::runtime_error {
 public:
  AssertionFailure(int line, std::uint64_t step)
      : std::runtime_error("assertion failed at line " + std::to_string(line) +
                           " (step " + std::to_string(step) + ")"),
        line_(line),
        step_(step) {}
  int line() const { return line_; }
  std::uint64_t step() const { return step_; }

 private:
  int line_;
  std::uint64_t step_;
};

/// Arithmetic faults (division by zero) in the software under test.
class RuntimeFault : public std::runtime_error {
 public:
  RuntimeFault(const std::string& what, int line)
      : std::runtime_error("line " + std::to_string(line) + ": " + what) {}
};

class Interpreter {
 public:
  /// `program` and `lowered` must outlive the interpreter. Globals are
  /// initialized into `memory` on construction (and again on reset()).
  Interpreter(const minic::Program& program, const EswProgram& lowered,
              mem::AddressSpace& memory,
              minic::InputProvider& inputs);

  /// Executes one statement of the software. Returns false once main has
  /// returned (further calls keep returning false). Mapped devices are
  /// ticked once per executed statement.
  bool step();

  /// Runs at most `max_steps` more statements; returns the number executed.
  std::uint64_t run(std::uint64_t max_steps);

  bool finished() const { return frames_.empty(); }
  std::uint64_t steps_executed() const { return steps_; }

  /// Restarts main from scratch; re-initializes globals.
  void reset();

  /// Value of a global variable (reads the virtual memory model).
  std::uint32_t global(const std::string& name) const;

  mem::AddressSpace& memory() { return memory_; }

 private:
  struct Frame {
    const LoweredFunction* fn;
    std::size_t pc = 0;
    std::vector<std::uint32_t> slots;
    int result_slot = -1;  // slot in the CALLER frame; -1 discards
  };

  void push_frame(const minic::Function& fn,
                  const std::vector<std::uint32_t>& args, int result_slot);
  std::uint32_t eval(const minic::Expr& e, Frame& frame);
  void store(const minic::Expr& target, std::uint32_t value, Frame& frame);
  void init_globals();
  std::uint32_t global_address(const std::string& name) const;

  const minic::Program& program_;
  const EswProgram& lowered_;
  mem::AddressSpace& memory_;
  minic::InputProvider& inputs_;
  std::vector<Frame> frames_;
  std::uint64_t steps_ = 0;
};

}  // namespace esv::esw
