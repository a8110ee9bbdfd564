// C2SystemC derivation: statement-level lowering of a mini-C program.
//
// This is the translator of the paper's Fig. 5. The derived model is "as
// precise as the original C program": every C statement becomes exactly one
// executable operation, and the program-counter event fires after each one
// (the derived model's timing reference — one statement == one temporal
// step). Control flow is made explicit with (step-free) jumps, condition
// evaluations are their own operations, and every function body is prefixed
// with the `fname = FUNCTION_NAME` instrumentation op (Fig. 5 lines 11-12).
//
// Calls nested in expressions are extracted into A-normal form (tmp = f(...))
// so that the callee's statements can be stepped individually, which the
// per-statement event requires. Calls in the right-hand side of && / || or
// inside ?: branches would change evaluation semantics under this extraction
// and are rejected (LoweringError); write them as explicit if-statements.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "minic/ast.hpp"

namespace esv::esw {

class LoweringError : public std::runtime_error {
 public:
  LoweringError(const std::string& message, int line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message) {}
};

struct EswOp {
  enum class Kind {
    kEval,       // evaluate expr; if target != null, store into it
    kCondJump,   // pc = expr ? jump_true : jump_false
    kJump,       // structural jump (consumes no temporal step)
    kSwitchJump, // evaluate expr, jump to matching case / default
    kCall,       // call callee(args), result into result_slot (or discarded)
    kReturn,     // return expr (optional)
    kAssert,     // check expr; records / raises assertion failure
    kAssume,     // verification assumption: ends the run if violated
    kSetFname,   // function-entry instrumentation: fname = function id
    kHalt,       // end of main
  };

  Kind kind;
  int line = 0;

  const minic::Expr* expr = nullptr;    // condition / value / selector
  const minic::Expr* target = nullptr;  // kEval lvalue (VarRef/Index/MemRead)
  std::size_t jump_true = 0;
  std::size_t jump_false = 0;
  struct SwitchTarget {
    std::int64_t value;
    std::size_t target;
  };
  std::vector<SwitchTarget> switch_targets;  // kSwitchJump
  std::size_t switch_default = 0;

  const minic::Function* callee = nullptr;      // kCall
  std::vector<const minic::Expr*> args;         // kCall
  int result_slot = -1;                         // kCall: -1 discards
};

struct LoweredFunction {
  const minic::Function* source = nullptr;
  std::vector<EswOp> ops;
  /// Frame size: params + locals + ANF temporaries.
  int frame_slots = 0;
};

/// The whole derived model ("ESW_SC class"): one lowered body per function.
struct EswProgram {
  const minic::Program* source = nullptr;
  std::vector<LoweredFunction> functions;  // indexed by Function::index
  /// Expressions synthesized during lowering (ANF temps); keeps them alive.
  std::vector<std::unique_ptr<minic::Expr>> owned_exprs;

  const LoweredFunction& function_of(const minic::Function& fn) const {
    return functions[static_cast<std::size_t>(fn.index)];
  }
};

/// Runs the C2SystemC translation on a resolved program.
EswProgram lower_program(const minic::Program& program);

}  // namespace esv::esw
