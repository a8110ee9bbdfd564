// AST for mini-C, the C subset the embedded software is written in.
//
// The subset covers what the paper's case study needs — state-machine style
// automotive code: 32-bit integer/bool/unsigned scalars and arrays, enums for
// state and return codes, functions, full structured control flow, direct
// memory access `*(addr)` for hardware registers (the accesses the C2SystemC
// translator redirects to the virtual memory model), the `__in(name)`
// intrinsic for external stimulus, and `assert(e)` for the formal baselines.
//
// One front end, three consumers:
//   - cpu/codegen     compiles the AST to microprocessor bytecode (approach 1)
//   - esw/interpreter executes the AST statement-by-statement inside a
//                     SystemC process (approach 2, the derived ESW_SC model)
//   - formal/*        unwinds the AST for BMC / predicate abstraction
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace esv::minic {

struct Function;

enum class UnaryOp { kNot, kNeg, kBitNot };

enum class BinaryOp {
  kMul, kDiv, kMod, kAdd, kSub,
  kShl, kShr,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kBitAnd, kBitXor, kBitOr,
  kLogicalAnd, kLogicalOr,
};

/// How an identifier reference was resolved by sema.
enum class RefKind {
  kUnresolved,
  kGlobal,  // address holds the byte address in the data segment
  kLocal,   // slot holds the frame slot (params first, then locals)
  kConst,   // value holds the enum constant
};

struct Expr {
  enum class Kind {
    kIntLit,   // value
    kBoolLit,  // value (0/1)
    kVarRef,   // name (+ resolution)
    kIndex,    // children[0] = index expression; name = array (+ resolution)
    kCall,     // name, children = arguments (+ callee)
    kUnary,    // unary_op, children[0]
    kBinary,   // binary_op, children[0], children[1]
    kTernary,  // children[0] ? children[1] : children[2]
    kMemRead,  // *(children[0]) — direct memory access
    kInput,    // __in(name) — external stimulus
  };

  Kind kind;
  int line = 0;

  std::int64_t value = 0;
  std::string name;
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAdd;
  std::vector<std::unique_ptr<Expr>> children;

  // Filled in by sema:
  RefKind ref = RefKind::kUnresolved;
  std::uint32_t address = 0;       // kGlobal / kIndex on a global array
  int slot = -1;                   // kLocal
  const Function* callee = nullptr;  // kCall
  int input_id = -1;               // kInput: dense id for the CPU backend
};

struct Stmt {
  enum class Kind {
    kExpr,       // expr
    kAssign,     // target = expr (target: kVarRef, kIndex, or kMemRead)
    kLocalDecl,  // name, optional init expr (+ slot)
    kIf,         // cond, body, else_body
    kWhile,      // cond, body
    kDoWhile,    // body, cond
    kFor,        // init, cond, step, body
    kSwitch,     // cond, cases
    kReturn,     // optional expr
    kBreak,
    kContinue,
    kAssert,     // expr
    kAssume,     // expr (verification assumption)
    kBlock,      // body
  };

  struct Case {
    std::int64_t value = 0;
    bool is_default = false;
    std::vector<std::unique_ptr<Stmt>> body;
    int line = 0;
  };

  Kind kind;
  int line = 0;

  std::unique_ptr<Expr> expr;    // condition / value
  std::unique_ptr<Expr> target;  // kAssign lvalue
  std::vector<std::unique_ptr<Stmt>> body;
  std::vector<std::unique_ptr<Stmt>> else_body;
  std::unique_ptr<Stmt> init;  // kFor
  std::unique_ptr<Stmt> step;  // kFor
  std::vector<Case> cases;     // kSwitch

  std::string name;  // kLocalDecl
  int slot = -1;     // kLocalDecl
};

struct GlobalVar {
  std::string name;
  std::uint32_t words = 1;           // 1 for scalars, N for arrays
  std::uint32_t address = 0;         // byte address (assigned by sema)
  std::vector<std::int32_t> init;    // initial values (zero-filled)
  bool is_array = false;
  int line = 0;
};

struct Function {
  std::string name;
  std::vector<std::string> params;
  std::vector<std::unique_ptr<Stmt>> body;
  bool returns_value = false;  // declared non-void
  int max_slots = 0;           // frame size: params + locals (sema)
  int index = -1;              // dense function id; fname value is index + 1
  int line = 0;
};

struct Program {
  std::vector<GlobalVar> globals;
  std::vector<std::unique_ptr<Function>> functions;
  std::vector<std::string> input_names;  // dense __in() ids
  /// Enum constants in declaration order (name, value).
  std::vector<std::pair<std::string, std::int64_t>> enum_constants;

  /// Address of the implicit `fname` global the toolchain maintains: every
  /// function body begins by storing its function id there (paper step (c):
  /// "for all functions, add the assignment fname=FUNCTION_NAME").
  std::uint32_t fname_address = 0;

  /// First byte address of the data segment (globals).
  static constexpr std::uint32_t kGlobalsBase = 0x1000;

  const Function* find_function(const std::string& name) const {
    for (const auto& f : functions) {
      if (f->name == name) return f.get();
    }
    return nullptr;
  }

  const GlobalVar* find_global(const std::string& name) const {
    for (const auto& g : globals) {
      if (g.name == name) return &g;
    }
    return nullptr;
  }

  /// fname value for a function ("Read" -> id). 0 means "no function yet".
  std::uint32_t fname_id(const std::string& function_name) const {
    const Function* f = find_function(function_name);
    return f == nullptr ? 0 : static_cast<std::uint32_t>(f->index + 1);
  }

  /// Total data-segment size in bytes (for memory sizing).
  std::uint32_t data_segment_end() const {
    std::uint32_t end = kGlobalsBase;
    for (const auto& g : globals) {
      end = std::max(end, g.address + g.words * 4);
    }
    return end;
  }

  /// Address-space size of a run: the data segment rounded up to a whole
  /// 4 KiB page. Sema keeps the rounded end within 32 bits.
  std::uint32_t memory_bytes() const {
    return (data_segment_end() + 0xFFFu) & ~0xFFFu;
  }
};

}  // namespace esv::minic
