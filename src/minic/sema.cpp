#include "minic/sema.hpp"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "minic/parser.hpp"

namespace esv::minic {

namespace {

class Sema {
 public:
  explicit Sema(Program& program) : program_(program) {}

  void run() {
    layout_globals();
    collect_functions();
    for (auto& fn : program_.functions) analyze_function(*fn);
    const Function* main_fn = program_.find_function("main");
    if (main_fn == nullptr) {
      throw SemaError("program has no main() function", 1);
    }
    if (!main_fn->params.empty()) {
      throw SemaError("main() must not take parameters", main_fn->line);
    }
  }

 private:
  void layout_globals() {
    // The implicit fname global sits at the very start of the data segment so
    // monitors can always find it.
    if (program_.find_global("fname") == nullptr) {
      GlobalVar fname;
      fname.name = "fname";
      fname.words = 1;
      program_.globals.insert(program_.globals.begin(), std::move(fname));
    }
    // Laid out in 64 bits, so a segment past the 32-bit address space is
    // refused instead of wrapping onto the globals before it. The space is
    // whole 4 KiB pages (Program::memory_bytes), so the last page boundary
    // below 2^32 is the limit.
    std::uint64_t address = Program::kGlobalsBase;
    std::unordered_set<std::string> seen;
    for (auto& g : program_.globals) {
      if (!seen.insert(g.name).second) {
        throw SemaError("duplicate global '" + g.name + "'", g.line);
      }
      for (const auto& [name, value] : program_.enum_constants) {
        (void)value;
        if (name == g.name) {
          throw SemaError("'" + g.name + "' is already an enum constant",
                          g.line);
        }
      }
      g.address = static_cast<std::uint32_t>(address);
      address += std::uint64_t{g.words} * 4;
      if (address > 0x100000000ull - 0x1000) {
        throw SemaError(
            "global '" + g.name + "' does not fit the 32-bit address space",
            g.line);
      }
      globals_[g.name] = &g;
    }
    program_.fname_address = program_.find_global("fname")->address;
    for (const auto& [name, value] : program_.enum_constants) {
      constants_[name] = value;
    }
  }

  void collect_functions() {
    int index = 0;
    for (auto& fn : program_.functions) {
      if (functions_.count(fn->name) != 0) {
        throw SemaError("duplicate function '" + fn->name + "'", fn->line);
      }
      if (globals_.count(fn->name) != 0 || constants_.count(fn->name) != 0) {
        throw SemaError("'" + fn->name + "' already names a value", fn->line);
      }
      fn->index = index++;
      functions_[fn->name] = fn.get();
    }
  }

  // --- per-function analysis -------------------------------------------------

  struct Scope {
    std::unordered_map<std::string, int> slots;
  };

  void analyze_function(Function& fn) {
    current_ = &fn;
    next_slot_ = 0;
    max_slots_ = 0;
    loop_depth_ = 0;
    switch_depth_ = 0;
    scopes_.clear();
    push_scope();
    for (const std::string& param : fn.params) {
      declare_local(param, fn.line);
    }
    for (auto& stmt : fn.body) analyze_stmt(*stmt);
    pop_scope();
    fn.max_slots = max_slots_;
    current_ = nullptr;
  }

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() {
    next_slot_ -= static_cast<int>(scopes_.back().slots.size());
    scopes_.pop_back();
  }

  int declare_local(const std::string& name, int line) {
    if (scopes_.back().slots.count(name) != 0) {
      throw SemaError("duplicate local '" + name + "'", line);
    }
    if (constants_.count(name) != 0) {
      throw SemaError("'" + name + "' shadows an enum constant", line);
    }
    const int slot = next_slot_++;
    max_slots_ = std::max(max_slots_, next_slot_);
    scopes_.back().slots[name] = slot;
    return slot;
  }

  /// Finds a local slot, innermost scope first; -1 if not a local.
  int find_local(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto hit = it->slots.find(name);
      if (hit != it->slots.end()) return hit->second;
    }
    return -1;
  }

  void analyze_stmt(Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kExpr:
        analyze_expr(*s.expr, /*value_needed=*/false);
        break;
      case Stmt::Kind::kAssign:
        analyze_lvalue(*s.target);
        analyze_expr(*s.expr, true);
        break;
      case Stmt::Kind::kLocalDecl:
        if (s.expr) analyze_expr(*s.expr, true);
        s.slot = declare_local(s.name, s.line);
        break;
      case Stmt::Kind::kIf:
        analyze_expr(*s.expr, true);
        analyze_body(s.body);
        analyze_body(s.else_body);
        break;
      case Stmt::Kind::kWhile:
      case Stmt::Kind::kDoWhile:
        analyze_expr(*s.expr, true);
        ++loop_depth_;
        analyze_body(s.body);
        --loop_depth_;
        break;
      case Stmt::Kind::kFor:
        push_scope();  // for-init declarations live in the header scope
        if (s.init) analyze_stmt(*s.init);
        if (s.expr) analyze_expr(*s.expr, true);
        if (s.step) analyze_stmt(*s.step);
        ++loop_depth_;
        analyze_body(s.body);
        --loop_depth_;
        pop_scope();
        break;
      case Stmt::Kind::kSwitch: {
        analyze_expr(*s.expr, true);
        ++switch_depth_;
        std::unordered_set<std::int64_t> labels;
        for (auto& c : s.cases) {
          if (!c.is_default && !labels.insert(c.value).second) {
            throw SemaError("duplicate case label " + std::to_string(c.value),
                            c.line);
          }
          analyze_body(c.body);
        }
        --switch_depth_;
        break;
      }
      case Stmt::Kind::kReturn:
        if (s.expr) {
          if (!current_->returns_value) {
            throw SemaError("void function returns a value", s.line);
          }
          analyze_expr(*s.expr, true);
        } else if (current_->returns_value) {
          throw SemaError("non-void function returns nothing", s.line);
        }
        break;
      case Stmt::Kind::kBreak:
        if (loop_depth_ == 0 && switch_depth_ == 0) {
          throw SemaError("break outside loop or switch", s.line);
        }
        break;
      case Stmt::Kind::kContinue:
        if (loop_depth_ == 0) {
          throw SemaError("continue outside loop", s.line);
        }
        break;
      case Stmt::Kind::kAssert:
      case Stmt::Kind::kAssume:
        analyze_expr(*s.expr, true);
        break;
      case Stmt::Kind::kBlock:
        analyze_body(s.body);
        break;
    }
  }

  void analyze_body(std::vector<std::unique_ptr<Stmt>>& body) {
    push_scope();
    for (auto& stmt : body) analyze_stmt(*stmt);
    pop_scope();
  }

  void analyze_lvalue(Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kVarRef: {
        resolve_var(e);
        if (e.ref == RefKind::kConst) {
          throw SemaError("cannot assign to constant '" + e.name + "'", e.line);
        }
        if (e.ref == RefKind::kGlobal) {
          const GlobalVar* g = program_.find_global(e.name);
          if (g != nullptr && g->is_array) {
            throw SemaError("cannot assign to whole array '" + e.name + "'",
                            e.line);
          }
        }
        break;
      }
      case Expr::Kind::kIndex:
      case Expr::Kind::kMemRead:
        analyze_expr(e, true);
        break;
      default:
        throw SemaError("invalid assignment target", e.line);
    }
  }

  void analyze_expr(Expr& e, bool value_needed) {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kBoolLit:
        break;
      case Expr::Kind::kVarRef:
        resolve_var(e);
        if (e.ref == RefKind::kGlobal) {
          const GlobalVar* g = program_.find_global(e.name);
          if (g != nullptr && g->is_array) {
            throw SemaError("array '" + e.name + "' used as a scalar", e.line);
          }
        }
        break;
      case Expr::Kind::kIndex: {
        const GlobalVar* g = program_.find_global(e.name);
        if (g == nullptr) {
          throw SemaError("unknown array '" + e.name + "'", e.line);
        }
        if (!g->is_array) {
          throw SemaError("'" + e.name + "' is not an array", e.line);
        }
        e.ref = RefKind::kGlobal;
        e.address = g->address;
        analyze_expr(*e.children[0], true);
        break;
      }
      case Expr::Kind::kCall: {
        auto it = functions_.find(e.name);
        if (it == functions_.end()) {
          throw SemaError("call of unknown function '" + e.name + "'", e.line);
        }
        const Function* callee = it->second;
        if (callee->params.size() != e.children.size()) {
          throw SemaError("'" + e.name + "' expects " +
                              std::to_string(callee->params.size()) +
                              " argument(s), got " +
                              std::to_string(e.children.size()),
                          e.line);
        }
        if (value_needed && !callee->returns_value) {
          throw SemaError("void function '" + e.name + "' used as a value",
                          e.line);
        }
        e.callee = callee;
        for (auto& arg : e.children) analyze_expr(*arg, true);
        break;
      }
      case Expr::Kind::kUnary:
        analyze_expr(*e.children[0], true);
        break;
      case Expr::Kind::kBinary:
        analyze_expr(*e.children[0], true);
        analyze_expr(*e.children[1], true);
        check_constant_operands(e);
        break;
      case Expr::Kind::kTernary:
        for (auto& child : e.children) analyze_expr(*child, true);
        break;
      case Expr::Kind::kMemRead:
        analyze_expr(*e.children[0], true);
        break;
      case Expr::Kind::kInput: {
        // Assign dense input ids in first-use order.
        for (std::size_t i = 0; i < program_.input_names.size(); ++i) {
          if (program_.input_names[i] == e.name) {
            e.input_id = static_cast<int>(i);
            break;
          }
        }
        if (e.input_id < 0) {
          e.input_id = static_cast<int>(program_.input_names.size());
          program_.input_names.push_back(e.name);
        }
        break;
      }
    }
  }

  /// Best-effort constant folding over an already-analyzed expression.
  /// Returns nullopt for anything not statically evaluable (variable
  /// references, calls, inputs, memory reads, division — whose value may
  /// trap at run time and is left to the backends).
  static std::optional<std::int64_t> fold_constant(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kBoolLit:
        return e.value;
      case Expr::Kind::kVarRef:
        if (e.ref == RefKind::kConst) return e.value;
        return std::nullopt;
      case Expr::Kind::kUnary: {
        const auto v = fold_constant(*e.children[0]);
        if (!v) return std::nullopt;
        switch (e.unary_op) {
          case UnaryOp::kNot: return *v == 0 ? 1 : 0;
          case UnaryOp::kNeg: return -*v;
          case UnaryOp::kBitNot:
            return static_cast<std::int64_t>(
                static_cast<std::int32_t>(~static_cast<std::uint32_t>(*v)));
        }
        return std::nullopt;
      }
      case Expr::Kind::kBinary: {
        const auto a = fold_constant(*e.children[0]);
        const auto b = fold_constant(*e.children[1]);
        if (!a || !b) return std::nullopt;
        const auto wrap = [](std::int64_t v) {
          return static_cast<std::int64_t>(
              static_cast<std::int32_t>(static_cast<std::uint32_t>(v)));
        };
        switch (e.binary_op) {
          case BinaryOp::kAdd: return wrap(*a + *b);
          case BinaryOp::kSub: return wrap(*a - *b);
          case BinaryOp::kMul: return wrap(*a * *b);
          case BinaryOp::kBitAnd: return *a & *b;
          case BinaryOp::kBitOr: return *a | *b;
          case BinaryOp::kBitXor: return *a ^ *b;
          case BinaryOp::kLt: return *a < *b ? 1 : 0;
          case BinaryOp::kLe: return *a <= *b ? 1 : 0;
          case BinaryOp::kGt: return *a > *b ? 1 : 0;
          case BinaryOp::kGe: return *a >= *b ? 1 : 0;
          case BinaryOp::kEq: return *a == *b ? 1 : 0;
          case BinaryOp::kNe: return *a != *b ? 1 : 0;
          case BinaryOp::kLogicalAnd: return (*a != 0 && *b != 0) ? 1 : 0;
          case BinaryOp::kLogicalOr: return (*a != 0 || *b != 0) ? 1 : 0;
          case BinaryOp::kShl:
            if (*b < 0 || *b >= 32) return std::nullopt;
            return wrap(static_cast<std::int64_t>(
                static_cast<std::uint32_t>(*a) << static_cast<unsigned>(*b)));
          case BinaryOp::kShr:
            if (*b < 0 || *b >= 32) return std::nullopt;
            return wrap(static_cast<std::int64_t>(
                static_cast<std::uint32_t>(*a) >> static_cast<unsigned>(*b)));
          case BinaryOp::kDiv:
          case BinaryOp::kMod:
            return std::nullopt;
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  /// Structured diagnostics for statically-visible arithmetic hazards: a
  /// constant zero divisor and an out-of-range constant shift count are
  /// compile-time errors (SemaError with the offending line), never a crash
  /// or silent wrap in a backend. Non-constant operands stay a run-time
  /// concern.
  void check_constant_operands(const Expr& e) {
    if (e.binary_op == BinaryOp::kDiv || e.binary_op == BinaryOp::kMod) {
      const auto divisor = fold_constant(*e.children[1]);
      if (divisor && *divisor == 0) {
        throw SemaError(e.binary_op == BinaryOp::kDiv
                            ? "division by constant zero"
                            : "modulo by constant zero",
                        e.line);
      }
    }
    if (e.binary_op == BinaryOp::kShl || e.binary_op == BinaryOp::kShr) {
      const auto count = fold_constant(*e.children[1]);
      if (count && (*count < 0 || *count >= 32)) {
        throw SemaError("shift count " + std::to_string(*count) +
                            " out of range [0, 31]",
                        e.line);
      }
    }
  }

  void resolve_var(Expr& e) {
    const int slot = find_local(e.name);
    if (slot >= 0) {
      e.ref = RefKind::kLocal;
      e.slot = slot;
      return;
    }
    auto constant = constants_.find(e.name);
    if (constant != constants_.end()) {
      e.ref = RefKind::kConst;
      e.value = constant->second;
      return;
    }
    auto global = globals_.find(e.name);
    if (global != globals_.end()) {
      e.ref = RefKind::kGlobal;
      e.address = global->second->address;
      return;
    }
    throw SemaError("unknown identifier '" + e.name + "'", e.line);
  }

  Program& program_;
  std::unordered_map<std::string, GlobalVar*> globals_;
  std::unordered_map<std::string, std::int64_t> constants_;
  std::unordered_map<std::string, Function*> functions_;

  Function* current_ = nullptr;
  std::vector<Scope> scopes_;
  int next_slot_ = 0;
  int max_slots_ = 0;
  int loop_depth_ = 0;
  int switch_depth_ = 0;
};

}  // namespace

void analyze(Program& program) { Sema(program).run(); }

Program compile(std::string_view source) {
  Program program = parse_program(source);
  analyze(program);
  return program;
}

}  // namespace esv::minic
