#include "esw/esw_program.hpp"

namespace esv::esw {

using minic::Expr;
using minic::Function;
using minic::Program;
using minic::Stmt;

namespace {

bool contains_call(const Expr& e) {
  if (e.kind == Expr::Kind::kCall) return true;
  for (const auto& child : e.children) {
    if (contains_call(*child)) return true;
  }
  return false;
}

class Lowerer {
 public:
  explicit Lowerer(const Program& program, EswProgram& out)
      : program_(program), out_(out) {}

  void run() {
    out_.source = &program_;
    out_.functions.resize(program_.functions.size());
    for (const auto& fn : program_.functions) {
      lower_function(*fn);
    }
  }

 private:
  std::size_t emit(EswOp op) {
    current_->ops.push_back(std::move(op));
    return current_->ops.size() - 1;
  }

  std::size_t next_index() const { return current_->ops.size(); }

  void lower_function(const Function& fn) {
    current_ = &out_.functions[static_cast<std::size_t>(fn.index)];
    current_->source = &fn;
    temp_base_ = fn.max_slots;
    temp_max_ = 0;
    break_stack_.clear();
    continue_stack_.clear();

    // Function-entry instrumentation: fname = FUNCTION_NAME.
    EswOp entry;
    entry.kind = EswOp::Kind::kSetFname;
    entry.line = fn.line;
    entry.callee = &fn;
    emit(std::move(entry));

    for (const auto& stmt : fn.body) lower_stmt(*stmt);

    // Implicit return for functions that fall off the end.
    EswOp ret;
    ret.kind = EswOp::Kind::kReturn;
    ret.line = fn.line;
    emit(std::move(ret));

    current_->frame_slots = fn.max_slots + temp_max_;
    current_ = nullptr;
  }

  // --- statements -------------------------------------------------------------

  void lower_stmt(const Stmt& s) {
    temp_next_ = 0;  // ANF temporaries are per-statement scratch
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        for (const auto& child : s.body) lower_stmt(*child);
        return;
      case Stmt::Kind::kExpr: {
        EswOp op;
        op.kind = EswOp::Kind::kEval;
        op.line = s.line;
        if (s.expr->kind == Expr::Kind::kCall) {
          // A bare call statement: emit the call op directly (discarding the
          // result) instead of kCall + empty kEval.
          lower_call(*s.expr, /*result_slot=*/-1, s.line);
          return;
        }
        op.expr = lower_expr(*s.expr);
        emit(std::move(op));
        return;
      }
      case Stmt::Kind::kAssign: {
        // Plain `x = f(...)` stores the call result straight into a local.
        if (s.expr->kind == Expr::Kind::kCall &&
            s.target->kind == Expr::Kind::kVarRef &&
            s.target->ref == minic::RefKind::kLocal) {
          lower_call(*s.expr, s.target->slot, s.line);
          return;
        }
        EswOp op;
        op.kind = EswOp::Kind::kEval;
        op.line = s.line;
        op.expr = lower_expr(*s.expr);
        op.target = lower_expr(*s.target);
        emit(std::move(op));
        return;
      }
      case Stmt::Kind::kLocalDecl: {
        if (!s.expr) return;  // bare declaration: no executable effect
        EswOp op;
        op.kind = EswOp::Kind::kEval;
        op.line = s.line;
        op.expr = lower_expr(*s.expr);
        op.target = make_local_ref(s.slot, s.line);
        emit(std::move(op));
        return;
      }
      case Stmt::Kind::kIf: {
        EswOp branch;
        branch.kind = EswOp::Kind::kCondJump;
        branch.line = s.line;
        branch.expr = lower_expr(*s.expr);
        const std::size_t branch_at = emit(std::move(branch));
        current_->ops[branch_at].jump_true = next_index();
        for (const auto& child : s.body) lower_stmt(*child);
        if (s.else_body.empty()) {
          current_->ops[branch_at].jump_false = next_index();
        } else {
          EswOp skip;
          skip.kind = EswOp::Kind::kJump;
          skip.line = s.line;
          const std::size_t skip_at = emit(std::move(skip));
          current_->ops[branch_at].jump_false = next_index();
          for (const auto& child : s.else_body) lower_stmt(*child);
          current_->ops[skip_at].jump_true = next_index();
        }
        return;
      }
      case Stmt::Kind::kWhile: {
        const std::size_t cond_at = next_index();
        EswOp branch;
        branch.kind = EswOp::Kind::kCondJump;
        branch.line = s.line;
        branch.expr = lower_expr(*s.expr);
        const std::size_t branch_at = emit(std::move(branch));
        current_->ops[branch_at].jump_true = next_index();
        push_loop();
        for (const auto& child : s.body) lower_stmt(*child);
        EswOp back;
        back.kind = EswOp::Kind::kJump;
        back.line = s.line;
        back.jump_true = cond_at;
        emit(std::move(back));
        current_->ops[branch_at].jump_false = next_index();
        pop_loop(next_index(), cond_at);
        return;
      }
      case Stmt::Kind::kDoWhile: {
        const std::size_t body_at = next_index();
        push_loop();
        for (const auto& child : s.body) lower_stmt(*child);
        const std::size_t cond_at = next_index();
        temp_next_ = 0;
        EswOp branch;
        branch.kind = EswOp::Kind::kCondJump;
        branch.line = s.line;
        branch.expr = lower_expr(*s.expr);
        const std::size_t branch_at = emit(std::move(branch));
        current_->ops[branch_at].jump_true = body_at;
        current_->ops[branch_at].jump_false = next_index();
        pop_loop(next_index(), cond_at);
        return;
      }
      case Stmt::Kind::kFor: {
        if (s.init) lower_stmt(*s.init);
        const std::size_t cond_at = next_index();
        std::size_t branch_at = 0;
        bool has_cond = s.expr != nullptr;
        if (has_cond) {
          temp_next_ = 0;
          EswOp branch;
          branch.kind = EswOp::Kind::kCondJump;
          branch.line = s.line;
          branch.expr = lower_expr(*s.expr);
          branch_at = emit(std::move(branch));
          current_->ops[branch_at].jump_true = next_index();
        }
        push_loop();
        for (const auto& child : s.body) lower_stmt(*child);
        const std::size_t step_at = next_index();
        if (s.step) lower_stmt(*s.step);
        EswOp back;
        back.kind = EswOp::Kind::kJump;
        back.line = s.line;
        back.jump_true = cond_at;
        emit(std::move(back));
        if (has_cond) current_->ops[branch_at].jump_false = next_index();
        pop_loop(next_index(), step_at);
        return;
      }
      case Stmt::Kind::kSwitch: {
        EswOp sel;
        sel.kind = EswOp::Kind::kSwitchJump;
        sel.line = s.line;
        sel.expr = lower_expr(*s.expr);
        const std::size_t sel_at = emit(std::move(sel));
        break_stack_.emplace_back();  // switch is a break target
        std::vector<std::size_t> case_starts;
        std::size_t default_start = 0;
        bool has_default = false;
        for (const auto& c : s.cases) {
          case_starts.push_back(next_index());
          if (c.is_default) {
            has_default = true;
            default_start = next_index();
          }
          for (const auto& child : c.body) lower_stmt(*child);
          // fallthrough into the next case body, as in C
        }
        const std::size_t end = next_index();
        EswOp& sel_op = current_->ops[sel_at];
        for (std::size_t i = 0; i < s.cases.size(); ++i) {
          if (!s.cases[i].is_default) {
            sel_op.switch_targets.push_back(
                EswOp::SwitchTarget{s.cases[i].value, case_starts[i]});
          }
        }
        sel_op.switch_default = has_default ? default_start : end;
        for (std::size_t patch : break_stack_.back()) {
          current_->ops[patch].jump_true = end;
        }
        break_stack_.pop_back();
        return;
      }
      case Stmt::Kind::kReturn: {
        EswOp op;
        op.kind = EswOp::Kind::kReturn;
        op.line = s.line;
        if (s.expr) op.expr = lower_expr(*s.expr);
        emit(std::move(op));
        return;
      }
      case Stmt::Kind::kBreak: {
        if (break_stack_.empty()) {
          throw LoweringError("break without target", s.line);
        }
        EswOp op;
        op.kind = EswOp::Kind::kJump;
        op.line = s.line;
        break_stack_.back().push_back(emit(std::move(op)));
        return;
      }
      case Stmt::Kind::kContinue: {
        if (continue_stack_.empty()) {
          throw LoweringError("continue without target", s.line);
        }
        EswOp op;
        op.kind = EswOp::Kind::kJump;
        op.line = s.line;
        continue_stack_.back().push_back(emit(std::move(op)));
        return;
      }
      case Stmt::Kind::kAssert: {
        EswOp op;
        op.kind = EswOp::Kind::kAssert;
        op.line = s.line;
        op.expr = lower_expr(*s.expr);
        emit(std::move(op));
        return;
      }
      case Stmt::Kind::kAssume: {
        EswOp op;
        op.kind = EswOp::Kind::kAssume;
        op.line = s.line;
        op.expr = lower_expr(*s.expr);
        emit(std::move(op));
        return;
      }
    }
  }

  void push_loop() {
    break_stack_.emplace_back();
    continue_stack_.emplace_back();
  }

  void pop_loop(std::size_t break_target, std::size_t continue_target) {
    for (std::size_t patch : break_stack_.back()) {
      current_->ops[patch].jump_true = break_target;
    }
    break_stack_.pop_back();
    for (std::size_t patch : continue_stack_.back()) {
      current_->ops[patch].jump_true = continue_target;
    }
    continue_stack_.pop_back();
  }

  // --- expressions / ANF call extraction ---------------------------------------

  void lower_call(const Expr& call, int result_slot, int line) {
    EswOp op;
    op.kind = EswOp::Kind::kCall;
    op.line = line;
    op.callee = call.callee;
    op.result_slot = result_slot;
    for (const auto& arg : call.children) {
      op.args.push_back(lower_expr(*arg));
    }
    emit(std::move(op));
  }

  /// Returns an expression equivalent to `e` in which every call has been
  /// hoisted into a preceding kCall op writing an ANF temporary.
  const Expr* lower_expr(const Expr& e) {
    if (!contains_call(e)) return &e;
    std::unique_ptr<Expr> owned = rewrite(e);
    const Expr* ptr = owned.get();
    out_.owned_exprs.push_back(std::move(owned));
    return ptr;
  }

  std::unique_ptr<Expr> rewrite(const Expr& e) {
    if (e.kind == Expr::Kind::kCall) {
      const int slot = alloc_temp();
      EswOp op;
      op.kind = EswOp::Kind::kCall;
      op.line = e.line;
      op.callee = e.callee;
      op.result_slot = slot;
      for (const auto& arg : e.children) {
        op.args.push_back(lower_expr(*arg));
      }
      emit(std::move(op));
      auto ref = std::make_unique<Expr>();
      ref->kind = Expr::Kind::kVarRef;
      ref->line = e.line;
      ref->name = "$anf_tmp";
      ref->ref = minic::RefKind::kLocal;
      ref->slot = slot;
      return ref;
    }
    if (e.kind == Expr::Kind::kBinary &&
        (e.binary_op == minic::BinaryOp::kLogicalAnd ||
         e.binary_op == minic::BinaryOp::kLogicalOr) &&
        contains_call(*e.children[1])) {
      throw LoweringError(
          "call on the short-circuited side of &&/|| cannot be derived; "
          "rewrite as an if-statement",
          e.line);
    }
    if (e.kind == Expr::Kind::kTernary &&
        (contains_call(*e.children[1]) || contains_call(*e.children[2]))) {
      throw LoweringError(
          "call inside ?: branch cannot be derived; rewrite as an "
          "if-statement",
          e.line);
    }
    auto copy = std::make_unique<Expr>();
    copy->kind = e.kind;
    copy->line = e.line;
    copy->value = e.value;
    copy->name = e.name;
    copy->unary_op = e.unary_op;
    copy->binary_op = e.binary_op;
    copy->ref = e.ref;
    copy->address = e.address;
    copy->slot = e.slot;
    copy->callee = e.callee;
    copy->input_id = e.input_id;
    for (const auto& child : e.children) {
      copy->children.push_back(rewrite(*child));
    }
    return copy;
  }

  int alloc_temp() {
    const int slot = temp_base_ + temp_next_++;
    temp_max_ = std::max(temp_max_, temp_next_);
    return slot;
  }

  const Expr* make_local_ref(int slot, int line) {
    auto ref = std::make_unique<Expr>();
    ref->kind = Expr::Kind::kVarRef;
    ref->line = line;
    ref->ref = minic::RefKind::kLocal;
    ref->slot = slot;
    const Expr* ptr = ref.get();
    out_.owned_exprs.push_back(std::move(ref));
    return ptr;
  }

  const Program& program_;
  EswProgram& out_;
  LoweredFunction* current_ = nullptr;
  int temp_base_ = 0;
  int temp_next_ = 0;
  int temp_max_ = 0;
  std::vector<std::vector<std::size_t>> break_stack_;
  std::vector<std::vector<std::size_t>> continue_stack_;
};

}  // namespace

EswProgram lower_program(const Program& program) {
  EswProgram out;
  Lowerer(program, out).run();
  return out;
}

}  // namespace esv::esw
