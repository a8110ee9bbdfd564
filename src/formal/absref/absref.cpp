#include "formal/absref/absref.hpp"

#include <chrono>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "esw/esw_program.hpp"
#include "esw/interpreter.hpp"
#include "mem/address_space.hpp"

namespace esv::formal::absref {

using esw::EswOp;
using minic::BinaryOp;
using minic::Expr;
using minic::Program;
using minic::RefKind;
using minic::UnaryOp;

namespace {

/// The prover's precision limit was exceeded (BLAST's 2^30 - 1 behaviour).
class ProverOverflow : public std::runtime_error {
 public:
  explicit ProverOverflow(std::int64_t value)
      : std::runtime_error("prover integer overflow: |" +
                           std::to_string(value) + "| exceeds 2^30 - 1") {}
};

enum class PredOp { kEq, kNe, kLt, kLe, kGt, kGe };

PredOp negate(PredOp op) {
  switch (op) {
    case PredOp::kEq: return PredOp::kNe;
    case PredOp::kNe: return PredOp::kEq;
    case PredOp::kLt: return PredOp::kGe;
    case PredOp::kLe: return PredOp::kGt;
    case PredOp::kGt: return PredOp::kLe;
    case PredOp::kGe: return PredOp::kLt;
  }
  return PredOp::kEq;
}

bool pred_holds(std::int64_t lhs, PredOp op, std::int64_t rhs) {
  switch (op) {
    case PredOp::kEq: return lhs == rhs;
    case PredOp::kNe: return lhs != rhs;
    case PredOp::kLt: return lhs < rhs;
    case PredOp::kLe: return lhs <= rhs;
    case PredOp::kGt: return lhs > rhs;
    case PredOp::kGe: return lhs >= rhs;
  }
  return false;
}

/// Predicate over a scalar global: (global @address) op constant.
struct Predicate {
  std::uint32_t address;
  PredOp op;
  std::int64_t constant;

  bool operator==(const Predicate&) const = default;
};

struct Frame {
  int fn = 0;
  std::uint32_t pc = 0;
  bool operator==(const Frame&) const = default;
};

struct AbstractState {
  std::vector<Frame> stack;
  std::uint64_t known = 0;
  std::uint64_t values = 0;

  bool operator==(const AbstractState&) const = default;
};

struct StateHash {
  std::size_t operator()(const AbstractState& s) const {
    std::size_t h = s.known * 0x9e3779b97f4a7c15ULL ^ s.values;
    for (const Frame& f : s.stack) {
      h = h * 1000003u + static_cast<std::size_t>(f.fn) * 131u + f.pc;
    }
    return h;
  }
};

class Analyzer {
 public:
  Analyzer(const Program& program, const esw::EswProgram& lowered,
           const AbsRefOptions& options)
      : program_(program), lowered_(lowered), options_(options) {}

  AbsRefResult run() {
    AbsRefResult result;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };

    try {
      mine_initial_predicates();
      for (std::size_t round = 0; round <= options_.max_refinements; ++round) {
        result.refinements = round;
        result.predicates = predicates_.size();
        int failing_line = 0;
        const ExploreOutcome outcome = explore(result, failing_line, start);
        if (outcome == ExploreOutcome::kSafe) {
          result.status = AbsRefResult::Status::kSafe;
          result.seconds = elapsed();
          return result;
        }
        if (outcome == ExploreOutcome::kBudget) {
          result.status = AbsRefResult::Status::kBudgetExceeded;
          result.detail = "abstract-state budget exhausted";
          result.seconds = elapsed();
          return result;
        }
        // Abstract counterexample: replay concretely.
        const std::optional<int> concrete = replay();
        if (concrete.has_value()) {
          result.status = AbsRefResult::Status::kCounterexample;
          result.failing_line = *concrete;
          result.detail =
              "assertion fails at line " + std::to_string(*concrete);
          result.seconds = elapsed();
          return result;
        }
        // Spurious: refine the predicate set and try again.
        if (!refine(round)) {
          result.status = AbsRefResult::Status::kBudgetExceeded;
          result.detail = "refinement produced no new predicates (abstract "
                          "counterexample at line " +
                          std::to_string(failing_line) + " remains)";
          result.seconds = elapsed();
          return result;
        }
      }
      result.status = AbsRefResult::Status::kBudgetExceeded;
      result.detail = "refinement budget exhausted";
    } catch (const ProverOverflow& e) {
      result.status = AbsRefResult::Status::kException;
      result.detail = e.what();
    }
    result.seconds = elapsed();
    result.predicates = predicates_.size();
    return result;
  }

 private:
  enum class ExploreOutcome { kSafe, kAbstractCex, kBudget };

  // --- predicate mining ------------------------------------------------------

  /// Checks every integer constant the prover would touch.
  std::int64_t checked(std::int64_t v) const {
    if (v > options_.prover_magnitude_limit ||
        v < -options_.prover_magnitude_limit) {
      throw ProverOverflow(v);
    }
    return v;
  }

  void add_predicate(Predicate p) {
    if (predicates_.size() >= options_.max_predicates) return;
    for (const Predicate& existing : predicates_) {
      if (existing == p) return;
    }
    predicates_.push_back(p);
  }

  /// Extracts a predicate from a boolean condition if it has the shape
  /// (global op const), (const op global), global, or !global.
  std::optional<std::pair<Predicate, bool>> match_condition(const Expr& e) {
    if (e.kind == Expr::Kind::kUnary && e.unary_op == UnaryOp::kNot) {
      auto inner = match_condition(*e.children[0]);
      if (!inner) return std::nullopt;
      inner->second = !inner->second;
      return inner;
    }
    if (e.kind == Expr::Kind::kVarRef && e.ref == RefKind::kGlobal) {
      return std::make_pair(Predicate{e.address, PredOp::kNe, 0}, true);
    }
    if (e.kind != Expr::Kind::kBinary) return std::nullopt;
    PredOp op;
    switch (e.binary_op) {
      case BinaryOp::kEq: op = PredOp::kEq; break;
      case BinaryOp::kNe: op = PredOp::kNe; break;
      case BinaryOp::kLt: op = PredOp::kLt; break;
      case BinaryOp::kLe: op = PredOp::kLe; break;
      case BinaryOp::kGt: op = PredOp::kGt; break;
      case BinaryOp::kGe: op = PredOp::kGe; break;
      default: return std::nullopt;
    }
    const Expr& lhs = *e.children[0];
    const Expr& rhs = *e.children[1];
    const auto const_of = [&](const Expr& c) -> std::optional<std::int64_t> {
      if (c.kind == Expr::Kind::kIntLit || c.kind == Expr::Kind::kBoolLit) {
        return checked(c.value);
      }
      if (c.kind == Expr::Kind::kVarRef && c.ref == RefKind::kConst) {
        return checked(c.value);
      }
      return std::nullopt;
    };
    if (lhs.kind == Expr::Kind::kVarRef && lhs.ref == RefKind::kGlobal) {
      if (auto c = const_of(rhs)) {
        return std::make_pair(Predicate{lhs.address, op, *c}, true);
      }
    }
    if (rhs.kind == Expr::Kind::kVarRef && rhs.ref == RefKind::kGlobal) {
      if (auto c = const_of(lhs)) {
        // const op global  ==  global (swapped op) const
        PredOp swapped = op;
        switch (op) {
          case PredOp::kLt: swapped = PredOp::kGt; break;
          case PredOp::kLe: swapped = PredOp::kGe; break;
          case PredOp::kGt: swapped = PredOp::kLt; break;
          case PredOp::kGe: swapped = PredOp::kLe; break;
          default: break;
        }
        return std::make_pair(Predicate{rhs.address, swapped, *c}, true);
      }
    }
    return std::nullopt;
  }

  void mine_expr(const Expr& e, bool conditions_only) {
    if (auto m = match_condition(e)) {
      add_predicate(m->first);
    }
    for (const auto& child : e.children) mine_expr(*child, conditions_only);
  }

  void mine_initial_predicates() {
    // Round 0: predicates from assertion conditions.
    for (const auto& fn : lowered_.functions) {
      for (const EswOp& op : fn.ops) {
        if (op.kind == EswOp::Kind::kAssert && op.expr != nullptr) {
          mine_expr(*op.expr, true);
        }
      }
    }
  }

  bool refine(std::size_t round) {
    const std::size_t before = predicates_.size();
    if (round == 0) {
      // Round 1: branch and switch conditions over globals.
      for (const auto& fn : lowered_.functions) {
        for (const EswOp& op : fn.ops) {
          if ((op.kind == EswOp::Kind::kCondJump ||
               op.kind == EswOp::Kind::kSwitchJump) &&
              op.expr != nullptr) {
            mine_expr(*op.expr, true);
            if (op.kind == EswOp::Kind::kSwitchJump) {
              // selector == case-value predicates.
              if (op.expr->kind == Expr::Kind::kVarRef &&
                  op.expr->ref == RefKind::kGlobal) {
                for (const auto& target : op.switch_targets) {
                  add_predicate(Predicate{op.expr->address, PredOp::kEq,
                                          checked(target.value)});
                }
              }
            }
          }
        }
      }
      // Also mirror predicates across global-to-global copies so the copy-
      // propagation transfer has something to transfer (e.g. witness = fname
      // mirrors (witness op c) onto fname). Fixpoint to follow copy chains.
      bool changed = true;
      while (changed) {
        changed = false;
        const std::size_t count = predicates_.size();
        for (const auto& fn : lowered_.functions) {
          for (const EswOp& op : fn.ops) {
            if (op.kind != EswOp::Kind::kEval || op.target == nullptr) continue;
            if (op.target->kind != Expr::Kind::kVarRef ||
                op.target->ref != RefKind::kGlobal) {
              continue;
            }
            if (op.expr->kind != Expr::Kind::kVarRef ||
                op.expr->ref != RefKind::kGlobal) {
              continue;
            }
            for (std::size_t i = 0; i < predicates_.size(); ++i) {
              if (predicates_[i].address == op.target->address) {
                add_predicate(Predicate{op.expr->address, predicates_[i].op,
                                        predicates_[i].constant});
              }
            }
          }
        }
        changed = predicates_.size() != count;
      }
    } else if (round == 1) {
      // Round 2: equality predicates from constant stores to globals.
      for (const auto& fn : lowered_.functions) {
        for (const EswOp& op : fn.ops) {
          if (op.kind != EswOp::Kind::kEval || op.target == nullptr) continue;
          if (op.target->kind != Expr::Kind::kVarRef ||
              op.target->ref != RefKind::kGlobal) {
            continue;
          }
          const Expr& value = *op.expr;
          if (value.kind == Expr::Kind::kIntLit ||
              value.kind == Expr::Kind::kBoolLit ||
              (value.kind == Expr::Kind::kVarRef &&
               value.ref == RefKind::kConst)) {
            add_predicate(Predicate{op.target->address, PredOp::kEq,
                                    checked(value.value)});
          }
        }
      }
    }
    return predicates_.size() > before;
  }

  // --- the abstract domain ---------------------------------------------------

  /// Exact value of a global under the predicate valuation (from a true
  /// equality predicate), if any.
  std::optional<std::int64_t> exact_global(const AbstractState& s,
                                           std::uint32_t address) const {
    for (std::size_t i = 0; i < predicates_.size(); ++i) {
      const Predicate& p = predicates_[i];
      if (p.address == address && p.op == PredOp::kEq &&
          (s.known >> i & 1) != 0 && (s.values >> i & 1) != 0) {
        return p.constant;
      }
    }
    return std::nullopt;
  }

  /// The prover: exact evaluation under the abstraction, with overflow
  /// checking on every intermediate value. nullopt == "don't know".
  std::optional<std::int64_t> eval_exact(const Expr& e,
                                         const AbstractState& s) const {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kBoolLit:
        return checked(e.value);
      case Expr::Kind::kVarRef:
        if (e.ref == RefKind::kConst) return checked(e.value);
        if (e.ref == RefKind::kGlobal) return exact_global(s, e.address);
        return std::nullopt;  // locals are abstracted away
      case Expr::Kind::kUnary: {
        auto v = eval_exact(*e.children[0], s);
        if (!v) return std::nullopt;
        switch (e.unary_op) {
          case UnaryOp::kNot: return *v == 0 ? 1 : 0;
          case UnaryOp::kNeg: return checked(-*v);
          case UnaryOp::kBitNot: return std::nullopt;  // beyond the prover
        }
        return std::nullopt;
      }
      case Expr::Kind::kBinary: {
        auto a = eval_exact(*e.children[0], s);
        // Short-circuit with a decided left side.
        if (e.binary_op == BinaryOp::kLogicalAnd && a && *a == 0) return 0;
        if (e.binary_op == BinaryOp::kLogicalOr && a && *a != 0) return 1;
        auto b = eval_exact(*e.children[1], s);
        if (!a || !b) return std::nullopt;
        switch (e.binary_op) {
          case BinaryOp::kMul: return checked(*a * *b);
          case BinaryOp::kDiv:
            if (*b == 0) return std::nullopt;
            return checked(*a / *b);
          case BinaryOp::kMod:
            if (*b == 0) return std::nullopt;
            return checked(*a % *b);
          case BinaryOp::kAdd: return checked(*a + *b);
          case BinaryOp::kSub: return checked(*a - *b);
          case BinaryOp::kShl: return checked(*a << (*b & 31));
          case BinaryOp::kShr:
            return checked(static_cast<std::int64_t>(
                static_cast<std::uint32_t>(*a) >> (*b & 31)));
          case BinaryOp::kLt: return *a < *b ? 1 : 0;
          case BinaryOp::kLe: return *a <= *b ? 1 : 0;
          case BinaryOp::kGt: return *a > *b ? 1 : 0;
          case BinaryOp::kGe: return *a >= *b ? 1 : 0;
          case BinaryOp::kEq: return *a == *b ? 1 : 0;
          case BinaryOp::kNe: return *a != *b ? 1 : 0;
          case BinaryOp::kBitAnd: return checked(*a & *b);
          case BinaryOp::kBitXor: return checked(*a ^ *b);
          case BinaryOp::kBitOr: return checked(*a | *b);
          case BinaryOp::kLogicalAnd: return (*a != 0 && *b != 0) ? 1 : 0;
          case BinaryOp::kLogicalOr: return (*a != 0 || *b != 0) ? 1 : 0;
        }
        return std::nullopt;
      }
      case Expr::Kind::kTernary: {
        auto c = eval_exact(*e.children[0], s);
        if (!c) return std::nullopt;
        return eval_exact(*e.children[*c != 0 ? 1 : 2], s);
      }
      case Expr::Kind::kIndex:
      case Expr::Kind::kCall:
      case Expr::Kind::kMemRead:
      case Expr::Kind::kInput:
        // Still visit children so constants inside (e.g. register
        // addresses) pass through the prover — that is where the overflow
        // exception fires on automotive code.
        for (const auto& child : e.children) eval_exact(*child, s);
        if (e.kind == Expr::Kind::kMemRead || e.kind == Expr::Kind::kInput) {
          return std::nullopt;
        }
        return std::nullopt;
    }
    return std::nullopt;
  }

  /// Three-valued condition evaluation: 1/0, or nullopt with an optional
  /// learnable predicate index.
  std::optional<bool> decide(const Expr& cond, const AbstractState& s,
                             int& learn_index, bool& learn_polarity) const {
    learn_index = -1;
    // Try structural predicate match first (it also tells us what to learn).
    if (auto m = const_cast<Analyzer*>(this)->match_condition_no_add(cond)) {
      for (std::size_t i = 0; i < predicates_.size(); ++i) {
        if (predicates_[i] == m->first) {
          learn_index = static_cast<int>(i);
          learn_polarity = m->second;
          if (s.known >> i & 1) {
            const bool value = (s.values >> i & 1) != 0;
            return m->second ? value : !value;
          }
          break;
        }
        // The negated form may be in the list instead.
        Predicate negated{m->first.address, negate(m->first.op),
                          m->first.constant};
        if (predicates_[i] == negated) {
          learn_index = static_cast<int>(i);
          learn_polarity = !m->second;
          if (s.known >> i & 1) {
            const bool value = (s.values >> i & 1) != 0;
            return !m->second ? value : !value;
          }
          break;
        }
      }
    }
    if (auto v = eval_exact(cond, s)) return *v != 0;
    return std::nullopt;
  }

  /// match_condition without predicate-list side effects.
  std::optional<std::pair<Predicate, bool>> match_condition_no_add(
      const Expr& e) {
    return match_condition(e);
  }

  /// Applies an assignment global := expr to the predicate valuation.
  void transfer_store(AbstractState& s, std::uint32_t address,
                      const Expr& value) const {
    const auto exact = eval_exact(value, s);
    // Copy propagation: globalA = globalB transfers matching predicates.
    const bool is_copy = !exact && value.kind == Expr::Kind::kVarRef &&
                         value.ref == RefKind::kGlobal;
    for (std::size_t i = 0; i < predicates_.size(); ++i) {
      const Predicate& p = predicates_[i];
      if (p.address != address) continue;
      if (is_copy) {
        // Look for the mirrored predicate on the source global.
        bool transferred = false;
        for (std::size_t j = 0; j < predicates_.size(); ++j) {
          const Predicate& q = predicates_[j];
          if (q.address == value.address && q.op == p.op &&
              q.constant == p.constant) {
            if (s.known >> j & 1) {
              s.known |= (std::uint64_t{1} << i);
              if (s.values >> j & 1) {
                s.values |= (std::uint64_t{1} << i);
              } else {
                s.values &= ~(std::uint64_t{1} << i);
              }
              transferred = true;
            }
            break;
          }
        }
        if (!transferred) {
          s.known &= ~(std::uint64_t{1} << i);
          s.values &= ~(std::uint64_t{1} << i);
        }
        continue;
      }
      if (exact) {
        s.known |= (std::uint64_t{1} << i);
        if (pred_holds(*exact, p.op, p.constant)) {
          s.values |= (std::uint64_t{1} << i);
        } else {
          s.values &= ~(std::uint64_t{1} << i);
        }
      } else {
        s.known &= ~(std::uint64_t{1} << i);
        s.values &= ~(std::uint64_t{1} << i);
      }
    }
  }

  void learn(AbstractState& s, int index, bool value) const {
    if (index < 0) return;
    s.known |= (std::uint64_t{1} << index);
    if (value) {
      s.values |= (std::uint64_t{1} << index);
    } else {
      s.values &= ~(std::uint64_t{1} << index);
    }
  }

  // --- abstract reachability --------------------------------------------------

  ExploreOutcome explore(AbsRefResult& result, int& failing_line,
                         std::chrono::steady_clock::time_point start) {
    std::unordered_set<AbstractState, StateHash> visited;
    std::deque<AbstractState> queue;

    AbstractState initial;
    const minic::Function* main_fn = program_.find_function("main");
    initial.stack.push_back(Frame{main_fn->index, 0});
    // Global initializers are concrete: predicates start decided.
    for (std::size_t i = 0; i < predicates_.size(); ++i) {
      const Predicate& p = predicates_[i];
      for (const auto& g : program_.globals) {
        if (g.is_array || g.address != p.address) continue;
        const std::int64_t init = g.init.empty() ? 0 : checked(g.init[0]);
        initial.known |= (std::uint64_t{1} << i);
        if (pred_holds(init, p.op, p.constant)) {
          initial.values |= (std::uint64_t{1} << i);
        }
      }
    }
    queue.push_back(initial);
    visited.insert(initial);

    while (!queue.empty()) {
      if (visited.size() > options_.max_states) return ExploreOutcome::kBudget;
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count() > options_.max_seconds) {
        return ExploreOutcome::kBudget;
      }
      AbstractState state = queue.front();
      queue.pop_front();
      result.explored_states = visited.size();

      std::vector<AbstractState> successors;
      if (!step(state, successors, failing_line)) {
        return ExploreOutcome::kAbstractCex;
      }
      for (AbstractState& next : successors) {
        if (visited.insert(next).second) queue.push_back(std::move(next));
      }
    }
    return ExploreOutcome::kSafe;
  }

  /// Computes abstract successors; returns false on an abstract
  /// counterexample (failing_line set).
  bool step(AbstractState state, std::vector<AbstractState>& successors,
            int& failing_line) {
    if (state.stack.empty()) return true;  // program ended
    Frame& top = state.stack.back();
    const esw::LoweredFunction& fn =
        lowered_.functions[static_cast<std::size_t>(top.fn)];
    // Structural jumps are free, as in the concrete executor.
    while (fn.ops[top.pc].kind == EswOp::Kind::kJump) {
      top.pc = static_cast<std::uint32_t>(fn.ops[top.pc].jump_true);
    }
    const EswOp& op = fn.ops[top.pc];

    switch (op.kind) {
      case EswOp::Kind::kSetFname: {
        // fname := constant id.
        for (std::size_t i = 0; i < predicates_.size(); ++i) {
          const Predicate& p = predicates_[i];
          if (p.address != program_.fname_address) continue;
          state.known |= (std::uint64_t{1} << i);
          if (pred_holds(op.callee->index + 1, p.op, p.constant)) {
            state.values |= (std::uint64_t{1} << i);
          } else {
            state.values &= ~(std::uint64_t{1} << i);
          }
        }
        ++top.pc;
        successors.push_back(std::move(state));
        return true;
      }
      case EswOp::Kind::kEval: {
        eval_exact(*op.expr, state);  // runs constants through the prover
        if (op.target != nullptr &&
            op.target->kind == Expr::Kind::kVarRef &&
            op.target->ref == RefKind::kGlobal) {
          transfer_store(state, op.target->address, *op.expr);
        } else if (op.target != nullptr) {
          // Array / memory / local target: visit for overflow, no transfer.
          eval_exact(*op.target, state);
        }
        ++top.pc;
        successors.push_back(std::move(state));
        return true;
      }
      case EswOp::Kind::kCondJump: {
        int learn_index = -1;
        bool learn_polarity = true;
        const auto decided = decide(*op.expr, state, learn_index,
                                    learn_polarity);
        if (decided.has_value()) {
          top.pc = static_cast<std::uint32_t>(*decided ? op.jump_true
                                                       : op.jump_false);
          successors.push_back(std::move(state));
          return true;
        }
        AbstractState then_state = state;
        then_state.stack.back().pc =
            static_cast<std::uint32_t>(op.jump_true);
        learn(then_state, learn_index, learn_polarity);
        AbstractState else_state = std::move(state);
        else_state.stack.back().pc =
            static_cast<std::uint32_t>(op.jump_false);
        learn(else_state, learn_index, !learn_polarity);
        successors.push_back(std::move(then_state));
        successors.push_back(std::move(else_state));
        return true;
      }
      case EswOp::Kind::kSwitchJump: {
        const auto exact = eval_exact(*op.expr, state);
        if (exact.has_value()) {
          std::size_t target = op.switch_default;
          for (const auto& entry : op.switch_targets) {
            if (entry.value == *exact) {
              target = entry.target;
              break;
            }
          }
          top.pc = static_cast<std::uint32_t>(target);
          successors.push_back(std::move(state));
          return true;
        }
        // Unknown selector: one successor per case plus default.
        const bool selector_is_global =
            op.expr->kind == Expr::Kind::kVarRef &&
            op.expr->ref == RefKind::kGlobal;
        for (const auto& entry : op.switch_targets) {
          AbstractState next = state;
          next.stack.back().pc = static_cast<std::uint32_t>(entry.target);
          if (selector_is_global) {
            for (std::size_t i = 0; i < predicates_.size(); ++i) {
              if (predicates_[i] ==
                  Predicate{op.expr->address, PredOp::kEq, entry.value}) {
                learn(next, static_cast<int>(i), true);
              }
            }
          }
          successors.push_back(std::move(next));
        }
        AbstractState def = std::move(state);
        def.stack.back().pc = static_cast<std::uint32_t>(op.switch_default);
        if (selector_is_global) {
          for (std::size_t i = 0; i < predicates_.size(); ++i) {
            for (const auto& entry : op.switch_targets) {
              if (predicates_[i] ==
                  Predicate{op.expr->address, PredOp::kEq, entry.value}) {
                learn(def, static_cast<int>(i), false);
              }
            }
          }
        }
        successors.push_back(std::move(def));
        return true;
      }
      case EswOp::Kind::kCall: {
        for (const Expr* arg : op.args) eval_exact(*arg, state);
        if (state.stack.size() >= options_.max_stack_depth) {
          // Deep/recursive call: havoc everything the callee could touch.
          state.known = 0;
          state.values = 0;
          ++top.pc;
          successors.push_back(std::move(state));
          return true;
        }
        ++top.pc;  // resume after the call on return
        state.stack.push_back(Frame{op.callee->index, 0});
        successors.push_back(std::move(state));
        return true;
      }
      case EswOp::Kind::kReturn: {
        if (op.expr != nullptr) eval_exact(*op.expr, state);
        state.stack.pop_back();
        // fname reverts to the caller's id.
        if (!state.stack.empty()) {
          const int caller_fn = state.stack.back().fn;
          for (std::size_t i = 0; i < predicates_.size(); ++i) {
            const Predicate& p = predicates_[i];
            if (p.address != program_.fname_address) continue;
            state.known |= (std::uint64_t{1} << i);
            if (pred_holds(caller_fn + 1, p.op, p.constant)) {
              state.values |= (std::uint64_t{1} << i);
            } else {
              state.values &= ~(std::uint64_t{1} << i);
            }
          }
        }
        successors.push_back(std::move(state));
        return true;
      }
      case EswOp::Kind::kAssert: {
        int learn_index = -1;
        bool learn_polarity = true;
        const auto decided = decide(*op.expr, state, learn_index,
                                    learn_polarity);
        if (decided.has_value() && *decided) {
          ++top.pc;
          successors.push_back(std::move(state));
          return true;
        }
        failing_line = op.line;
        return false;  // abstract counterexample (false or unknown)
      }
      case EswOp::Kind::kAssume: {
        int learn_index = -1;
        bool learn_polarity = true;
        const auto decided = decide(*op.expr, state, learn_index,
                                    learn_polarity);
        if (decided.has_value() && !*decided) {
          return true;  // path excluded: no successors
        }
        // Continue under the assumption, learning it when it matches a
        // tracked predicate.
        learn(state, learn_index, learn_polarity);
        ++top.pc;
        successors.push_back(std::move(state));
        return true;
      }
      case EswOp::Kind::kJump:
      case EswOp::Kind::kHalt:
        ++top.pc;
        successors.push_back(std::move(state));
        return true;
    }
    return true;
  }

  // --- concrete replay ---------------------------------------------------------

  /// Runs the program concretely (zero inputs, devices unmapped -> reads
  /// fault and end the replay). Returns the line of a real assertion
  /// failure, or nullopt if none was confirmed.
  std::optional<int> replay() const {
    try {
      mem::AddressSpace memory(program_.memory_bytes());
      minic::ZeroInputProvider inputs;
      esw::Interpreter interp(program_, lowered_, memory, inputs);
      interp.run(options_.replay_steps);
      return std::nullopt;
    } catch (const esw::AssertionFailure& failure) {
      return failure.line();
    } catch (const mem::MemoryFault&) {
      return std::nullopt;  // touched unmodeled hardware: inconclusive
    } catch (const esw::RuntimeFault&) {
      return std::nullopt;
    }
  }

  const Program& program_;
  const esw::EswProgram& lowered_;
  const AbsRefOptions& options_;
  std::vector<Predicate> predicates_;
};

}  // namespace

const char* to_string(AbsRefResult::Status status) {
  switch (status) {
    case AbsRefResult::Status::kSafe: return "safe";
    case AbsRefResult::Status::kCounterexample: return "counterexample";
    case AbsRefResult::Status::kException: return "exception";
    case AbsRefResult::Status::kBudgetExceeded: return "budget-exceeded";
  }
  return "?";
}

AbsRefResult check_assertions(const Program& program,
                              const AbsRefOptions& options) {
  const esw::EswProgram lowered = esw::lower_program(program);
  return Analyzer(program, lowered, options).run();
}

}  // namespace esv::formal::absref
