#include "esw/interpreter.hpp"

namespace esv::esw {

using minic::BinaryOp;
using minic::Expr;
using minic::RefKind;
using minic::UnaryOp;

Interpreter::Interpreter(const minic::Program& program,
                         const EswProgram& lowered, mem::AddressSpace& memory,
                         minic::InputProvider& inputs)
    : program_(program), lowered_(lowered), memory_(memory), inputs_(inputs) {
  reset();
}

void Interpreter::init_globals() {
  for (const auto& g : program_.globals) {
    for (std::uint32_t i = 0; i < g.words; ++i) {
      const std::int32_t v =
          i < g.init.size() ? g.init[i] : 0;
      memory_.write_word(g.address + i * 4, static_cast<std::uint32_t>(v));
    }
  }
}

void Interpreter::reset() {
  frames_.clear();
  steps_ = 0;
  init_globals();
  const minic::Function* main_fn = program_.find_function("main");
  push_frame(*main_fn, {}, /*result_slot=*/-1);
}

void Interpreter::push_frame(const minic::Function& fn,
                             const std::vector<std::uint32_t>& args,
                             int result_slot) {
  const LoweredFunction& lowered_fn = lowered_.function_of(fn);
  Frame frame;
  frame.fn = &lowered_fn;
  frame.slots.assign(static_cast<std::size_t>(lowered_fn.frame_slots), 0);
  for (std::size_t i = 0; i < args.size(); ++i) frame.slots[i] = args[i];
  frame.result_slot = result_slot;
  frames_.push_back(std::move(frame));
}

std::uint32_t Interpreter::global_address(const std::string& name) const {
  const minic::GlobalVar* g = program_.find_global(name);
  if (g == nullptr) {
    throw std::invalid_argument("unknown global '" + name + "'");
  }
  return g->address;
}

std::uint32_t Interpreter::global(const std::string& name) const {
  return memory_.sctc_read_uint(global_address(name));
}

std::uint64_t Interpreter::run(std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (executed < max_steps && step()) ++executed;
  return executed;
}

bool Interpreter::step() {
  if (frames_.empty()) return false;
  Frame* frame = &frames_.back();

  // Structural jumps are free: resolve them before executing the step.
  while (frame->fn->ops[frame->pc].kind == EswOp::Kind::kJump) {
    frame->pc = frame->fn->ops[frame->pc].jump_true;
  }

  const EswOp& op = frame->fn->ops[frame->pc];
  ++steps_;

  switch (op.kind) {
    case EswOp::Kind::kSetFname: {
      memory_.write_word(
          program_.fname_address,
          static_cast<std::uint32_t>(op.callee->index + 1));
      ++frame->pc;
      break;
    }
    case EswOp::Kind::kEval: {
      const std::uint32_t value = eval(*op.expr, *frame);
      if (op.target != nullptr) store(*op.target, value, *frame);
      ++frame->pc;
      break;
    }
    case EswOp::Kind::kCondJump: {
      frame->pc = eval(*op.expr, *frame) != 0 ? op.jump_true : op.jump_false;
      break;
    }
    case EswOp::Kind::kSwitchJump: {
      const auto selector = static_cast<std::int64_t>(
          static_cast<std::int32_t>(eval(*op.expr, *frame)));
      std::size_t target = op.switch_default;
      for (const auto& entry : op.switch_targets) {
        if (entry.value == selector) {
          target = entry.target;
          break;
        }
      }
      frame->pc = target;
      break;
    }
    case EswOp::Kind::kCall: {
      std::vector<std::uint32_t> args;
      args.reserve(op.args.size());
      for (const Expr* arg : op.args) args.push_back(eval(*arg, *frame));
      ++frame->pc;  // continue after the call when the callee returns
      push_frame(*op.callee, args, op.result_slot);
      break;
    }
    case EswOp::Kind::kReturn: {
      const std::uint32_t value =
          op.expr != nullptr ? eval(*op.expr, *frame) : 0;
      const int result_slot = frame->result_slot;
      frames_.pop_back();
      if (!frames_.empty()) {
        if (result_slot >= 0) {
          frames_.back().slots[static_cast<std::size_t>(result_slot)] = value;
        }
        // Restore the caller's fname: the paper's instrumentation updates
        // fname "in each function context", so returning re-enters the
        // caller's context.
        memory_.write_word(
            program_.fname_address,
            static_cast<std::uint32_t>(
                frames_.back().fn->source->index + 1));
      }
      break;
    }
    case EswOp::Kind::kAssert: {
      if (eval(*op.expr, *frame) == 0) {
        throw AssertionFailure(op.line, steps_);
      }
      ++frame->pc;
      break;
    }
    case EswOp::Kind::kAssume: {
      // A violated assumption means the stimulus left the constrained
      // space: the run ends quietly (all frames unwound, finished()).
      if (eval(*op.expr, *frame) == 0) {
        frames_.clear();
        break;
      }
      ++frame->pc;
      break;
    }
    case EswOp::Kind::kJump:
    case EswOp::Kind::kHalt:
      // kJump handled above; kHalt never emitted.
      ++frame->pc;
      break;
  }

  // One statement == one device tick (the derived model's time base).
  memory_.tick_devices();
  return !frames_.empty();
}

std::uint32_t Interpreter::eval(const Expr& e, Frame& frame) {
  switch (e.kind) {
    case Expr::Kind::kIntLit:
    case Expr::Kind::kBoolLit:
      return static_cast<std::uint32_t>(e.value);
    case Expr::Kind::kVarRef:
      switch (e.ref) {
        case RefKind::kLocal:
          return frame.slots[static_cast<std::size_t>(e.slot)];
        case RefKind::kGlobal:
          return memory_.read_word(e.address);
        case RefKind::kConst:
          return static_cast<std::uint32_t>(e.value);
        case RefKind::kUnresolved:
          break;
      }
      throw RuntimeFault("unresolved variable '" + e.name + "'", e.line);
    case Expr::Kind::kIndex: {
      const std::uint32_t index = eval(*e.children[0], frame);
      return memory_.read_word(e.address + index * 4);
    }
    case Expr::Kind::kUnary: {
      const std::uint32_t v = eval(*e.children[0], frame);
      switch (e.unary_op) {
        case UnaryOp::kNot: return v == 0 ? 1u : 0u;
        case UnaryOp::kNeg: return static_cast<std::uint32_t>(-static_cast<std::int32_t>(v));
        case UnaryOp::kBitNot: return ~v;
      }
      return 0;
    }
    case Expr::Kind::kBinary: {
      // Short-circuit forms must not evaluate the right side eagerly.
      if (e.binary_op == BinaryOp::kLogicalAnd) {
        if (eval(*e.children[0], frame) == 0) return 0;
        return eval(*e.children[1], frame) != 0 ? 1u : 0u;
      }
      if (e.binary_op == BinaryOp::kLogicalOr) {
        if (eval(*e.children[0], frame) != 0) return 1;
        return eval(*e.children[1], frame) != 0 ? 1u : 0u;
      }
      const std::uint32_t a = eval(*e.children[0], frame);
      const std::uint32_t b = eval(*e.children[1], frame);
      const auto sa = static_cast<std::int32_t>(a);
      const auto sb = static_cast<std::int32_t>(b);
      switch (e.binary_op) {
        case BinaryOp::kMul: return a * b;
        case BinaryOp::kDiv:
          if (b == 0) throw RuntimeFault("division by zero", e.line);
          return static_cast<std::uint32_t>(sa / sb);
        case BinaryOp::kMod:
          if (b == 0) throw RuntimeFault("modulo by zero", e.line);
          return static_cast<std::uint32_t>(sa % sb);
        case BinaryOp::kAdd: return a + b;
        case BinaryOp::kSub: return a - b;
        case BinaryOp::kShl: return a << (b & 31u);
        case BinaryOp::kShr: return a >> (b & 31u);
        case BinaryOp::kLt: return sa < sb ? 1u : 0u;
        case BinaryOp::kLe: return sa <= sb ? 1u : 0u;
        case BinaryOp::kGt: return sa > sb ? 1u : 0u;
        case BinaryOp::kGe: return sa >= sb ? 1u : 0u;
        case BinaryOp::kEq: return a == b ? 1u : 0u;
        case BinaryOp::kNe: return a != b ? 1u : 0u;
        case BinaryOp::kBitAnd: return a & b;
        case BinaryOp::kBitXor: return a ^ b;
        case BinaryOp::kBitOr: return a | b;
        case BinaryOp::kLogicalAnd:
        case BinaryOp::kLogicalOr:
          break;  // handled above
      }
      return 0;
    }
    case Expr::Kind::kTernary:
      return eval(*e.children[0], frame) != 0 ? eval(*e.children[1], frame)
                                              : eval(*e.children[2], frame);
    case Expr::Kind::kMemRead:
      // Direct memory access through the virtual memory model.
      return memory_.read_word(eval(*e.children[0], frame));
    case Expr::Kind::kInput:
      return inputs_.input(e.input_id, e.name);
    case Expr::Kind::kCall:
      // Calls were extracted into kCall ops by the lowering pass.
      throw RuntimeFault("internal: call survived lowering", e.line);
  }
  throw RuntimeFault("internal: unknown expression", e.line);
}

void Interpreter::store(const Expr& target, std::uint32_t value,
                        Frame& frame) {
  switch (target.kind) {
    case Expr::Kind::kVarRef:
      if (target.ref == RefKind::kLocal) {
        frame.slots[static_cast<std::size_t>(target.slot)] = value;
        return;
      }
      if (target.ref == RefKind::kGlobal) {
        memory_.write_word(target.address, value);
        return;
      }
      break;
    case Expr::Kind::kIndex: {
      const std::uint32_t index = eval(*target.children[0], frame);
      memory_.write_word(target.address + index * 4, value);
      return;
    }
    case Expr::Kind::kMemRead:
      memory_.write_word(eval(*target.children[0], frame), value);
      return;
    default:
      break;
  }
  throw RuntimeFault("invalid store target", target.line);
}

}  // namespace esv::esw
