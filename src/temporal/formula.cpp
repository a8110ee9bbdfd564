#include "temporal/formula.hpp"

#include <algorithm>
#include <stdexcept>

namespace esv::temporal {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::size_t structural_hash(Op op, const std::string& prop_name,
                            const std::vector<FormulaRef>& operands,
                            std::optional<std::uint32_t> bound) {
  std::size_t h = static_cast<std::size_t>(op) * 0x100000001b3ULL;
  h = hash_combine(h, std::hash<std::string>{}(prop_name));
  for (FormulaRef f : operands) h = hash_combine(h, f->id());
  h = hash_combine(h, bound ? (*bound + 1) : 0);
  return h;
}

bool structurally_equal(const Formula& node, Op op, const std::string& prop_name,
                        const std::vector<FormulaRef>& operands,
                        std::optional<std::uint32_t> bound) {
  if (node.op() != op || node.bound() != bound) return false;
  if (node.prop_name() != prop_name) return false;
  const auto ops = node.operands();
  if (ops.size() != operands.size()) return false;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    if (ops[i] != operands[i]) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FormulaFactory

FormulaFactory::FormulaFactory() {
  Formula t;
  t.op_ = Op::kTrue;
  true_ = intern(std::move(t));
  Formula f;
  f.op_ = Op::kFalse;
  false_ = intern(std::move(f));
}

FormulaFactory::~FormulaFactory() = default;

FormulaRef FormulaFactory::intern(Formula node) {
  const std::size_t h =
      structural_hash(node.op_, node.prop_name_, node.operands_, node.bound_);
  auto& bucket = buckets_[h];
  for (FormulaRef existing : bucket) {
    if (structurally_equal(*existing, node.op_, node.prop_name_,
                           node.operands_, node.bound_)) {
      return existing;
    }
  }
  node.id_ = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::make_unique<Formula>(std::move(node)));
  FormulaRef ref = nodes_.back().get();
  bucket.push_back(ref);
  return ref;
}

FormulaRef FormulaFactory::find_prop(const std::string& name) const {
  const auto it = props_.find(name);
  return it == props_.end() ? nullptr : it->second;
}

FormulaRef FormulaFactory::prop(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("prop: empty name");
  if (FormulaRef existing = find_prop(name)) return existing;
  Formula node;
  node.op_ = Op::kProp;
  node.prop_name_ = name;
  node.prop_index_ = static_cast<int>(props_by_index_.size());
  FormulaRef ref = intern(std::move(node));
  props_.emplace(name, ref);
  props_by_index_.push_back(ref);
  return ref;
}

const std::string& FormulaFactory::prop_name(int index) const {
  return props_by_index_.at(static_cast<std::size_t>(index))->prop_name();
}

FormulaRef FormulaFactory::not_(FormulaRef f) {
  if (f->op() == Op::kTrue) return false_;
  if (f->op() == Op::kFalse) return true_;
  if (f->op() == Op::kNot) return f->operands()[0];  // double negation
  Formula node;
  node.op_ = Op::kNot;
  node.operands_ = {f};
  return intern(std::move(node));
}

FormulaRef FormulaFactory::and_(std::vector<FormulaRef> fs) {
  // Flatten nested conjunctions, drop `true`, fold `false`.
  std::vector<FormulaRef> flat;
  for (FormulaRef f : fs) {
    if (f->op() == Op::kFalse) return false_;
    if (f->op() == Op::kTrue) continue;
    if (f->op() == Op::kAnd) {
      for (FormulaRef g : f->operands()) flat.push_back(g);
    } else {
      flat.push_back(f);
    }
  }
  merge_bounded_operators(flat, /*conjunction=*/true);
  // Canonical order + idempotence.
  std::sort(flat.begin(), flat.end(),
            [](FormulaRef a, FormulaRef b) { return a->id() < b->id(); });
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  // Complement detection: f && !f == false.
  for (FormulaRef f : flat) {
    if (f->op() == Op::kNot) {
      FormulaRef pos = f->operands()[0];
      if (std::binary_search(flat.begin(), flat.end(), pos,
                             [](FormulaRef a, FormulaRef b) {
                               return a->id() < b->id();
                             })) {
        return false_;
      }
    }
  }
  if (flat.empty()) return true_;
  if (flat.size() == 1) return flat[0];
  Formula node;
  node.op_ = Op::kAnd;
  node.operands_ = std::move(flat);
  return intern(std::move(node));
}

FormulaRef FormulaFactory::or_(std::vector<FormulaRef> fs) {
  std::vector<FormulaRef> flat;
  for (FormulaRef f : fs) {
    if (f->op() == Op::kTrue) return true_;
    if (f->op() == Op::kFalse) continue;
    if (f->op() == Op::kOr) {
      for (FormulaRef g : f->operands()) flat.push_back(g);
    } else {
      flat.push_back(f);
    }
  }
  merge_bounded_operators(flat, /*conjunction=*/false);
  std::sort(flat.begin(), flat.end(),
            [](FormulaRef a, FormulaRef b) { return a->id() < b->id(); });
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  for (FormulaRef f : flat) {
    if (f->op() == Op::kNot) {
      FormulaRef pos = f->operands()[0];
      if (std::binary_search(flat.begin(), flat.end(), pos,
                             [](FormulaRef a, FormulaRef b) {
                               return a->id() < b->id();
                             })) {
        return true_;
      }
    }
  }
  if (flat.empty()) return false_;
  if (flat.size() == 1) return flat[0];
  Formula node;
  node.op_ = Op::kOr;
  node.operands_ = std::move(flat);
  return intern(std::move(node));
}

void FormulaFactory::merge_bounded_operators(std::vector<FormulaRef>& operands,
                                             bool conjunction) {
  // Group operands of the form OP[bound](args...) by (OP, args). For F and U
  // a smaller bound is the *stronger* formula; for G and R a larger bound is
  // stronger (with "no bound" strongest of all). In a conjunction the
  // stronger one subsumes the weaker; in a disjunction the weaker wins.
  struct GroupKey {
    Op op;
    FormulaRef first;
    FormulaRef second;
    bool operator==(const GroupKey&) const = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const {
      std::size_t h = static_cast<std::size_t>(k.op);
      h = hash_combine(h, reinterpret_cast<std::size_t>(k.first));
      h = hash_combine(h, reinterpret_cast<std::size_t>(k.second));
      return h;
    }
  };

  std::unordered_map<GroupKey, std::size_t, GroupKeyHash> group_pos;
  std::vector<FormulaRef> merged;
  merged.reserve(operands.size());
  for (FormulaRef f : operands) {
    const Op op = f->op();
    const bool mergeable = op == Op::kEventually || op == Op::kAlways ||
                           op == Op::kUntil || op == Op::kRelease;
    if (!mergeable) {
      merged.push_back(f);
      continue;
    }
    const auto ops = f->operands();
    GroupKey key{op, ops[0], ops.size() > 1 ? ops[1] : nullptr};
    auto [it, inserted] = group_pos.emplace(key, merged.size());
    if (inserted) {
      merged.push_back(f);
      continue;
    }
    FormulaRef other = merged[it->second];
    // "No bound" acts as +infinity.
    const auto as_inf = [](std::optional<std::uint32_t> b) {
      return b ? static_cast<std::uint64_t>(*b)
               : ~std::uint64_t{0};
    };
    const std::uint64_t bf = as_inf(f->bound());
    const std::uint64_t bo = as_inf(other->bound());
    // Strength direction: smaller bound is stronger for F/U, weaker for G/R.
    const bool smaller_is_stronger = op == Op::kEventually || op == Op::kUntil;
    const bool keep_f = conjunction == smaller_is_stronger ? bf < bo : bf > bo;
    if (keep_f) merged[it->second] = f;
  }
  operands = std::move(merged);
}

FormulaRef FormulaFactory::iff(FormulaRef a, FormulaRef b) {
  return or_(and_(a, b), and_(not_(a), not_(b)));
}

FormulaRef FormulaFactory::next(FormulaRef f, std::uint32_t steps) {
  if (steps == 0) return f;
  if (f->is_constant()) return f;  // X c == c under progression semantics
  if (f->op() == Op::kNext) {
    steps += f->bound().value();
    f = f->operands()[0];
  }
  Formula node;
  node.op_ = Op::kNext;
  node.operands_ = {f};
  node.bound_ = steps;
  return intern(std::move(node));
}

FormulaRef FormulaFactory::eventually(FormulaRef f,
                                      std::optional<std::uint32_t> bound) {
  if (f->is_constant()) return f;
  if (bound && *bound == 0) return f;  // F[0] f == f
  if (!bound && f->op() == Op::kEventually && !f->bound()) return f;  // FF == F
  Formula node;
  node.op_ = Op::kEventually;
  node.operands_ = {f};
  node.bound_ = bound;
  return intern(std::move(node));
}

FormulaRef FormulaFactory::always(FormulaRef f,
                                  std::optional<std::uint32_t> bound) {
  if (f->is_constant()) return f;
  if (bound && *bound == 0) return f;  // G[0] f == f
  if (!bound && f->op() == Op::kAlways && !f->bound()) return f;  // GG == G
  Formula node;
  node.op_ = Op::kAlways;
  node.operands_ = {f};
  node.bound_ = bound;
  return intern(std::move(node));
}

FormulaRef FormulaFactory::until(FormulaRef a, FormulaRef b,
                                 std::optional<std::uint32_t> bound) {
  if (b->is_constant()) return b;          // a U true == true; a U false == false
  if (a->op() == Op::kFalse) return b;     // false U b == b
  if (a->op() == Op::kTrue) return eventually(b, bound);  // true U b == F b
  if (bound && *bound == 0) return b;      // window of one step
  Formula node;
  node.op_ = Op::kUntil;
  node.operands_ = {a, b};
  node.bound_ = bound;
  return intern(std::move(node));
}

FormulaRef FormulaFactory::release(FormulaRef a, FormulaRef b,
                                   std::optional<std::uint32_t> bound) {
  if (b->is_constant()) return b;       // a R true == true; a R false == false
  if (a->op() == Op::kTrue) return b;   // true R b == b
  if (a->op() == Op::kFalse) return always(b, bound);  // false R b == G b
  if (bound && *bound == 0) return b;
  Formula node;
  node.op_ = Op::kRelease;
  node.operands_ = {a, b};
  node.bound_ = bound;
  return intern(std::move(node));
}

FormulaRef FormulaFactory::weak_until(FormulaRef a, FormulaRef b) {
  return release(b, or_(a, b));
}

FormulaRef FormulaFactory::progress(FormulaRef f, const PropValuation& values) {
  switch (f->op()) {
    case Op::kTrue:
    case Op::kFalse:
      return f;
    case Op::kProp:
      return constant(values(f->prop_index()));
    case Op::kNot:
      return not_(progress(f->operands()[0], values));
    case Op::kAnd: {
      std::vector<FormulaRef> parts;
      parts.reserve(f->operands().size());
      for (FormulaRef g : f->operands()) parts.push_back(progress(g, values));
      return and_(std::move(parts));
    }
    case Op::kOr: {
      std::vector<FormulaRef> parts;
      parts.reserve(f->operands().size());
      for (FormulaRef g : f->operands()) parts.push_back(progress(g, values));
      return or_(std::move(parts));
    }
    case Op::kNext: {
      const std::uint32_t n = f->bound().value();
      return next(f->operands()[0], n - 1);
    }
    case Op::kEventually: {
      FormulaRef now = progress(f->operands()[0], values);
      if (!f->bound()) return or_(now, f);
      const std::uint32_t b = *f->bound();
      if (b == 0) return now;  // unreachable: F[0] simplifies away
      return or_(now, eventually(f->operands()[0], b - 1));
    }
    case Op::kAlways: {
      FormulaRef now = progress(f->operands()[0], values);
      if (!f->bound()) return and_(now, f);
      const std::uint32_t b = *f->bound();
      if (b == 0) return now;
      return and_(now, always(f->operands()[0], b - 1));
    }
    case Op::kUntil: {
      FormulaRef pa = progress(f->operands()[0], values);
      FormulaRef pb = progress(f->operands()[1], values);
      FormulaRef cont;
      if (!f->bound()) {
        cont = f;
      } else if (*f->bound() == 0) {
        cont = constant(false);
      } else {
        cont = until(f->operands()[0], f->operands()[1], *f->bound() - 1);
      }
      return or_(pb, and_(pa, cont));
    }
    case Op::kRelease: {
      FormulaRef pa = progress(f->operands()[0], values);
      FormulaRef pb = progress(f->operands()[1], values);
      FormulaRef cont;
      if (!f->bound()) {
        cont = f;
      } else if (*f->bound() == 0) {
        cont = constant(true);  // window satisfied to its end
      } else {
        cont = release(f->operands()[0], f->operands()[1], *f->bound() - 1);
      }
      return and_(pb, or_(pa, cont));
    }
  }
  throw std::logic_error("progress: unknown operator");
}

namespace {

/// Negation-aware empty-suffix evaluation (see holds_on_empty). `negated`
/// tracks an enclosing odd number of negations, i.e. the node is evaluated
/// as if the formula were in negation normal form.
bool empty_eval(FormulaRef f, bool negated) {
  switch (f->op()) {
    case Op::kTrue:
      return !negated;
    case Op::kFalse:
      return negated;
    case Op::kProp:
      // There is no state to constrain: a literal fails in either polarity
      // (in NNF both p and !p are false on the empty suffix).
      return false;
    case Op::kNot:
      return empty_eval(f->operands()[0], !negated);
    case Op::kAnd: {
      // Under negation, !(a && b) == !a || !b.
      for (FormulaRef g : f->operands()) {
        const bool v = empty_eval(g, negated);
        if (negated && v) return true;
        if (!negated && !v) return false;
      }
      return !negated;
    }
    case Op::kOr: {
      for (FormulaRef g : f->operands()) {
        const bool v = empty_eval(g, negated);
        if (negated && !v) return false;
        if (!negated && v) return true;
      }
      return negated;
    }
    case Op::kNext:
    case Op::kEventually:
    case Op::kUntil:
      // Strong operators fail on the empty suffix; negated they are weak
      // (!F f == G !f) and hold.
      return negated;
    case Op::kAlways:
    case Op::kRelease:
      return !negated;  // weak operators hold vacuously; negated they fail
  }
  throw std::logic_error("holds_on_empty: unknown operator");
}

}  // namespace

bool FormulaFactory::holds_on_empty(FormulaRef f, bool negated) const {
  return empty_eval(f, negated);
}

void FormulaFactory::collect_props_rec(FormulaRef f,
                                       std::vector<int>& out) const {
  if (f->op() == Op::kProp) {
    out.push_back(f->prop_index());
    return;
  }
  for (FormulaRef g : f->operands()) collect_props_rec(g, out);
}

std::vector<int> FormulaFactory::collect_prop_indices(FormulaRef f) const {
  std::vector<int> out;
  collect_props_rec(f, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> FormulaFactory::collect_prop_names(
    FormulaRef f) const {
  std::vector<std::string> names;
  for (int idx : collect_prop_indices(f)) names.push_back(prop_name(idx));
  return names;
}

// ---------------------------------------------------------------------------
// Printing

namespace {

int precedence(Op op) {
  switch (op) {
    case Op::kOr: return 1;
    case Op::kAnd: return 2;
    case Op::kUntil:
    case Op::kRelease: return 3;
    case Op::kNot:
    case Op::kNext:
    case Op::kEventually:
    case Op::kAlways: return 4;
    default: return 5;  // atoms
  }
}

void print(const Formula& f, int parent_prec, std::string& out) {
  const int prec = precedence(f.op());
  const bool parens = prec < parent_prec;
  if (parens) out += "(";
  switch (f.op()) {
    case Op::kTrue: out += "true"; break;
    case Op::kFalse: out += "false"; break;
    case Op::kProp: out += f.prop_name(); break;
    case Op::kNot:
      out += "!";
      print(*f.operands()[0], precedence(Op::kNot) + 1, out);
      break;
    case Op::kAnd:
    case Op::kOr: {
      const char* sep = f.op() == Op::kAnd ? " && " : " || ";
      bool first = true;
      for (FormulaRef g : f.operands()) {
        if (!first) out += sep;
        first = false;
        print(*g, prec + 1, out);
      }
      break;
    }
    case Op::kNext:
      out += "X";
      if (f.bound().value() != 1) out += "[" + std::to_string(*f.bound()) + "]";
      out += " ";
      print(*f.operands()[0], prec, out);
      break;
    case Op::kEventually:
    case Op::kAlways:
      out += f.op() == Op::kEventually ? "F" : "G";
      if (f.bound()) out += "[" + std::to_string(*f.bound()) + "]";
      out += " ";
      print(*f.operands()[0], prec, out);
      break;
    case Op::kUntil:
    case Op::kRelease:
      print(*f.operands()[0], prec + 1, out);
      out += f.op() == Op::kUntil ? " U" : " R";
      if (f.bound()) out += "[" + std::to_string(*f.bound()) + "]";
      out += " ";
      print(*f.operands()[1], prec + 1, out);
      break;
  }
  if (parens) out += ")";
}

}  // namespace

std::string Formula::to_string() const {
  std::string out;
  print(*this, 0, out);
  return out;
}

}  // namespace esv::temporal
