// FLTL formula representation.
//
// FLTL (Finite Linear time Temporal Logic, Ruf et al., DATE 2001) is LTL
// extended with time bounds on the temporal operators: F[b] f ("f within b
// steps"), G[b] f ("f for the next b steps"), f U[b] g, X[n] f. The paper's
// SCTC translates properties in FLTL or a PSL subset into Accept/Reject
// automata; we do the same on top of this AST.
//
// Nodes are hash-consed through FormulaFactory: structurally equal formulas
// are the same pointer, so the progression-based monitor can detect revisited
// states by pointer identity and the AR-automaton synthesis terminates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace esv::temporal {

enum class Op : std::uint8_t {
  kTrue,
  kFalse,
  kProp,        // atomic proposition (named; evaluated by the checker)
  kNot,         // !f
  kAnd,         // f1 && f2 && ... (n-ary, flattened, sorted, deduplicated)
  kOr,          // f1 || f2 || ...
  kNext,        // X[n] f  (n >= 1; X == X[1])
  kEventually,  // F f, or F[b] f when bounded
  kAlways,      // G f, or G[b] f when bounded
  kUntil,       // f U g, or f U[b] g
  kRelease,     // f R g, or f R[b] g (dual of Until)
};

class Formula;
/// Formulas are interned: refer to them by pointer; the factory owns them.
using FormulaRef = const Formula*;

class Formula {
 public:
  Op op() const { return op_; }
  /// Unique, creation-ordered id; used for canonical operand ordering.
  std::uint32_t id() const { return id_; }
  /// Proposition name (kProp only).
  const std::string& prop_name() const { return prop_name_; }
  /// Proposition index assigned by the factory (kProp only).
  int prop_index() const { return prop_index_; }
  /// Operands (empty for kTrue/kFalse/kProp).
  std::span<const FormulaRef> operands() const { return operands_; }
  /// Bound: steps for kNext; window for kEventually/kAlways/kUntil/kRelease.
  /// nullopt means unbounded.
  std::optional<std::uint32_t> bound() const { return bound_; }

  bool is_constant() const { return op_ == Op::kTrue || op_ == Op::kFalse; }

  /// Canonical text form (FLTL syntax).
  std::string to_string() const;

 private:
  friend class FormulaFactory;
  Formula() = default;

  Op op_ = Op::kTrue;
  std::uint32_t id_ = 0;
  std::string prop_name_;
  int prop_index_ = -1;
  std::vector<FormulaRef> operands_;
  std::optional<std::uint32_t> bound_;
};

/// Evaluates propositions during progression: maps a proposition index to its
/// current truth value.
using PropValuation = std::function<bool(int prop_index)>;

/// Owns every formula node and provides hash-consing smart constructors with
/// built-in simplification (constant folding, flattening, idempotence,
/// complement detection).
class FormulaFactory {
 public:
  FormulaFactory();
  ~FormulaFactory();
  FormulaFactory(const FormulaFactory&) = delete;
  FormulaFactory& operator=(const FormulaFactory&) = delete;

  FormulaRef constant(bool value) const { return value ? true_ : false_; }

  /// Returns the (unique) proposition node for `name`, creating it and
  /// assigning the next proposition index on first use.
  FormulaRef prop(const std::string& name);
  /// The proposition node for `name`, or nullptr if it was never interned.
  FormulaRef find_prop(const std::string& name) const;

  FormulaRef not_(FormulaRef f);
  FormulaRef and_(std::vector<FormulaRef> fs);
  FormulaRef or_(std::vector<FormulaRef> fs);
  FormulaRef and_(FormulaRef a, FormulaRef b) { return and_({a, b}); }
  FormulaRef or_(FormulaRef a, FormulaRef b) { return or_({a, b}); }
  FormulaRef implies(FormulaRef a, FormulaRef b) { return or_(not_(a), b); }
  FormulaRef iff(FormulaRef a, FormulaRef b);
  FormulaRef next(FormulaRef f, std::uint32_t steps = 1);
  FormulaRef eventually(FormulaRef f,
                        std::optional<std::uint32_t> bound = std::nullopt);
  FormulaRef always(FormulaRef f,
                    std::optional<std::uint32_t> bound = std::nullopt);
  FormulaRef until(FormulaRef a, FormulaRef b,
                   std::optional<std::uint32_t> bound = std::nullopt);
  FormulaRef release(FormulaRef a, FormulaRef b,
                     std::optional<std::uint32_t> bound = std::nullopt);
  /// Weak until: a W b == (a U b) || G a, encoded as b R (a || b).
  FormulaRef weak_until(FormulaRef a, FormulaRef b);

  /// One step of formula progression: the returned formula must hold of the
  /// trace suffix starting at the *next* step, given the current values of
  /// the propositions. kTrue means the original formula is validated on the
  /// trace seen so far; kFalse means it is violated.
  FormulaRef progress(FormulaRef f, const PropValuation& values);

  /// Finite-trace verdict of a pending obligation when the trace ends here:
  /// there is no further state, so strong operators (X, F, U) fail, weak
  /// operators (G, R) pass, and literal constraints fail in either polarity
  /// (negations are pushed inward, NNF-style: both p and !p are false on
  /// the missing state). `negated` evaluates the formula under an enclosing
  /// negation.
  bool holds_on_empty(FormulaRef f, bool negated = false) const;

  /// All proposition indices occurring in `f`, ascending.
  std::vector<int> collect_prop_indices(FormulaRef f) const;
  /// All proposition names occurring in `f`, in index order.
  std::vector<std::string> collect_prop_names(FormulaRef f) const;

  /// Name of the proposition with the given index.
  const std::string& prop_name(int index) const;
  /// Number of distinct propositions interned so far.
  int prop_count() const { return static_cast<int>(props_by_index_.size()); }
  /// Number of distinct formula nodes interned (diagnostics, benches).
  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Key;
  struct KeyHash;
  struct KeyEq;

  FormulaRef intern(Formula node);
  void collect_props_rec(FormulaRef f, std::vector<int>& out) const;
  /// Bound subsumption within one conjunction/disjunction: merges temporal
  /// operators that differ only in their bound (e.g. F[3]f && F[7]f == F[3]f,
  /// F[3]f || F[7]f == F[7]f). Without this, progression of bounded-response
  /// properties accumulates one obligation per step and the AR-automaton
  /// state space explodes.
  void merge_bounded_operators(std::vector<FormulaRef>& operands,
                               bool conjunction);

  std::vector<std::unique_ptr<Formula>> nodes_;
  std::unordered_map<std::size_t, std::vector<FormulaRef>> buckets_;
  std::unordered_map<std::string, FormulaRef> props_;
  std::vector<FormulaRef> props_by_index_;
  FormulaRef true_ = nullptr;
  FormulaRef false_ = nullptr;
};

}  // namespace esv::temporal
