// Compiled monitors: flat transition tables stepped by dense lookup.
//
// The AR-automaton pipeline (automaton.hpp) already turns a property into an
// explicit Accept/Reject automaton, but AutomatonMonitor still evaluates the
// alphabet through a PropValuation closure per step, and every monitor owns
// its own heap-allocated state vectors. This layer lowers a synthesized
// automaton one stage further, into the shape ROADMAP item 1 asks for:
//
//   - Propositions are evaluated ONCE per step by the checker into a single
//     uint64_t PropWord (bit i = factory proposition index i).
//   - Each monitor's compiled form gathers its own propositions out of the
//     word into a *word class* — the local assignment index over just the
//     propositions the property mentions — and takes one dense table lookup:
//     next = table[state << bit_count | class].
//   - The tables live in a CompiledMonitorPool: transition rows, per-state
//     verdicts, end-of-trace verdicts, and gather specs, arena-allocated in
//     flat contiguous arrays. compile() appends to them; stepping only reads
//     them, so a pool nobody compiles into any more can serve any number of
//     monitors on any threads.
//   - A monitor's run state (current state, step count) lives in its
//     CompiledMonitor handle. A copy of a handle is an independent monitor
//     over the same tables: checkers that share a frozen plan each copy its
//     handles. Stepping performs zero heap allocations in steady state
//     (asserted under a counting allocator in
//     tests/monitor_compile_test.cpp).
//
// State numbering is preserved exactly from the source ArAutomaton, so a
// compiled monitor's state ids are directly comparable with AutomatonMonitor
// states and — through the per-state obligation formulas kept for oracle
// checks — with the ProgressionMonitor's pending obligation. The checker's
// `both` mode uses that correspondence to run the interpreted monitor as a
// permanent differential oracle for this fast path (docs/MONITORS.md).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "temporal/automaton.hpp"
#include "temporal/formula.hpp"
#include "temporal/monitor.hpp"

namespace esv::temporal {

/// One step's proposition values, bit i = value of factory prop index i.
using PropWord = std::uint64_t;

/// PropWord is a single machine word, so compiled monitors can only see the
/// first 64 factory proposition indices.
inline constexpr int kMaxPropWordBits = 64;

class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CompiledMonitorPool;

/// One compiled monitor: a read-only view of its tables in a pool, plus its
/// own run state (current automaton state and step count). Copyable; a copy
/// is an independent monitor over the same tables, starting from the
/// state the original had. The pool must outlive every handle into it.
class CompiledMonitor {
 public:
  CompiledMonitor() = default;

  bool valid() const { return pool_ != nullptr; }

  /// Advances by one step on the given proposition word. No-op once decided
  /// (the sinks self-loop). Never allocates.
  inline Verdict step(PropWord word);
  inline Verdict verdict() const;
  /// Finite-trace verdict if the trace ended now (precomputed per state at
  /// compile time from FormulaFactory::holds_on_empty).
  inline Verdict verdict_at_end() const;
  /// Current automaton state id (identical numbering to the source
  /// ArAutomaton).
  std::uint32_t state() const { return state_; }
  /// The pending obligation formula of the current state — the compiled
  /// counterpart of ProgressionMonitor::current(), used by the differential
  /// oracle for transition-level lockstep comparison.
  inline FormulaRef obligation() const;
  std::uint64_t steps() const { return steps_; }
  inline void reset();
  /// Test hook: forces this monitor into an arbitrary state so the `both`
  /// mode's divergence reporting can be exercised (a correct build never
  /// diverges on its own). Other handles over the same tables are unaffected.
  void corrupt_state_for_test(std::uint32_t state) { state_ = state; }

 private:
  friend class CompiledMonitorPool;
  CompiledMonitor(const CompiledMonitorPool* pool, std::uint32_t id,
                  std::uint32_t initial)
      : pool_(pool), id_(id), state_(initial) {}

  const CompiledMonitorPool* pool_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint32_t state_ = 0;
  std::uint64_t steps_ = 0;
};

/// The tables of a set of compiled monitors. compile() grows the arenas (and
/// is therefore not for the hot path); stepping only reads them.
class CompiledMonitorPool {
 public:
  CompiledMonitorPool() = default;
  CompiledMonitorPool(const CompiledMonitorPool&) = delete;
  CompiledMonitorPool& operator=(const CompiledMonitorPool&) = delete;

  /// Lowers a synthesized automaton into the pool and returns a monitor in
  /// its initial state. `factory` resolves the end-of-trace verdict of every
  /// state's obligation. Throws CompileError if the automaton reads a
  /// proposition index >= kMaxPropWordBits.
  CompiledMonitor compile(const ArAutomaton& automaton,
                          const FormulaFactory& factory);

  std::size_t monitor_count() const { return entries_.size(); }
  /// Total dense transition-table entries across all monitors (diagnostics).
  std::size_t table_entries() const { return table_.size(); }

 private:
  friend class CompiledMonitor;

  struct Entry {
    std::uint32_t table_off = 0;   // into table_
    std::uint32_t state_base = 0;  // into verdicts_/end_verdicts_/obligations_
    std::uint32_t bits_off = 0;    // into bit_sources_
    std::uint32_t bit_count = 0;   // propositions gathered from the word
    std::uint32_t initial = 0;
  };

  // Flat arenas shared by every monitor in the pool. table_ holds each
  // monitor's dense `state x class -> state` rows back to back; the three
  // per-state arrays are index-aligned at state_base + state.
  std::vector<std::uint32_t> table_;
  std::vector<std::uint8_t> verdicts_;      // Verdict per state
  std::vector<std::uint8_t> end_verdicts_;  // Verdict if the trace ends here
  std::vector<FormulaRef> obligations_;     // oracle mapping per state
  std::vector<std::uint8_t> bit_sources_;   // PropWord bit per local bit
  std::vector<Entry> entries_;
};

inline Verdict CompiledMonitor::step(PropWord word) {
  const CompiledMonitorPool::Entry& e = pool_->entries_[id_];
  const std::uint8_t* verdicts = pool_->verdicts_.data() + e.state_base;
  if (static_cast<Verdict>(verdicts[state_]) != Verdict::kPending) {
    return static_cast<Verdict>(verdicts[state_]);
  }
  ++steps_;
  const std::uint8_t* bits = pool_->bit_sources_.data() + e.bits_off;
  std::uint32_t word_class = 0;
  for (std::uint32_t i = 0; i < e.bit_count; ++i) {
    word_class |= static_cast<std::uint32_t>(word >> bits[i] & 1u) << i;
  }
  state_ = pool_->table_[e.table_off + (state_ << e.bit_count) + word_class];
  return static_cast<Verdict>(verdicts[state_]);
}

inline Verdict CompiledMonitor::verdict() const {
  const CompiledMonitorPool::Entry& e = pool_->entries_[id_];
  return static_cast<Verdict>(pool_->verdicts_[e.state_base + state_]);
}

inline Verdict CompiledMonitor::verdict_at_end() const {
  const CompiledMonitorPool::Entry& e = pool_->entries_[id_];
  return static_cast<Verdict>(pool_->end_verdicts_[e.state_base + state_]);
}

inline FormulaRef CompiledMonitor::obligation() const {
  const CompiledMonitorPool::Entry& e = pool_->entries_[id_];
  return pool_->obligations_[e.state_base + state_];
}

inline void CompiledMonitor::reset() {
  state_ = pool_->entries_[id_].initial;
  steps_ = 0;
}

}  // namespace esv::temporal
