// TemporalChecker: the SystemC Temporal Checker (SCTC) core.
//
// The checker owns a set of named Propositions and a set of temporal
// properties (FLTL or PSL). On every trigger — a microprocessor clock edge in
// the paper's first approach, the derived model's program-counter event in
// the second — it evaluates all propositions once and advances every pending
// property monitor by one temporal step.
//
// Monitors run in one of three modes, which produce identical verdicts:
//   kProgression  — lazy formula rewriting, no build cost (the "interpreted"
//                   mode)
//   kCompiled     — the paper's pipeline: the property is translated into an
//                   AR-automaton (IL) ahead of time and lowered into flat
//                   transition tables (temporal/compiled.hpp). Propositions
//                   are evaluated once per step into a uint64_t word, each
//                   monitor step is one dense state x word-class lookup, and
//                   steady-state stepping performs zero heap allocations.
//                   Generation time is part of the reported verification
//                   time, which is why the paper's TB-10000 column is
//                   dominated by AR-automaton generation.
//   kBoth         — interpreted and compiled monitors run in lockstep; any
//                   verdict or obligation divergence between them is
//                   recorded as a first-class monitor error
//                   (docs/MONITORS.md). The verdicts reported are the
//                   interpreted oracle's.
//
// What a checker's properties need before the first step — the factory the
// formulas are interned in, the compiled tables, and the per-property entries
// — is its MonitorPlan. add_property grows a private plan. A kCompiled
// checker can instead run a frozen plan shared with other checkers
// (use_plan): compiled stepping never writes the plan, so one plan serves
// every seed and thread of a campaign, and each checker holds only its own
// proposition evaluators and per-monitor state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sctc/proposition.hpp"
#include "sim/kernel.hpp"
#include "sim/module.hpp"
#include "temporal/automaton.hpp"
#include "temporal/compiled.hpp"
#include "temporal/monitor.hpp"
#include "temporal/parser.hpp"

namespace esv::sctc {

/// The values are digest-stable: the journal config digest and the serve
/// cache key hash them, so a mode keeps its number for good. Value 1
/// belonged to the retired `automaton` mode and stays unused.
enum class MonitorMode : std::uint8_t {
  kProgression = 0,
  kCompiled = 2,
  kBoth = 3,
};

/// Stable lower-case mode name ("progression" / "compiled" / "both"), used
/// by reports, the wire protocol, and the CLI.
const char* monitor_mode_name(MonitorMode mode);

/// Parses a mode name. Accepts the canonical names plus "interpreted" as an
/// alias for progression (the --monitor-mode spelling). Returns nullopt for
/// anything else.
std::optional<MonitorMode> parse_monitor_mode(std::string_view name);

/// For a mode name earlier versions accepted and this one retired
/// ("automaton"), the message every input path reports; empty otherwise.
std::string retired_monitor_mode_message(std::string_view name);

/// Robustness classification of a property verdict under fault injection.
/// Fault campaigns use it to separate software robustness bugs from
/// expected degradation:
///   kHeldUnderFault     — validated, or still undecided when the run ended
///                         cleanly: the property survived the faults
///   kViolatedUnderFault — the monitor reached a definitive violation while
///                         faults were being injected
///   kMonitorError       — the run aborted (SUT fault, watchdog timeout,
///                         infrastructure error) before the monitor decided;
///                         the verdict is unusable, not a property result
enum class FaultClass {
  kNotApplicable,  // nominal run, no faults configured
  kHeldUnderFault,
  kViolatedUnderFault,
  kMonitorError,
};

/// Classifies a final verdict from a fault-injection run. `run_errored` is
/// true when the run aborted before completing (error or timeout).
FaultClass classify_under_fault(temporal::Verdict verdict, bool run_errored);

/// Stable lower-case name ("held", "violated", "monitor-error", "n/a").
const char* fault_class_name(FaultClass fault_class);

/// What a property needs before its first step. Immutable once the plan
/// holding it is frozen.
struct PlannedProperty {
  std::string name;
  std::string text;
  temporal::Dialect dialect = temporal::Dialect::kFltl;
  temporal::FormulaRef formula = nullptr;
  /// Compiled monitor in its initial state (kCompiled / kBoth only); every
  /// checker steps its own copy.
  temporal::CompiledMonitor compiled;
  /// AR-automaton size (kCompiled / kBoth only).
  std::size_t automaton_states = 0;
};

/// The parsed properties of a checker in their factory (proposition index i
/// is the i-th registered proposition), their compiled tables, and one entry
/// per property in registration order. Not copyable or movable: compiled
/// handles and formulas point into it.
struct MonitorPlan {
  temporal::FormulaFactory factory;
  temporal::CompiledMonitorPool tables;
  std::vector<PlannedProperty> properties;
};

/// Per-property state and result.
struct PropertyRecord : PlannedProperty {
  // Active monitors depend on the checker's mode: progression alone
  // (kProgression), compiled alone (kCompiled), or progression + compiled
  // in lockstep (kBoth).
  std::unique_ptr<temporal::ProgressionMonitor> progression;
  /// kBoth only: the compiled fast path disagreed with the interpreted
  /// oracle at some step. The reported verdict stays the oracle's; the
  /// divergence itself is surfaced through TemporalChecker::divergences().
  bool diverged = false;

  /// Steps consumed when the verdict became final (0 while pending).
  std::uint64_t decided_at_step = 0;
  /// Simulation time when the verdict became final.
  sim::Time decided_at_time;
  /// Last AR-automaton state id written to the trace (tracing only).
  std::uint32_t traced_state = UINT32_MAX;

  temporal::Verdict verdict() const;
};

class TemporalChecker : public sim::Module {
 public:
  TemporalChecker(sim::Simulation& sim, std::string name,
                  MonitorMode mode = MonitorMode::kProgression);
  ~TemporalChecker() override;

  MonitorMode mode() const { return mode_; }

  /// Registers a named proposition. Properties refer to propositions by
  /// these names. Re-registering a name replaces the proposition. On a
  /// checker running a frozen plan, `name` must be one of the plan's
  /// propositions (throws std::logic_error otherwise).
  void register_proposition(const std::string& name,
                            std::unique_ptr<Proposition> proposition);
  /// Convenience: registers a LambdaProposition.
  void register_proposition(const std::string& name,
                            std::function<bool()> predicate);

  /// Parses and instantiates a property monitor into the checker's private
  /// plan. Every proposition the property mentions must already be
  /// registered (throws std::runtime_error otherwise). Throws
  /// std::logic_error once the plan is frozen. Returns the property index.
  std::size_t add_property(const std::string& name, const std::string& text,
                           temporal::Dialect dialect = temporal::Dialect::kFltl);

  /// Freezes this kCompiled checker's plan and returns it for sharing. The
  /// checker keeps its monitors but takes no further properties, and no
  /// proposition the plan lacks. Throws std::logic_error in other modes:
  /// progression interns new formulas while it steps.
  std::shared_ptr<const MonitorPlan> freeze_plan();
  /// Runs `plan` (from freeze_plan) in place of a private plan, each
  /// property on its own copy of the plan's initial compiled monitor. Only
  /// for a kCompiled checker with no propositions or properties yet
  /// (std::logic_error otherwise). Register the plan's propositions
  /// afterwards.
  void use_plan(std::shared_ptr<const MonitorPlan> plan);

  /// Binds the checker to a trigger event: a method process steps all
  /// monitors every time the event fires.
  void bind_trigger(sim::Event& trigger);

  /// Advances every pending monitor by one temporal step (called by the
  /// trigger, or manually in tests).
  void step_all();

  /// If set, the simulation stops as soon as any property is violated.
  void set_stop_on_violation(bool stop) { stop_on_violation_ = stop; }

  // --- observability (docs/OBSERVABILITY.md) ---
  /// Attaches a metrics registry: the checker bumps `sctc.steps`,
  /// `sctc.prop_changes`, `sctc.monitor_transitions`, `sctc.validated` /
  /// `sctc.violated`, and records decision steps into the
  /// `sctc.decide_step` histogram. Counter references are cached here, so
  /// the per-step cost is a handful of relaxed atomic adds. Pass nullptr to
  /// detach.
  void set_metrics(obs::MetricsRegistry* metrics);
  /// Attaches a JSONL tracer recording proposition value changes, monitor
  /// verdict transitions, and (in kCompiled / kBoth mode) AR-automaton state
  /// movement. Pass nullptr to detach.
  void set_trace(obs::TraceWriter* trace) { trace_ = trace; }

  /// Resets all monitors to their initial state (verdicts and step counts
  /// are cleared; propositions keep their own state).
  void reset_monitors();

  // --- differential oracle (kBoth; docs/MONITORS.md) ---
  /// Number of properties whose compiled monitor diverged from the
  /// interpreted oracle. Always 0 outside kBoth mode; any non-zero count is
  /// a monitor implementation bug, never a property result.
  std::size_t divergence_count() const { return divergences_.size(); }
  /// One deterministic description per diverged property (first divergence
  /// wins; later steps of an already-diverged monitor are not re-reported).
  const std::vector<std::string>& divergences() const { return divergences_; }
  /// Test hook: forces a property's compiled monitor into the given state so
  /// the divergence reporting path can be exercised (kCompiled/kBoth only).
  void corrupt_compiled_for_test(std::size_t property_index,
                                 std::uint32_t state);

  // --- results ---
  const std::vector<PropertyRecord>& properties() const { return properties_; }
  std::uint64_t steps() const { return steps_; }
  /// Properties still pending: a counter step_all() keeps, so the
  /// supervisor's per-step all_decided() does not scan the properties.
  std::size_t pending_count() const { return pending_; }
  std::size_t validated_count() const;
  std::size_t violated_count() const;
  bool any_violated() const { return violated_count() > 0; }
  bool all_decided() const { return pending_ == 0; }

  /// Multi-line result table.
  std::string report() const;

  // --- proposition coverage ---
  /// Names of all registered propositions, in factory index order.
  std::vector<std::string> registered_proposition_names() const;
  /// Number of steps in which each registered proposition evaluated to true
  /// (since construction / the last reset_monitors()), aligned index-by-index
  /// with registered_proposition_names(). Campaign runs merge these counts
  /// across seeds into a stimulus-coverage figure: a proposition that is
  /// never (or always) true points at a constraint set that cannot exercise
  /// the property.
  std::vector<std::uint64_t> registered_proposition_true_counts() const;

  /// The factory of the checker's private plan (exposed for tests and
  /// tooling, e.g. IL dumps). Throws std::logic_error once the plan is
  /// frozen or shared.
  temporal::FormulaFactory& factory();

  // --- witness traces ---
  /// Keeps a ring buffer of the last `depth` proposition valuations (0
  /// disables, the default). When a property is violated, the buffer shows
  /// the steps leading into the violation.
  void set_witness_depth(std::size_t depth);
  /// One recorded step: (step number, proposition values by factory index).
  struct WitnessStep {
    std::uint64_t step;
    sim::Time time;
    std::vector<bool> values;
  };
  const std::vector<WitnessStep>& witness() const { return witness_; }
  /// Renders the witness buffer as a small waveform-style table.
  std::string witness_table() const;

 private:
  temporal::PropValuation make_valuation();
  void evaluate_propositions();
  void record_witness();
  const temporal::FormulaFactory& formulas() const { return plan_->factory; }
  void recount_pending();

  MonitorMode mode_;
  // The plan stepping and naming read: own_plan_ while the checker grows a
  // private one, else a frozen (possibly shared) plan, and own_plan_ null.
  std::shared_ptr<MonitorPlan> own_plan_;
  std::shared_ptr<const MonitorPlan> plan_;
  std::vector<std::unique_ptr<Proposition>> propositions_by_index_;
  std::vector<PropertyRecord> properties_;
  std::vector<char> value_cache_;  // per-step proposition values
  temporal::PropWord prop_word_ = 0;  // same values, packed for compiled mode
  std::vector<std::uint64_t> true_counts_;  // per-proposition steps-true
  std::vector<std::string> divergences_;    // kBoth oracle mismatches
  std::uint64_t steps_ = 0;
  std::size_t pending_ = 0;  // properties whose verdict() is kPending
  bool stop_on_violation_ = false;
  std::size_t witness_depth_ = 0;
  std::vector<WitnessStep> witness_;

  // Observability sinks (all optional; cached counters avoid registry
  // lookups on the hot path).
  obs::TraceWriter* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_prop_changes_ = nullptr;
  obs::Counter* m_transitions_ = nullptr;
  obs::Counter* m_validated_ = nullptr;
  obs::Counter* m_violated_ = nullptr;
  obs::Counter* m_divergences_ = nullptr;
  obs::Histogram* m_decide_step_ = nullptr;
};

}  // namespace esv::sctc
