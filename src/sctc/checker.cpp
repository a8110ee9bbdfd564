#include "sctc/checker.hpp"

#include <sstream>
#include <stdexcept>

namespace esv::sctc {

namespace {

bool compare(std::uint32_t lhs, Compare op, std::uint32_t rhs) {
  switch (op) {
    case Compare::kEq: return lhs == rhs;
    case Compare::kNe: return lhs != rhs;
    case Compare::kLt: return lhs < rhs;
    case Compare::kLe: return lhs <= rhs;
    case Compare::kGt: return lhs > rhs;
    case Compare::kGe: return lhs >= rhs;
  }
  return false;
}

std::size_t count_verdicts(const std::vector<PropertyRecord>& properties,
                           temporal::Verdict verdict) {
  std::size_t n = 0;
  for (const PropertyRecord& r : properties) {
    if (r.verdict() == verdict) ++n;
  }
  return n;
}

}  // namespace

const char* monitor_mode_name(MonitorMode mode) {
  switch (mode) {
    case MonitorMode::kProgression: return "progression";
    case MonitorMode::kCompiled: return "compiled";
    case MonitorMode::kBoth: return "both";
  }
  return "?";
}

std::optional<MonitorMode> parse_monitor_mode(std::string_view name) {
  if (name == "progression" || name == "interpreted") {
    return MonitorMode::kProgression;
  }
  if (name == "compiled") return MonitorMode::kCompiled;
  if (name == "both") return MonitorMode::kBoth;
  return std::nullopt;
}

std::string retired_monitor_mode_message(std::string_view name) {
  if (name != "automaton") return {};
  return "monitor mode \"automaton\" was retired; \"compiled\" runs the same "
         "synthesized AR-automaton";
}

FaultClass classify_under_fault(temporal::Verdict verdict, bool run_errored) {
  switch (verdict) {
    case temporal::Verdict::kValidated:
      return FaultClass::kHeldUnderFault;
    case temporal::Verdict::kViolated:
      return FaultClass::kViolatedUnderFault;
    case temporal::Verdict::kPending:
      // Undecided at end of run: a clean run means the property survived
      // the whole fault schedule; an aborted run means the monitor never
      // got to finish — that is an error, not a property result.
      return run_errored ? FaultClass::kMonitorError
                         : FaultClass::kHeldUnderFault;
  }
  return FaultClass::kMonitorError;
}

const char* fault_class_name(FaultClass fault_class) {
  switch (fault_class) {
    case FaultClass::kNotApplicable: return "n/a";
    case FaultClass::kHeldUnderFault: return "held";
    case FaultClass::kViolatedUnderFault: return "violated";
    case FaultClass::kMonitorError: return "monitor-error";
  }
  return "n/a";
}

bool MemoryWordProposition::is_true() {
  return compare(memory_->sctc_read_uint(address_), op_, value_);
}

temporal::Verdict PropertyRecord::verdict() const {
  // In kBoth mode the interpreted monitor is the oracle, so progression is
  // consulted first; compiled alone answers in kCompiled mode.
  if (progression) return progression->verdict();
  if (compiled.valid()) return compiled.verdict();
  return temporal::Verdict::kPending;
}

TemporalChecker::TemporalChecker(sim::Simulation& sim, std::string name,
                                 MonitorMode mode)
    : sim::Module(sim, std::move(name)),
      mode_(mode),
      own_plan_(std::make_shared<MonitorPlan>()),
      plan_(own_plan_) {}

TemporalChecker::~TemporalChecker() = default;

void TemporalChecker::register_proposition(
    const std::string& name, std::unique_ptr<Proposition> proposition) {
  if (!proposition) {
    throw std::invalid_argument("register_proposition: null proposition");
  }
  temporal::FormulaRef node = own_plan_ ? own_plan_->factory.prop(name)
                                        : formulas().find_prop(name);
  if (node == nullptr) {
    throw std::logic_error("register_proposition(" + name +
                           "): not a proposition of the frozen plan");
  }
  const auto index = static_cast<std::size_t>(node->prop_index());
  if (propositions_by_index_.size() <= index) {
    propositions_by_index_.resize(index + 1);
    value_cache_.resize(index + 1, 0);
    true_counts_.resize(index + 1, 0);
  }
  propositions_by_index_[index] = std::move(proposition);
}

void TemporalChecker::register_proposition(const std::string& name,
                                           std::function<bool()> predicate) {
  register_proposition(name,
                       std::make_unique<LambdaProposition>(std::move(predicate)));
}

temporal::FormulaFactory& TemporalChecker::factory() {
  if (!own_plan_) {
    throw std::logic_error("factory: the checker runs a frozen plan");
  }
  return own_plan_->factory;
}

std::size_t TemporalChecker::add_property(const std::string& name,
                                          const std::string& text,
                                          temporal::Dialect dialect) {
  if (!own_plan_) {
    throw std::logic_error("add_property(" + name +
                           "): the checker runs a frozen plan");
  }
  temporal::FormulaFactory& factory = own_plan_->factory;
  PlannedProperty planned;
  planned.name = name;
  planned.text = text;
  planned.dialect = dialect;
  planned.formula = temporal::parse_property(text, dialect, factory);

  // Every proposition must be backed by a registered evaluator.
  for (int prop_index : factory.collect_prop_indices(planned.formula)) {
    const auto idx = static_cast<std::size_t>(prop_index);
    if (idx >= propositions_by_index_.size() ||
        propositions_by_index_[idx] == nullptr) {
      throw std::runtime_error("add_property(" + name +
                               "): proposition \"" +
                               factory.prop_name(prop_index) +
                               "\" is not registered");
    }
  }

  if (mode_ == MonitorMode::kCompiled || mode_ == MonitorMode::kBoth) {
    // Synthesize, lower into the plan's flat tables, and drop the source
    // automaton: the compiled tables are self-contained.
    const temporal::ArAutomaton automaton =
        temporal::synthesize(factory, planned.formula);
    planned.automaton_states = automaton.state_count();
    planned.compiled = own_plan_->tables.compile(automaton, factory);
  }
  PropertyRecord record;
  static_cast<PlannedProperty&>(record) = planned;
  if (mode_ == MonitorMode::kProgression || mode_ == MonitorMode::kBoth) {
    record.progression = std::make_unique<temporal::ProgressionMonitor>(
        factory, record.formula);
  }
  own_plan_->properties.push_back(std::move(planned));
  if (record.verdict() == temporal::Verdict::kPending) ++pending_;
  properties_.push_back(std::move(record));
  return properties_.size() - 1;
}

std::shared_ptr<const MonitorPlan> TemporalChecker::freeze_plan() {
  if (mode_ != MonitorMode::kCompiled) {
    throw std::logic_error("freeze_plan: only a compiled-mode plan is frozen");
  }
  own_plan_.reset();
  return plan_;
}

void TemporalChecker::use_plan(std::shared_ptr<const MonitorPlan> plan) {
  if (mode_ != MonitorMode::kCompiled || !own_plan_ ||
      !propositions_by_index_.empty() || !properties_.empty()) {
    throw std::logic_error("use_plan: needs a fresh compiled-mode checker");
  }
  own_plan_.reset();
  plan_ = std::move(plan);
  properties_.resize(plan_->properties.size());
  for (std::size_t i = 0; i < properties_.size(); ++i) {
    static_cast<PlannedProperty&>(properties_[i]) = plan_->properties[i];
  }
  recount_pending();
}

void TemporalChecker::bind_trigger(sim::Event& trigger) {
  sim_.create_method(sub_name("trigger"), [this] { step_all(); }, {&trigger},
                     /*run_at_start=*/false);
}

void TemporalChecker::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_steps_ = nullptr;
    m_prop_changes_ = nullptr;
    m_transitions_ = nullptr;
    m_validated_ = nullptr;
    m_violated_ = nullptr;
    m_divergences_ = nullptr;
    m_decide_step_ = nullptr;
    return;
  }
  m_steps_ = &metrics->counter("sctc.steps");
  m_prop_changes_ = &metrics->counter("sctc.prop_changes");
  m_transitions_ = &metrics->counter("sctc.monitor_transitions");
  m_validated_ = &metrics->counter("sctc.validated");
  m_violated_ = &metrics->counter("sctc.violated");
  m_divergences_ = &metrics->counter("sctc.divergences");
  m_decide_step_ = &metrics->histogram("sctc.decide_step");
}

void TemporalChecker::evaluate_propositions() {
  // The step-1 valuation counts every proposition as a "change" (from
  // unknown), so a trace always opens with the full initial valuation.
  // Every proposition is evaluated exactly once per step; the packed
  // prop_word_ is what the compiled monitors index their transition tables
  // with (bit i = factory proposition index i).
  const bool observe = trace_ != nullptr || m_prop_changes_ != nullptr;
  temporal::PropWord word = 0;
  for (std::size_t i = 0; i < propositions_by_index_.size(); ++i) {
    if (propositions_by_index_[i]) {
      const char value = propositions_by_index_[i]->is_true() ? 1 : 0;
      if (observe && (steps_ == 1 || value != value_cache_[i])) {
        if (m_prop_changes_ != nullptr) m_prop_changes_->add();
        if (trace_ != nullptr) {
          trace_->prop_change(steps_, formulas().prop_name(static_cast<int>(i)),
                              value != 0);
        }
      }
      value_cache_[i] = value;
      if (value) {
        ++true_counts_[i];
        if (i < temporal::kMaxPropWordBits) {
          word |= temporal::PropWord{1} << i;
        }
      }
    }
  }
  prop_word_ = word;
}

temporal::PropValuation TemporalChecker::make_valuation() {
  return [this](int prop_index) {
    return value_cache_[static_cast<std::size_t>(prop_index)] != 0;
  };
}

void TemporalChecker::set_witness_depth(std::size_t depth) {
  witness_depth_ = depth;
  witness_.clear();
}

void TemporalChecker::record_witness() {
  if (witness_depth_ == 0) return;
  WitnessStep step;
  step.step = steps_;
  step.time = sim_.now();
  step.values.reserve(value_cache_.size());
  for (char v : value_cache_) step.values.push_back(v != 0);
  witness_.push_back(std::move(step));
  if (witness_.size() > witness_depth_) {
    witness_.erase(witness_.begin());
  }
}

std::string TemporalChecker::witness_table() const {
  std::ostringstream out;
  if (witness_.empty()) {
    out << "(no witness recorded; call set_witness_depth first)\n";
    return out.str();
  }
  // Header: one row per proposition, one column per recorded step.
  out << "step:";
  for (const WitnessStep& w : witness_) out << " " << w.step;
  out << "\n";
  for (int i = 0; i < formulas().prop_count(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (idx >= propositions_by_index_.size() ||
        propositions_by_index_[idx] == nullptr) {
      continue;
    }
    out << "  " << formulas().prop_name(i) << ":";
    for (const WitnessStep& w : witness_) {
      out << " " << (idx < w.values.size() && w.values[idx] ? "1" : ".");
    }
    out << "\n";
  }
  return out.str();
}

void TemporalChecker::step_all() {
  ++steps_;
  if (m_steps_ != nullptr) m_steps_->add();
  evaluate_propositions();
  record_witness();
  // Compiled monitors read prop_word_ directly; the closure-based valuation
  // is only materialized for the modes that interpret formulas.
  temporal::PropValuation valuation;
  if (mode_ != MonitorMode::kCompiled) valuation = make_valuation();
  bool violated_now = false;
  for (PropertyRecord& record : properties_) {
    if (record.verdict() != temporal::Verdict::kPending) continue;
    temporal::Verdict v;
    if (mode_ == MonitorMode::kBoth) {
      // Lockstep differential oracle: the compiled fast path must follow the
      // interpreted monitor transition for transition — same verdict and the
      // same pending obligation (compiled states map back to hash-consed
      // obligation formulas, so pointer equality is exact). The first
      // mismatch per property is recorded; verdicts stay the oracle's.
      v = record.progression->step(valuation);
      const temporal::Verdict compiled_verdict =
          record.compiled.step(prop_word_);
      if (!record.diverged &&
          (compiled_verdict != v ||
           record.compiled.obligation() != record.progression->current())) {
        record.diverged = true;
        std::ostringstream detail;
        detail << "property " << record.name << " diverged at step " << steps_
               << ": interpreted " << temporal::to_string(v) << " \""
               << record.progression->current()->to_string()
               << "\" vs compiled "
               << temporal::to_string(compiled_verdict) << " state "
               << record.compiled.state() << " \""
               << record.compiled.obligation()->to_string() << "\"";
        divergences_.push_back(detail.str());
        if (m_divergences_ != nullptr) m_divergences_->add();
        if (trace_ != nullptr) {
          trace_->monitor_divergence(steps_, record.name, divergences_.back());
        }
      }
    } else if (record.progression) {
      v = record.progression->step(valuation);
    } else {
      v = record.compiled.step(prop_word_);
    }
    if (trace_ != nullptr && record.compiled.valid()) {
      const std::uint32_t state = record.compiled.state();
      if (state != record.traced_state) {
        trace_->automaton_state(steps_, record.name, state);
        record.traced_state = state;
      }
    }
    if (v != temporal::Verdict::kPending) {
      --pending_;
      record.decided_at_step = steps_;
      record.decided_at_time = sim_.now();
      if (v == temporal::Verdict::kViolated) violated_now = true;
      if (m_transitions_ != nullptr) {
        m_transitions_->add();
        (v == temporal::Verdict::kViolated ? m_violated_ : m_validated_)
            ->add();
        m_decide_step_->record(steps_);
      }
      if (trace_ != nullptr) {
        trace_->monitor_transition(steps_, record.name, "pending",
                                   temporal::to_string(v));
      }
    }
  }
  if (violated_now && stop_on_violation_) sim_.stop();
}

std::vector<std::string> TemporalChecker::registered_proposition_names() const {
  std::vector<std::string> names;
  for (int i = 0; i < formulas().prop_count(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (idx < propositions_by_index_.size() &&
        propositions_by_index_[idx] != nullptr) {
      names.push_back(formulas().prop_name(i));
    }
  }
  return names;
}

std::vector<std::uint64_t> TemporalChecker::registered_proposition_true_counts()
    const {
  std::vector<std::uint64_t> counts;
  for (std::size_t i = 0; i < propositions_by_index_.size(); ++i) {
    if (propositions_by_index_[i] != nullptr) {
      counts.push_back(true_counts_[i]);
    }
  }
  return counts;
}

void TemporalChecker::reset_monitors() {
  steps_ = 0;
  prop_word_ = 0;
  divergences_.clear();
  for (std::uint64_t& count : true_counts_) count = 0;
  for (PropertyRecord& record : properties_) {
    if (record.progression) record.progression->reset();
    if (record.compiled.valid()) record.compiled.reset();
    record.diverged = false;
    record.decided_at_step = 0;
    record.decided_at_time = sim::Time::zero();
    record.traced_state = UINT32_MAX;
  }
  recount_pending();
}

void TemporalChecker::recount_pending() {
  pending_ = count_verdicts(properties_, temporal::Verdict::kPending);
}

void TemporalChecker::corrupt_compiled_for_test(std::size_t property_index,
                                                std::uint32_t state) {
  PropertyRecord& record = properties_.at(property_index);
  if (!record.compiled.valid()) {
    throw std::logic_error(
        "corrupt_compiled_for_test: property has no compiled monitor");
  }
  record.compiled.corrupt_state_for_test(state);
  recount_pending();
}

std::size_t TemporalChecker::validated_count() const {
  return count_verdicts(properties_, temporal::Verdict::kValidated);
}

std::size_t TemporalChecker::violated_count() const {
  return count_verdicts(properties_, temporal::Verdict::kViolated);
}

std::string TemporalChecker::report() const {
  std::ostringstream out;
  out << "SCTC " << name() << " after " << steps_ << " steps ("
      << monitor_mode_name(mode_) << " mode)\n";
  for (const std::string& divergence : divergences_) {
    out << "  MONITOR-ERROR " << divergence << "\n";
  }
  for (const auto& r : properties_) {
    out << "  [" << temporal::to_string(r.verdict()) << "] " << r.name << ": "
        << r.text;
    if (r.verdict() != temporal::Verdict::kPending) {
      out << "  (decided at step " << r.decided_at_step << ", t="
          << r.decided_at_time.to_string() << ")";
    }
    if (r.automaton_states != 0) {
      out << "  [" << r.automaton_states << " AR states]";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace esv::sctc
