#include "campaign/seed_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <new>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "esw/interpreter.hpp"

namespace esv::campaign {

namespace {

void configure_inputs(const spec::SpecFile& specfile,
                      stimulus::RandomInputProvider& inputs) {
  for (const auto& input : specfile.inputs) {
    if (input.is_chance) {
      inputs.set_chance(input.name, static_cast<std::uint32_t>(input.lo),
                        static_cast<std::uint32_t>(input.hi));
    } else {
      inputs.set_range(input.name, input.lo, input.hi);
    }
  }
}

std::string watchdog_message(double timeout_seconds) {
  // Deterministic text: mentions the configured budget, never the measured
  // time, so two timed-out runs of the same config render identically.
  std::ostringstream out;
  out << "watchdog: seed exceeded the " << timeout_seconds
      << "s wall-clock budget";
  return out.str();
}

std::string mem_ceiling_message(std::uint64_t limit_mb) {
  // Deterministic for the same reason: the configured ceiling, never the
  // failed allocation's size or address.
  return "memory ceiling: allocation failed under the " +
         std::to_string(limit_mb) + " MiB per-seed limit";
}

/// bad_alloc taxonomy: under a configured per-seed ceiling (esv-worker's
/// RLIMIT_AS guard) an exhausted address space is a *deterministic* property
/// of the software under test — retrying it would reproduce it — so it is
/// classified "sut". Without a ceiling it is genuine host memory pressure,
/// i.e. infrastructure, and eligible for the bounded retry policy.
void classify_bad_alloc(const CampaignConfig& config, SeedResult& result) {
  if (config.seed_mem_limit_mb != 0) {
    result.error = mem_ceiling_message(config.seed_mem_limit_mb);
    result.error_kind = "sut";
  } else {
    result.error = "allocation failed (std::bad_alloc)";
    result.error_kind = "infrastructure";
  }
}

/// Exponential backoff with deterministic jitter between infrastructure
/// retries (docs/RESILIENCE.md): attempt n waits ~10ms * 2^n capped at
/// 500ms, scaled into [50%, 100%] by a draw seeded from (seed, attempt) —
/// reproducible, and desynchronized across seeds so a pool of retrying
/// workers does not stampede whatever resource just failed.
void backoff_before_retry(std::uint64_t seed, unsigned attempt) {
  double delay = 0.010;
  for (unsigned i = 0; i < attempt && delay < 0.5; ++i) delay *= 2.0;
  if (delay > 0.5) delay = 0.5;
  common::Rng jitter(seed * 0x9E3779B97F4A7C15ULL + attempt + 1);
  delay *= 0.5 +
           0.5 * (static_cast<double>(jitter.next_below(1024)) / 1024.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

}  // namespace

CompiledProgram::CompiledProgram(const CampaignConfig& config)
    : program(minic::compile(config.program_source)) {
  if (config.approach == 2) {
    lowered = esw::lower_program(program);
  } else {
    image = cpu::compile_to_image(program);
  }
}

SeedStack::SeedStack(const CampaignConfig& config, const CampaignSetup& setup,
                     std::uint64_t seed, obs::MetricsRegistry* metrics,
                     obs::TraceWriter* trace)
    : seed(seed),
      memory(setup.program->program.memory_bytes()),
      inputs(seed),
      checker(sim, "sctc", config.mode),
      config_(config),
      metrics_(metrics),
      trace_(trace),
      deadline_(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        config.seed_timeout_seconds))) {
  configure_inputs(setup.specfile, inputs);
  if (!setup.plan.empty()) {
    faults.emplace(setup.plan, seed, config.fault_log_limit);
    faults->bind_memory(memory);
  }
  if (trace != nullptr) trace->seed_start(seed);
  sim.set_metrics(metrics);
  checker.set_metrics(metrics);
  checker.set_trace(trace);
  if (faults) {
    faults->set_metrics(metrics);
    faults->set_trace(trace);
  }
  const CompiledProgram& program = *setup.program;
  spec::apply_spec(setup.specfile, program.program, memory, checker);
  checker.set_stop_on_violation(true);
  if (config.witness_depth != 0) {
    checker.set_witness_depth(config.witness_depth);
  }

  // Registration order matters: the checker's trigger method is created
  // first, so on every step the monitors see the pre-fault state and the
  // supervisor's fault engine then injects for that step.
  if (config.approach == 2) {
    model_.emplace(sim, "esw", program.program, *program.lowered, memory,
                   inputs);
  } else {
    clock_.emplace(sim, "clk", sim::Time::ns(10));
    core_.emplace(sim, "cpu", *program.image, memory, inputs, *clock_);
    core_->set_stop_on_halt(true);
    if (faults) faults->bind_clock(*clock_);
  }
  checker.bind_trigger(step_event());
}

sim::Event& SeedStack::step_event() {
  return model_ ? model_->pc_event() : clock_->posedge_event();
}

void SeedStack::run() {
  // Cooperative wall-clock watchdog. A worker thread cannot be killed, so
  // the deadline is polled from the supervisor; the check runs every 1024
  // events to keep it off the hot path.
  const bool watchdog = config_.seed_timeout_seconds > 0.0;
  sim.create_method(
      "supervisor",
      [this, watchdog, watchdog_tick = std::uint32_t{0}]() mutable {
        if (faults) faults->on_step(checker.steps());
        if (watchdog && (++watchdog_tick & 1023u) == 0 &&
            std::chrono::steady_clock::now() >= deadline_) {
          timed_out_ = true;
          sim.stop();
          return;
        }
        const std::uint64_t executed =
            model_ ? model_->interpreter().steps_executed() : clock_->cycles();
        if ((model_ && model_->finished()) || checker.all_decided() ||
            executed >= config_.max_steps) {
          sim.stop();
        }
      },
      {&step_event()}, /*run_at_start=*/false);
  sim.run();
  if (model_) {
    finished_ = model_->finished();
    statements_ = model_->interpreter().steps_executed();
  } else {
    finished_ = core_->halted() && !core_->trapped();
    statements_ = clock_->cycles();
  }
}

std::string SeedStack::trap_message() const {
  return core_ && core_->trapped() ? core_->trap_message() : std::string();
}

void SeedStack::finish() {
  if (metrics_ != nullptr) {
    metrics_->counter("stimulus.draws").add(inputs.draw_count());
    metrics_->counter(model_ ? "esw.statements" : "cpu.cycles")
        .add(statements_);
  }
  if (trace_ != nullptr) {
    std::uint64_t validated = 0;
    std::uint64_t violated = 0;
    std::uint64_t pending = 0;
    for (const sctc::PropertyRecord& record : checker.properties()) {
      switch (record.verdict()) {
        case temporal::Verdict::kValidated: ++validated; break;
        case temporal::Verdict::kViolated: ++violated; break;
        case temporal::Verdict::kPending: ++pending; break;
      }
    }
    trace_->seed_end(seed, checker.steps(), validated, violated, pending);
  }
}

CampaignSetup prepare_campaign(const CampaignConfig& config) {
  const std::uint64_t jobs = std::max(1u, config.jobs);
  const std::uint64_t workers = std::max(1u, config.workers);  // 0: in process
  if (jobs * workers > kMaxParallelism) {
    throw ParallelismError(
        "campaign: " +
        (config.workers == 0 ? "jobs " + std::to_string(jobs)
                             : "workers x jobs " + std::to_string(workers) +
                                   " x " + std::to_string(jobs)) +
        " exceeds the limit of " + std::to_string(kMaxParallelism));
  }
  if (config.approach != 1 && config.approach != 2) {
    throw std::invalid_argument("campaign: approach must be 1 or 2");
  }
  if (config.seed_hi < config.seed_lo) {
    throw std::invalid_argument("campaign: empty seed range (hi < lo)");
  }

  CampaignSetup setup;
  setup.specfile = spec::parse_spec(config.spec_text);
  setup.plan = fault::parse_plan(config.fault_plan_text);
  for (const spec::FaultLineSpec& fl : setup.specfile.fault_lines) {
    setup.plan.entries.push_back(fault::parse_fault_line(fl.text, fl.line));
  }

  // The campaign's one compile, then a probe checker over it: surfaces
  // program compile errors, unresolvable propositions, and property parse
  // and synthesis errors, and fixes the property / proposition registration
  // order every seed will reproduce. In compiled mode the probe's plan is
  // frozen into the spec, so the properties are parsed, synthesized and
  // compiled once per campaign and every seed's apply_spec only binds its
  // propositions.
  setup.program = std::make_shared<const CompiledProgram>(config);
  const minic::Program& program = setup.program->program;
  mem::AddressSpace memory(setup.program->program.memory_bytes());
  sim::Simulation sim;
  sctc::TemporalChecker checker(sim, "sctc", config.mode);
  spec::apply_spec(setup.specfile, program, memory, checker);
  for (const sctc::PropertyRecord& record : checker.properties()) {
    setup.property_names.push_back(record.name);
  }
  setup.proposition_names = checker.registered_proposition_names();
  if (config.mode == sctc::MonitorMode::kCompiled) {
    setup.specfile.monitor_plan = checker.freeze_plan();
  }

  // Resolve memory-fault targets once, against the campaign's compile, so
  // resolution errors surface before any worker starts.
  setup.plan.resolve([&program](const std::string& name,
                                std::uint32_t& address) {
    const minic::GlobalVar* global = program.find_global(name);
    if (global == nullptr || global->is_array) return false;
    address = global->address;
    return true;
  });
  if (!setup.plan.empty()) setup.plan_digest = setup.plan.digest();
  return setup;
}

SeedRunner::SeedRunner(const CampaignConfig& config,
                       const CampaignSetup& setup)
    : config_(config), setup_(setup) {
  if (const char* env = std::getenv("ESV_CAMPAIGN_TEST_DIVERGE_SEED")) {
    diverge_seed_ = common::parse_u64(env);  // malformed: no seed diverges
  }
}

SeedResult SeedRunner::run_attempt(std::uint64_t seed) {
  const auto started = std::chrono::steady_clock::now();
  SeedResult result;
  result.seed = seed;
  const CampaignConfig& config = config_;

  // Observability sinks are per seed: a private registry and tracer, so no
  // cross-thread state exists and the snapshots/traces are pure functions of
  // (config, seed) — the campaign merges them deterministically afterwards.
  std::optional<obs::MetricsRegistry> metrics;
  if (config.collect_metrics) metrics.emplace();
  const bool tracing = config.capture_traces || !config.trace_dir.empty();
  obs::TraceWriter trace;
  SeedStack stack(config, setup_, seed, metrics ? &*metrics : nullptr,
                  tracing ? &trace : nullptr);
  const sctc::TemporalChecker& checker = stack.checker;

  // Test-only divergence hook: when the variable names this seed (and the
  // mode carries compiled monitors), property 0's compiled monitor is forced
  // one state off the interpreted oracle, producing a deterministic
  // "monitor"-kind error capture. Lets resume/retry tests prove that monitor
  // errors are journaled and never re-run without patching the checker.
  if (diverge_seed_ == seed && config.mode == sctc::MonitorMode::kBoth &&
      !checker.properties().empty()) {
    const sctc::PropertyRecord& record = checker.properties().front();
    if (record.automaton_states > 1) {
      stack.checker.corrupt_compiled_for_test(
          0, (record.compiled.state() + 1) % record.automaton_states);
    }
  }

  try {
    stack.run();
    result.finished = stack.finished();
    result.statements = stack.statements();
    if (const std::string trap = stack.trap_message(); !trap.empty()) {
      result.error = "CPU trapped: " + trap;
      result.error_kind = "sut";
    }
  } catch (const esw::AssertionFailure& e) {
    // Faults of the software under test: the verdicts reached so far are
    // still reported, and the campaign carries on.
    result.error = e.what();
    result.error_kind = "sut";
  } catch (const esw::RuntimeFault& e) {
    result.error = e.what();
    result.error_kind = "sut";
  } catch (const mem::MemoryFault& e) {
    result.error = e.what();
    result.error_kind = "sut";
  } catch (const std::bad_alloc&) {
    classify_bad_alloc(config, result);
  } catch (const std::exception& e) {
    // Anything else escaping the verification stack is an infrastructure
    // error — eligible for the bounded retry policy in run_seed().
    result.error = e.what();
    result.error_kind = "infrastructure";
  }
  if (stack.timed_out()) {
    result.error = watchdog_message(config.seed_timeout_seconds);
    result.error_kind = "timeout";
    result.finished = false;
  }
  // kBoth differential oracle: a compiled monitor disagreeing with the
  // interpreted oracle is a first-class result — a monitor implementation
  // bug, never a property verdict and never retried (it is deterministic
  // for the seed, so a retry would just reproduce it).
  if (checker.divergence_count() != 0 && result.error.empty()) {
    result.error = "monitor divergence: " + checker.divergences().front();
    if (checker.divergence_count() > 1) {
      result.error += " (+" +
                      std::to_string(checker.divergence_count() - 1) +
                      " more)";
    }
    result.error_kind = "monitor";
  }

  const bool run_errored = !result.error.empty();
  for (const sctc::PropertyRecord& record : checker.properties()) {
    PropertyOutcome outcome;
    outcome.verdict = record.verdict();
    outcome.decided_at_step = record.decided_at_step;
    if (!setup_.plan.empty()) {
      // A diverged monitor's verdict is unusable regardless of how the run
      // ended; pin it to the monitor-error class explicitly.
      outcome.fault_class =
          record.diverged
              ? sctc::FaultClass::kMonitorError
              : sctc::classify_under_fault(outcome.verdict, run_errored);
    }
    result.properties.push_back(outcome);
  }
  result.steps = checker.steps();
  result.draws = stack.inputs.draw_count();
  // Factory indices are assigned in registration order, which apply_spec
  // fixes to the spec-file order — identical for every seed, so the counts
  // align across seeds (and with CampaignReport::coverage) by position.
  result.prop_true_counts = checker.registered_proposition_true_counts();
  if (config.witness_depth != 0 && checker.any_violated()) {
    result.witness = checker.witness_table();
  }
  if (stack.faults) {
    result.injected_faults = stack.faults->injected_count();
    result.fault_log = stack.faults->log_text();
  }
  stack.finish();
  if (metrics) result.metrics = metrics->snapshot();
  if (tracing) result.trace_jsonl = trace.text();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

SeedResult SeedRunner::run_seed(std::uint64_t seed) {
  SeedResult result;
  // Bounded retry: only infrastructure errors are retried — a fault of
  // the software under test is a result, and a timeout would only burn
  // another full timeout's worth of wall clock.
  for (unsigned attempt = 0;; ++attempt) {
    // Timed out here too so attempts that die before run_attempt's own
    // stamp (a bad_alloc while building the address space, say) still
    // carry a duration into the report's error capture.
    const auto attempt_started = std::chrono::steady_clock::now();
    try {
      result = run_attempt(seed);
    } catch (const std::bad_alloc&) {
      result = SeedResult{};
      result.seed = seed;
      classify_bad_alloc(config_, result);
    } catch (const std::exception& e) {
      result = SeedResult{};
      result.seed = seed;
      result.error = e.what();
      result.error_kind = "infrastructure";
    } catch (...) {
      result = SeedResult{};
      result.seed = seed;
      result.error = "unknown exception";
      result.error_kind = "infrastructure";
    }
    if (result.wall_ms == 0.0) {
      result.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - attempt_started)
                           .count();
    }
    result.attempts = attempt + 1;
    if (result.error_kind != "infrastructure" ||
        attempt >= config_.seed_retries) {
      break;
    }
    backoff_before_retry(seed, attempt);
  }
  // Errored seeds in a fault campaign carry the plan digest so the crash
  // report alone pins down the reproducing `--seed=N --faults=...` run.
  if (!result.error.empty() && !setup_.plan_digest.empty()) {
    result.fault_plan_digest = setup_.plan_digest;
  }
  return result;
}

bool cancel_requested(const CampaignConfig& config) {
  return config.cancel != nullptr &&
         config.cancel->load(std::memory_order_relaxed);
}

std::optional<std::chrono::steady_clock::time_point> campaign_deadline(
    const CampaignConfig& config, std::chrono::steady_clock::time_point start) {
  if (config.campaign_timeout_seconds <= 0.0) return std::nullopt;
  return start +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(config.campaign_timeout_seconds));
}

SeedSlots::SeedSlots(const CampaignConfig& config, const CampaignSetup& setup,
                     CampaignReport& report)
    : config_(config),
      setup_(setup),
      report_(report),
      filled_(report.seeds.size(), 0) {
  for (const SeedResult& recovered : config.resume_results) {
    if (recovered.seed < config.seed_lo || recovered.seed > config.seed_hi) {
      continue;
    }
    const std::uint64_t index = recovered.seed - config.seed_lo;
    if (!filled(index)) fill(index, recovered);
  }
}

void SeedSlots::fill(std::uint64_t index, SeedResult result) {
  report_.seeds[index] = std::move(result);
  filled_[index] = 1;
  ++filled_count_;
}

void SeedSlots::fill_error(std::uint64_t index, std::string error,
                           unsigned crashes) {
  SeedResult result;
  result.seed = config_.seed_lo + index;
  result.error = std::move(error);
  result.error_kind = "infrastructure";
  result.attempts = std::max(1u, crashes);
  result.fault_plan_digest = setup_.plan_digest;
  fill(index, std::move(result));
}

void SeedSlots::run_in_process(
    unsigned jobs,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  if (complete()) return;
  std::atomic<std::uint64_t> cursor{0};
  // Each claimed index belongs to one thread, so threads write disjoint
  // slots and mask bytes; filled_count_ is recounted after the join.
  const auto worker = [&] {
    SeedRunner runner(config_, setup_);
    for (;;) {
      // A cancel and the deadline both stop claiming; the seed in flight
      // finishes, and capture_unfinished() takes the rest.
      if (cancel_requested(config_)) break;
      if (deadline && std::chrono::steady_clock::now() >= *deadline) break;
      const std::uint64_t index =
          cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= size()) break;
      if (filled_[index]) continue;
      SeedResult& slot = report_.seeds[index];
      slot = runner.run_seed(config_.seed_lo + index);
      filled_[index] = 1;
      if (config_.on_result) config_.on_result(slot);
    }
  };
  // The calling thread is one of the workers, so jobs <= 1 starts none.
  const std::uint64_t threads = std::min<std::uint64_t>(jobs, unfilled());
  std::vector<std::thread> pool;
  for (std::uint64_t i = 1; i < threads; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  filled_count_ = static_cast<std::uint64_t>(
      std::count(filled_.begin(), filled_.end(), 1));
}

std::uint64_t SeedSlots::capture_unfinished(
    bool cancelled, const std::vector<unsigned>& crashes) {
  const char* error =
      cancelled ? "campaign: cancelled"
                : "campaign: wall-clock deadline exceeded (--campaign-timeout)";
  std::uint64_t captured = 0;
  for (std::uint64_t index = 0; index < size(); ++index) {
    if (filled_[index]) continue;
    fill_error(index, error, index < crashes.size() ? crashes[index] : 0);
    ++captured;
  }
  if (captured != 0) {
    (cancelled ? report_.cancelled : report_.deadline_exceeded) = true;
  }
  return captured;
}

CampaignReport make_report_skeleton(const CampaignConfig& config,
                                    const CampaignSetup& setup) {
  CampaignReport report;
  report.seed_lo = config.seed_lo;
  report.seed_hi = config.seed_hi;
  report.approach = config.approach;
  report.mode = config.mode;
  report.max_steps = config.max_steps;
  report.fault_campaign = !setup.plan.empty();
  report.fault_plan_entries = setup.plan.entries.size();
  report.property_names = setup.property_names;
  report.seeds.resize(config.seed_hi - config.seed_lo + 1);
  return report;
}

void finalize_report(const CampaignConfig& config, const CampaignSetup& setup,
                     CampaignReport& report) {
  // Deterministic aggregation: walk the seed slots in ascending seed order
  // on the calling thread.
  report.coverage.clear();
  report.per_property.clear();
  for (const std::string& name : setup.proposition_names) {
    PropositionCoverage cov;
    cov.name = name;
    report.coverage.push_back(std::move(cov));
  }
  for (const std::string& name : report.property_names) {
    PropertyAggregate agg;
    agg.name = name;
    report.per_property.push_back(std::move(agg));
  }
  for (const SeedResult& seed : report.seeds) {
    bool seed_violated = false;
    for (std::size_t p = 0; p < seed.properties.size(); ++p) {
      switch (seed.properties[p].verdict) {
        case temporal::Verdict::kValidated:
          ++report.per_property[p].validated;
          ++report.validated_total;
          break;
        case temporal::Verdict::kViolated:
          ++report.per_property[p].violated;
          ++report.violated_total;
          seed_violated = true;
          if (!report.per_property[p].first_violation_seed) {
            report.per_property[p].first_violation_seed = seed.seed;
          }
          break;
        case temporal::Verdict::kPending:
          ++report.per_property[p].pending;
          ++report.pending_total;
          break;
      }
      switch (seed.properties[p].fault_class) {
        case sctc::FaultClass::kNotApplicable:
          break;
        case sctc::FaultClass::kHeldUnderFault:
          ++report.per_property[p].held_under_fault;
          ++report.held_under_fault_total;
          break;
        case sctc::FaultClass::kViolatedUnderFault:
          ++report.per_property[p].violated_under_fault;
          ++report.violated_under_fault_total;
          break;
        case sctc::FaultClass::kMonitorError:
          ++report.per_property[p].monitor_errors;
          ++report.monitor_error_total;
          break;
      }
    }
    if (seed_violated) ++report.violated_seeds;
    if (!seed.error.empty()) {
      ++report.error_seeds;
      if (seed.error_kind == "timeout") ++report.timeout_seeds;
    }
    if (seed.attempts > 1) ++report.retried_seeds;
    report.injected_faults_total += seed.injected_faults;
    for (std::size_t i = 0;
         i < seed.prop_true_counts.size() && i < report.coverage.size(); ++i) {
      report.coverage[i].true_steps += seed.prop_true_counts[i];
    }
    for (PropositionCoverage& cov : report.coverage) {
      cov.total_steps += seed.steps;
    }
    report.total_steps += seed.steps;
    report.total_statements += seed.statements;
    report.total_draws += seed.draws;
  }
  if (config.collect_metrics) {
    report.has_metrics = true;
    for (const SeedResult& seed : report.seeds) {
      report.metrics.merge(seed.metrics);
    }
    report.metrics.counters["campaign.seeds"] = report.seeds.size();
  }
  if (!config.trace_dir.empty()) {
    // Trace files are written here, on the calling thread after all results
    // are in and in ascending seed order, so the on-disk bytes are as
    // scheduling-independent as the in-memory results.
    std::filesystem::create_directories(config.trace_dir);
    for (const SeedResult& seed : report.seeds) {
      const std::filesystem::path path =
          std::filesystem::path(config.trace_dir) /
          ("seed_" + std::to_string(seed.seed) + ".trace.jsonl");
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << seed.trace_jsonl;
      if (!out) {
        throw std::runtime_error("campaign: cannot write trace file " +
                                 path.string());
      }
    }
  }
}

}  // namespace esv::campaign
