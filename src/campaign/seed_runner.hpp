// Per-seed campaign execution, factored out of the thread-pool runner so the
// in-process pool (campaign::run), the out-of-process worker shards
// (src/dist/, tools/esv-worker) and the single run of esv-verify execute
// seeds through exactly the same code path. Determinism across deployment
// shapes — any --jobs count, any --workers count, or the plain in-process
// runner — follows from this sharing: a SeedResult is a pure function of
// (CampaignConfig, seed) regardless of which process or thread computed it.
//
// Split of responsibilities:
//   prepare_campaign()    validate the whole configuration once (spec parse,
//                         program compile, fault-plan parse + resolve,
//                         property probe) and, in compiled mode, freeze the
//                         monitor plan every seed shares; throws on
//                         configuration errors before any seed runs
//   CompiledProgram       the campaign's one compile of the program: built by
//                         prepare_campaign and shared read-only by every
//                         thread, worker compute thread and single run
//   SeedStack             the one place a seed's stack is wired: memory,
//                         stimulus, faults, kernel, checker with the spec
//                         applied, ESW model or clock + CPU, and supervisor
//   SeedRunner            one per worker thread; runs each seed's SeedStack
//                         with error classification and the bounded
//                         infrastructure-retry policy
//   SeedSlots             a seed slot's life: resume fill, the in-process
//                         claim loop, and the capture of slots a cancel or
//                         deadline left unfinished — shared by the pool and
//                         the broker's degraded fallback
//   make_report_skeleton  the config-echo half of a CampaignReport
//   finalize_report       deterministic aggregation over report.seeds in
//                         ascending seed order, metrics merge, and trace_dir
//                         file writing — shared by the pool and the broker
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hpp"
#include "cpu/codegen.hpp"
#include "cpu/cpu.hpp"
#include "esw/esw_model.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "mem/address_space.hpp"
#include "minic/sema.hpp"
#include "sctc/checker.hpp"
#include "sim/clock.hpp"
#include "spec/specfile.hpp"
#include "stimulus/random_inputs.hpp"

namespace esv::campaign {

/// The campaign's compile of its program. The interpreter, the ESW model and
/// the CPU take the AST, the lowering and the code image by const& and only
/// read them, so one instance serves every thread of a process.
struct CompiledProgram {
  explicit CompiledProgram(const CampaignConfig& config);

  minic::Program program;
  std::optional<esw::EswProgram> lowered;  // approach 2
  std::optional<cpu::CodeImage> image;     // approach 1
};

/// Validated, immutable, shareable campaign state. One instance serves every
/// worker thread of a process; workers never mutate it.
struct CampaignSetup {
  /// Held by pointer: the lowering and the code image point into the
  /// minic::Program, so it must never move.
  std::shared_ptr<const CompiledProgram> program;
  spec::SpecFile specfile;  // with the frozen monitor plan in compiled mode
  fault::FaultPlan plan;  // merged --faults + spec fault lines, resolved
  std::vector<std::string> property_names;
  std::vector<std::string> proposition_names;
  /// FaultPlan::digest() of the resolved plan; empty on nominal campaigns.
  /// Stamped into SeedResult::fault_plan_digest of every errored seed so a
  /// crash report names the exact plan needed to reproduce it.
  std::string plan_digest;
};

/// Bound on a campaign's parallelism: jobs, workers, and workers x jobs (0
/// counts as 1). Every path that starts threads or processes for a campaign
/// runs prepare_campaign first, so no command line or wire frame can ask for
/// more.
constexpr unsigned kMaxParallelism = 1024;

/// prepare_campaign's refusal of a jobs or workers count past
/// kMaxParallelism.
class ParallelismError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Validates the configuration (parallelism, approach, seed range, spec,
/// program, fault plan) and resolves everything that can fail before a
/// single seed runs. Throws ParallelismError, spec::SpecError,
/// minic::SemaError, fault::FaultPlanError, std::invalid_argument, ... on
/// configuration errors.
CampaignSetup prepare_campaign(const CampaignConfig& config);

/// Everything one seed runs on. Construction builds the stack with the spec
/// applied and the checker bound to the step event; run() adds the
/// supervisor and runs the kernel. `setup` and the optional metrics and
/// trace sinks must outlive the stack. Callers keep what is their own: error
/// classification and retries (SeedRunner), waveforms, text output and exit
/// codes (esv-verify).
class SeedStack {
 public:
  SeedStack(const CampaignConfig& config, const CampaignSetup& setup,
            std::uint64_t seed, obs::MetricsRegistry* metrics,
            obs::TraceWriter* trace);
  SeedStack(const SeedStack&) = delete;
  SeedStack& operator=(const SeedStack&) = delete;

  /// The ESW model's pc event or the clock's posedge. Methods added on it
  /// before run() see the same pre-fault state as the checker.
  sim::Event& step_event();
  /// Adds the supervisor (fault step, watchdog poll, stop when the program
  /// finished, every property decided, or the budget ran out) and runs the
  /// kernel. Faults of the software under test propagate as exceptions.
  void run();

  /// Outcome of a run() that returned (false / 0 when it threw): the
  /// program ran to completion; statements (approach 2) or cycles executed.
  bool finished() const { return finished_; }
  std::uint64_t statements() const { return statements_; }
  /// The seed watchdog (config.seed_timeout_seconds) stopped the run.
  bool timed_out() const { return timed_out_; }
  /// The CPU's trap message (approach 1); empty when it did not trap.
  std::string trap_message() const;
  /// Adds the stimulus and statement counters to the metrics registry and
  /// ends the trace.
  void finish();

  const std::uint64_t seed;
  mem::AddressSpace memory;
  stimulus::RandomInputProvider inputs;
  std::optional<fault::FaultEngine> faults;
  sim::Simulation sim;
  sctc::TemporalChecker checker;

 private:
  const CampaignConfig& config_;
  obs::MetricsRegistry* metrics_;
  obs::TraceWriter* trace_;
  std::chrono::steady_clock::time_point deadline_;
  std::optional<esw::EswModel> model_;  // approach 2
  std::optional<sim::Clock> clock_;     // approach 1
  std::optional<cpu::Cpu> core_;        // approach 1
  bool finished_ = false;
  bool timed_out_ = false;
  std::uint64_t statements_ = 0;
};

/// One per worker thread; `config` and `setup` must outlive it.
class SeedRunner {
 public:
  SeedRunner(const CampaignConfig& config, const CampaignSetup& setup);
  SeedRunner(const SeedRunner&) = delete;
  SeedRunner& operator=(const SeedRunner&) = delete;

  /// Runs one seed under the bounded retry policy: infrastructure errors are
  /// retried up to config.seed_retries times, SUT faults and timeouts are
  /// results. Never throws; every failure is captured in the SeedResult.
  SeedResult run_seed(std::uint64_t seed);

 private:
  SeedResult run_attempt(std::uint64_t seed);

  const CampaignConfig& config_;
  const CampaignSetup& setup_;
  /// ESV_CAMPAIGN_TEST_DIVERGE_SEED, read once (see run_attempt).
  std::optional<std::uint64_t> diverge_seed_;
};

/// config.cancel is set and flipped true.
bool cancel_requested(const CampaignConfig& config);

/// The instant config.campaign_timeout_seconds after `start`; nullopt when
/// the campaign has no deadline.
std::optional<std::chrono::steady_clock::time_point> campaign_deadline(
    const CampaignConfig& config, std::chrono::steady_clock::time_point start);

/// The seed slots of one campaign: report.seeds (one per seed, index =
/// seed - seed_lo) and which of them hold a result. `config`, `setup` and
/// `report` must outlive it.
class SeedSlots {
 public:
  /// Resume fill: each in-range config.resume_results entry fills its slot
  /// (the first per seed wins). Results are pure functions of (config,
  /// seed), so a resumed slot is never re-run and never re-journaled.
  SeedSlots(const CampaignConfig& config, const CampaignSetup& setup,
            CampaignReport& report);
  SeedSlots(const SeedSlots&) = delete;
  SeedSlots& operator=(const SeedSlots&) = delete;

  std::uint64_t size() const { return filled_.size(); }
  std::uint64_t unfilled() const { return size() - filled_count_; }
  bool complete() const { return filled_count_ == size(); }
  bool filled(std::uint64_t index) const { return filled_[index] != 0; }
  /// Stores `result` in the unfilled slot `index`.
  void fill(std::uint64_t index, SeedResult result);
  /// Fills slot `index` with an "infrastructure" error, the plan digest and
  /// attempts = max(1, crashes): the seed never finished a run.
  void fill_error(std::uint64_t index, std::string error, unsigned crashes);

  /// In-process claim loop: runs the unfilled slots on min(jobs, unfilled())
  /// threads, the calling thread among them (jobs <= 1 starts none).
  /// Claiming stops once config.cancel is set or `deadline` passes; a
  /// running seed finishes. config.on_result runs once per fresh result, on
  /// the thread that computed it.
  void run_in_process(
      unsigned jobs,
      std::optional<std::chrono::steady_clock::time_point> deadline);

  /// Unfinished-slot capture: each unfilled slot becomes a fill_error()
  /// naming the cancel or the deadline, with crashes[index] (0 when
  /// `crashes` is empty), and the report's matching flag is set. These are
  /// never journaled, so a --resume recomputes them. Returns how many slots
  /// were captured.
  std::uint64_t capture_unfinished(bool cancelled,
                                   const std::vector<unsigned>& crashes = {});

 private:
  const CampaignConfig& config_;
  const CampaignSetup& setup_;
  CampaignReport& report_;
  std::vector<char> filled_;
  std::uint64_t filled_count_ = 0;
};

/// Fills the configuration-echo fields of a report (seed range, approach,
/// mode, property names, fault-campaign header) and pre-sizes the seed slots.
CampaignReport make_report_skeleton(const CampaignConfig& config,
                                    const CampaignSetup& setup);

/// Aggregates report.seeds (which must hold one slot per seed, ascending) on
/// the calling thread: per-property tallies, merged coverage, totals, the
/// merged metrics snapshot, and the trace_dir files. Byte-identical output
/// for any schedule that produced the same per-seed results.
void finalize_report(const CampaignConfig& config, const CampaignSetup& setup,
                     CampaignReport& report);

}  // namespace esv::campaign
