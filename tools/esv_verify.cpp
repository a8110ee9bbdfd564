// esv-verify — command-line front end for the library.
//
// Verifies temporal properties of a mini-C program under either of the
// paper's approaches:
//
//   esv-verify program.c spec.esv [options]
//
//     --approach=1|2       microprocessor model | derived ESW model (default 2)
//     --max-steps=N        statement/cycle budget (default 1,000,000)
//     --seed=S             stimulus seed (default 1)
//     --mode=progression   monitor mode (default progression)
//     --monitor-mode=interpreted|compiled|both
//                          full monitor-mode spelling (docs/MONITORS.md):
//                          "interpreted" is the progression rewriter,
//                          "compiled" the synthesized AR-automaton lowered
//                          into flat transition tables, "both" runs the two
//                          in lockstep and reports any divergence as a
//                          monitor error (exit 3)
//     --vcd=FILE           dump a waveform of all propositions
//     --witness=N          keep the last N steps as a violation witness
//     --faults=FILE        inject faults from a fault plan (docs/FAULTS.md)
//     --metrics=FILE       write run metrics as JSON (docs/OBSERVABILITY.md)
//     --trace=FILE         write the JSONL event trace (single runs only)
//     --quiet              only print the final verdict table
//
//   Campaign mode (docs/CAMPAIGN.md) replaces the single run by a
//   multi-seed sweep with deterministic aggregation:
//     --campaign=LO..HI    verify every seed in [LO, HI] (inclusive)
//     --jobs=N             campaign worker threads (default 1)
//     --workers=N          out-of-process worker shards (docs/DISTRIBUTED.md);
//                          total parallelism is workers x jobs
//     --report=FILE        write the JSON campaign report to FILE
//     --report-timing=on|off  include the wall-clock fields in --report
//                          (default on; off makes the file byte-identical
//                          across runs, jobs, and workers counts)
//     --trace-dir=DIR      write each seed's JSONL trace to DIR
//     --seed-timeout=SECS  per-seed wall-clock watchdog (default off)
//     --seed-retries=N     retries for infrastructure errors (default 0)
//     --seed-mem-limit=MB  per-seed address-space ceiling, enforced by the
//                          worker shards (requires --workers; docs/JOURNAL.md)
//     --journal=FILE       write-ahead journal of finished seeds
//                          (docs/JOURNAL.md)
//     --journal-sync=record|batch|none   journal fsync policy (default batch)
//     --resume             replay FILE, skip the seeds it already holds, and
//                          re-run only the rest; the final report is byte-
//                          identical to an uninterrupted run
//     --campaign-timeout=SECS  whole-campaign wall-clock deadline: past it
//                          the run aborts in a structured way (unfinished
//                          seeds become deterministic infrastructure
//                          captures, the report is flagged, exit 3)
//     --chaos=PLAN         self-chaos (docs/RESILIENCE.md): PLAN is a chaos
//                          plan file, or inline directives when no such
//                          file exists; infrastructure faults are injected
//                          deterministically into the wire, worker, and
//                          journal layers of this run
//     --chaos-seed=N       salt for the chaos schedule (default 1)
//   In campaign mode --metrics writes the merged per-seed metrics (byte-
//   identical for any --jobs and --workers); --vcd and --trace are
//   single-run only, --workers/--trace-dir/--journal/--chaos campaign-only.
//   --jobs, --workers and workers x jobs are bounded by 1024.
//
// Numeric values are strict (src/common/flags.hpp): digits only, so a sign,
// whitespace, trailing bytes, an empty value or an overflow is refused with
// the flag's message rather than misread.
//
// Exit code: 0 when no property is violated, 1 on violation (in campaign
// mode: any violated or errored seed), 2 on usage or input errors, 3 when
// the verification run itself fails at runtime (simulation or interpreter
// error escaping the configured run) or a --campaign-timeout deadline
// aborts the campaign.
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/seed_runner.hpp"
#include "chaos/chaos.hpp"
#include "common/flags.hpp"
#include "dist/broker.hpp"
#include "journal/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/vcd.hpp"

namespace {

using namespace esv;
namespace sctc = esv::sctc;

struct Options {
  std::string program_path;
  std::string spec_path;
  /// Filled by the flags that map onto it; the single run overrides the
  /// seed range with --seed.
  campaign::CampaignConfig config;
  bool campaign = false;  // --campaign was given
  std::uint64_t seed = 1;
  std::string vcd_path;
  bool quiet = false;
  std::string faults_path;
  std::string metrics_path;
  std::string trace_path;
  std::string report_path;
  bool report_timing = true;
  std::string journal_path;
  journal::SyncPolicy journal_sync = journal::SyncPolicy::kBatch;
  bool resume = false;
  std::string chaos_spec;  // file path or inline plan text
  std::uint64_t chaos_seed = 1;
};

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  campaign::CampaignConfig& config = options.config;
  common::FlagTable flags(
      [](const std::string& arg) { return "unknown option " + arg; });
  // Entries with rules come first, in the order their rules are checked.
  // Campaign-only flags refuse a single run by name, so a mistaken
  // invocation fails loudly (exit 2) instead of ignoring the flag.
  flags.text("--vcd", options.vcd_path)
      .rule("--campaign", false, "--vcd is not available in campaign mode");
  flags.text("--trace", options.trace_path)
      .rule("--campaign", false, "--trace is not available in campaign mode");
  flags.text("--trace-dir", config.trace_dir).campaign_only();
  flags.number("--jobs", config.jobs, "--jobs must be a positive integer", 1)
      .campaign_only();
  flags.text("--report", options.report_path).campaign_only();
  flags
      .choice<bool>(
          "--report-timing", options.report_timing,
          [](std::string_view value) -> std::optional<bool> {
            if (value == "on" || value == "off") return value == "on";
            return std::nullopt;
          },
          "--report-timing must be on or off")
      .campaign_only();
  flags.seconds("--seed-timeout", config.seed_timeout_seconds,
                "--seed-timeout must be a non-negative number of seconds")
      .campaign_only();
  flags.number("--seed-retries", config.seed_retries,
               "--seed-retries must be an integer")
      .campaign_only();
  flags.number("--workers", config.workers,
               "--workers must be a positive integer", 1)
      .campaign_only();
  flags.text("--journal", options.journal_path, "--journal expects a file path")
      .campaign_only();
  flags.toggle("--resume", options.resume).needs("--journal");
  flags.choice("--journal-sync", options.journal_sync,
               journal::parse_sync_policy,
               "--journal-sync must be record, batch, or none")
      .needs("--journal");
  flags.number("--seed-mem-limit", config.seed_mem_limit_mb,
               "--seed-mem-limit must be a positive number of MiB", 1)
      .rule("--workers", true,
            "--seed-mem-limit requires --workers (the ceiling is enforced "
            "per worker shard)");
  flags.seconds("--campaign-timeout", config.campaign_timeout_seconds,
                "--campaign-timeout must be a non-negative number of seconds")
      .zero_means_off()
      .campaign_only();
  flags.text("--chaos", options.chaos_spec,
             "--chaos expects a plan file or inline directives")
      .campaign_only();
  flags.number("--chaos-seed", options.chaos_seed,
               "--chaos-seed must be an integer")
      .needs("--chaos");
  flags.number("--approach", config.approach, "--approach must be 1 or 2", 1,
               2);
  flags.number("--max-steps", config.max_steps,
               "--max-steps must be an integer");
  flags.number("--seed", options.seed, "--seed must be an integer");
  // Both mode flags answer a retired mode name with the retirement notice.
  const auto mode = [&](const char* flag, auto parse, const char* usage) {
    flags.add(flag, usage,
              [&config, flag, parse](
                  std::string_view value,
                  std::string& error) -> std::optional<bool> {
                if (const std::optional<sctc::MonitorMode> parsed =
                        parse(value)) {
                  config.mode = *parsed;
                  return true;
                }
                const std::string retired =
                    sctc::retired_monitor_mode_message(value);
                if (!retired.empty()) error = flag + (": " + retired);
                return std::nullopt;
              });
  };
  mode(
      "--mode",
      [](std::string_view value) -> std::optional<sctc::MonitorMode> {
        if (value == "progression") return sctc::MonitorMode::kProgression;
        return std::nullopt;
      },
      "--mode must be progression");
  mode("--monitor-mode", sctc::parse_monitor_mode,
       "--monitor-mode must be interpreted (progression), compiled, or both");
  flags.range("--campaign", config.seed_lo, config.seed_hi,
              "--campaign expects a seed range LO..HI", 0, false,
              "--campaign: empty seed range (HI < LO)");
  flags.text("--faults", options.faults_path);
  flags.text("--metrics", options.metrics_path);
  flags.number("--witness", config.witness_depth,
               "--witness must be an integer");
  flags.toggle("--quiet", options.quiet);

  std::vector<std::string> positional;
  if (!flags.parse(argc, argv, &positional, error)) return false;
  if (positional.size() != 2) {
    error = "usage: esv-verify <program.c> <spec.esv> [options]";
    return false;
  }
  if (!flags.check(error)) return false;
  options.campaign = flags.given("--campaign");
  options.program_path = positional[0];
  options.spec_path = positional[1];
  return true;
}

std::string read_file(const std::string& path) {
  if (std::optional<std::string> text = common::read_file(path)) return *text;
  throw std::runtime_error("cannot open " + path);
}

// Opens an output file (nothing for an empty path). Sinks are opened before
// the run so an unwritable path is a configuration error (exit 2), not a
// lost run.
std::ofstream open_output(const std::string& path) {
  std::ofstream out;
  if (path.empty()) return out;
  out.open(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << error << "\n";
    return 2;
  }

  try {
    campaign::CampaignConfig& config = options.config;
    config.program_source = read_file(options.program_path);
    config.spec_text = read_file(options.spec_path);
    if (!options.faults_path.empty()) {
      config.fault_plan_text = read_file(options.faults_path);
    }

    if (options.campaign) {
      // --report always carries the metrics block, so a report request is
      // enough to turn collection on.
      config.collect_metrics =
          !options.metrics_path.empty() || !options.report_path.empty();

      // Self-chaos (docs/RESILIENCE.md). --chaos=PLAN names a plan file, or
      // carries inline directives when no such file exists. Parse errors are
      // configuration errors (exit 2). The orchestrator-side engine installs
      // before the journal opens so the journal fault points cover the
      // header write too; worker processes get their own engines through the
      // environment the broker forwards.
      const std::string chaos_text =
          options.chaos_spec.empty()
              ? ""
              : common::file_or_inline(options.chaos_spec);
      std::unique_ptr<chaos::ChaosEngine> chaos_engine;
      obs::MetricsRegistry chaos_metrics;
      obs::TraceWriter chaos_events;
      if (!chaos_text.empty()) {
        chaos::ChaosPlan chaos_plan = chaos::parse_plan(chaos_text);
        chaos_engine = std::make_unique<chaos::ChaosEngine>(
            std::move(chaos_plan), options.chaos_seed, chaos::Role::kBroker);
        chaos_engine->set_metrics(&chaos_metrics);
        chaos_engine->set_trace(&chaos_events);
        chaos::ChaosEngine::install(chaos_engine.get());
      }

      std::ofstream metrics_out = open_output(options.metrics_path);

      // Write-ahead journal (docs/JOURNAL.md): every finished seed is
      // appended before the campaign acknowledges it, so a killed run
      // resumes from the journal instead of starting over.
      std::unique_ptr<journal::JournalWriter> journal_writer;
      std::mutex journal_error_mutex;
      std::string journal_error;
      if (!options.journal_path.empty()) {
        if (options.resume) {
          const journal::RecoveredJournal recovered =
              journal::recover(options.journal_path);
          if (recovered.header_version != 0 &&
              recovered.header_version != journal::kJournalVersion) {
            // Refuse before the resume writer opens (and truncates) the
            // file: the old journal is the user's data, not ours to clear.
            throw std::runtime_error(
                "--resume: journal " + options.journal_path +
                " was written by an older esv version (journal format v" +
                std::to_string(recovered.header_version) +
                ", this build writes v" +
                std::to_string(journal::kJournalVersion) +
                "; the config-digest algorithm changed) — re-run without "
                "--resume to start a fresh journal");
          }
          if (recovered.header_valid &&
              recovered.config_digest != journal::config_digest(config)) {
            // Splicing results from a different configuration would produce
            // a report that no single campaign ever computed.
            throw std::runtime_error(
                "--resume: journal " + options.journal_path +
                " was written by a different campaign configuration "
                "(journal digest " +
                recovered.config_digest + ", this campaign " +
                journal::config_digest(config) + ")");
          }
          config.resume_results = recovered.results;
          if (!options.quiet) {
            std::cout << "journal: resumed " << recovered.results.size()
                      << " of " << (config.seed_hi - config.seed_lo + 1)
                      << " seeds from " << options.journal_path;
            if (recovered.tail_dropped) std::cout << " (corrupt tail dropped)";
            std::cout << "\n";
          }
          journal_writer = std::make_unique<journal::JournalWriter>(
              options.journal_path, config, options.journal_sync,
              recovered.header_valid ? recovered.valid_bytes : 0);
        } else {
          journal_writer = std::make_unique<journal::JournalWriter>(
              options.journal_path, config, options.journal_sync);
        }
        // Workers call this concurrently (the writer serializes) and must
        // not see an exception; the first failure is surfaced after the run.
        config.on_result = [&](const campaign::SeedResult& result) {
          try {
            journal_writer->append(result);
          } catch (const journal::JournalError& e) {
            std::lock_guard<std::mutex> lock(journal_error_mutex);
            if (journal_error.empty()) journal_error = e.what();
          }
        };
      }

      dist::BrokerOptions broker_options;
      broker_options.chaos_plan_text = chaos_text;
      broker_options.chaos_seed = options.chaos_seed;
      campaign::CampaignReport report =
          config.workers != 0 ? dist::run_distributed(config, broker_options)
                               : campaign::run(config);
      if (journal_writer) journal_writer->close();
      if (chaos_engine) {
        chaos::ChaosEngine::install(nullptr);
        report.chaos_metrics = chaos_metrics.snapshot();
        report.chaos_events_jsonl = chaos_events.text();
      }
      if (!journal_error.empty()) {
        // The campaign finished, but its durability promise did not: treat a
        // failed journal like any other unwritable output (exit 2). Chaos
        // journal faults surface here too — a deterministic structured
        // abort, never silent data loss.
        throw std::runtime_error(journal_error);
      }
      std::cout << (options.quiet ? report.summary() : report.verdict_table());
      if (!options.report_path.empty()) {
        open_output(options.report_path)
            << report.to_json(options.report_timing);
        if (!options.quiet) {
          std::cout << "report: " << options.report_path << "\n";
        }
      }
      if (!options.metrics_path.empty()) {
        // Deterministic rendering: the merged campaign snapshot carries no
        // timing histograms, so the file is byte-identical for any --jobs.
        metrics_out << report.metrics.to_json(/*include_timing=*/false);
        if (!options.quiet) {
          std::cout << "metrics: " << options.metrics_path << "\n";
        }
      }
      if (!options.quiet) {
        std::ostringstream timing;
        timing << std::fixed << std::setprecision(2);
        timing << "wall " << report.wall_seconds << " s, "
               << report.seeds_per_second() << " seeds/sec (";
        if (report.distributed) {
          timing << report.workers
                 << (report.workers == 1 ? " proc x " : " procs x ")
                 << report.jobs
                 << (report.jobs == 1 ? " thread)" : " threads)");
        } else {
          timing << report.jobs
                 << (report.jobs == 1 ? " worker)" : " workers)");
        }
        timing << "\n";
        std::cout << timing.str();
        if (report.degraded) {
          std::cout << "warning: campaign degraded to in-process execution "
                       "(every worker exhausted its respawn budget)\n";
        }
      }
      if (report.deadline_exceeded) {
        // Structured abort: the partial report and journal were written
        // above; the exit code tells the caller the deadline cut the run.
        std::cerr << "campaign aborted: wall-clock deadline exceeded "
                     "(--campaign-timeout)\n";
        return 3;
      }
      return (report.any_violated() || report.error_seeds != 0) ? 1 : 0;
    }

    // A single run is seed N of a one-seed campaign: same configuration
    // checks (exit 2), same stack.
    config.seed_lo = config.seed_hi = options.seed;
    const campaign::CampaignSetup setup = campaign::prepare_campaign(config);

    // Observability sinks (docs/OBSERVABILITY.md).
    const bool want_metrics = !options.metrics_path.empty();
    const bool want_trace = !options.trace_path.empty();
    std::ofstream metrics_out = open_output(options.metrics_path);
    std::ofstream trace_out = open_output(options.trace_path);
    obs::MetricsRegistry metrics;
    obs::TraceWriter trace;
    campaign::SeedStack stack(config, setup, options.seed,
                              want_metrics ? &metrics : nullptr,
                              want_trace ? &trace : nullptr);
    const sctc::TemporalChecker& checker = stack.checker;

    sim::VcdTracer vcd(stack.sim);
    const bool want_vcd = !options.vcd_path.empty();
    if (want_vcd) {
      std::set<std::string> traced;
      for (const auto& prop : setup.specfile.propositions) {
        if (!traced.insert(prop.global).second) continue;
        const std::uint32_t address =
            setup.program->program.find_global(prop.global)->address;
        vcd.add_u32(prop.global, [&stack, address] {
          return stack.memory.sctc_read_uint(address);
        });
      }
      vcd.sample_on(stack.step_event());
    }

    // From here on errors are runtime verification failures, not
    // configuration mistakes: an interpreter fault or a trap escaping the
    // run exits 3 with a one-line diagnostic.
    const auto run_started = std::chrono::steady_clock::now();
    try {
      stack.run();
    } catch (const std::exception& e) {
      std::cerr << "runtime error: " << e.what() << "\n";
      return 3;
    }
    const std::string trap = stack.trap_message();
    if (!trap.empty() && !options.quiet) {
      std::cout << "CPU trapped: " << trap << "\n";
    }
    stack.finish();

    if (want_vcd) {
      std::ofstream(options.vcd_path) << vcd.str();
      if (!options.quiet) {
        std::cout << "waveform: " << options.vcd_path << " ("
                  << vcd.samples() << " samples)\n";
      }
    }
    if (want_metrics) {
      metrics.duration_histogram("run.wall_us")
          .record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - run_started)
                  .count()));
      metrics_out << metrics.snapshot().to_json(/*include_timing=*/true);
      if (!options.quiet) {
        std::cout << "metrics: " << options.metrics_path << "\n";
      }
    }
    if (want_trace) {
      trace_out << trace.text();
      if (!options.quiet) {
        std::cout << "trace: " << options.trace_path << " ("
                  << trace.event_count() << " events)\n";
      }
    }
    if (stack.faults) {
      std::cout << "faults injected: " << stack.faults->injected_count()
                << "\n";
      if (!options.quiet && stack.faults->injected_count() != 0) {
        std::cout << stack.faults->log_text();
      }
    }
    std::cout << checker.report();
    if (checker.any_violated() && config.witness_depth != 0) {
      std::cout << "witness (last " << config.witness_depth << " steps):\n"
                << checker.witness_table();
    }
    if (checker.divergence_count() != 0) {
      // A compiled-vs-interpreted divergence is a defect of the verifier
      // itself, never a property result: same exit code as a runtime error.
      std::cerr << "monitor error: " << checker.divergence_count()
                << " compiled monitor(s) diverged from the interpreted "
                   "oracle (--monitor-mode=both)\n";
      return 3;
    }
    return checker.any_violated() ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
