// CampaignReport rendering: the deterministic verdict table / summary and
// the JSON report (schema documented in docs/CAMPAIGN.md).
#include <cmath>
#include <iomanip>
#include <sstream>

#include "campaign/campaign.hpp"
#include "common/strings.hpp"

namespace esv::campaign {

namespace {

char verdict_letter(temporal::Verdict v) {
  switch (v) {
    case temporal::Verdict::kValidated: return 'V';
    case temporal::Verdict::kViolated: return 'X';
    case temporal::Verdict::kPending: return 'P';
  }
  return '?';
}

/// Fixed-precision percentage so the deterministic outputs never depend on
/// floating-point formatting defaults.
std::string percent_text(double percent) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << percent;
  return out.str();
}

}  // namespace

std::string CampaignReport::verdict_table() const {
  std::ostringstream out;
  out << "campaign seeds " << seed_lo << ".." << seed_hi << "  approach="
      << approach << "  mode=" << sctc::monitor_mode_name(mode)
      << "  max-steps=" << max_steps << "\n";
  if (fault_campaign) {
    out << "fault plan: " << fault_plan_entries << " entries, "
        << injected_faults_total << " faults injected\n";
  }
  out << "properties:";
  for (const std::string& name : property_names) out << " " << name;
  out << "\n";
  for (const SeedResult& seed : seeds) {
    out << "  seed " << std::setw(8) << seed.seed << "  [";
    for (const PropertyOutcome& p : seed.properties) {
      out << verdict_letter(p.verdict);
    }
    out << "]  steps=" << seed.steps << "  statements=" << seed.statements;
    if (fault_campaign) out << "  faults=" << seed.injected_faults;
    if (!seed.finished) out << "  unfinished";
    if (seed.attempts > 1) out << "  attempts=" << seed.attempts;
    if (!seed.error.empty()) {
      out << "  error";
      if (!seed.error_kind.empty()) out << "[" << seed.error_kind << "]";
      out << ": " << seed.error;
      if (!seed.fault_plan_digest.empty()) {
        out << "  plan=" << seed.fault_plan_digest;
      }
    }
    out << "\n";
  }
  out << "property tally:\n";
  for (const PropertyAggregate& agg : per_property) {
    out << "  " << agg.name << ": validated=" << agg.validated
        << " violated=" << agg.violated << " pending=" << agg.pending;
    if (fault_campaign) {
      out << "  under-fault: held=" << agg.held_under_fault
          << " violated=" << agg.violated_under_fault
          << " monitor-errors=" << agg.monitor_errors;
    }
    if (agg.first_violation_seed) {
      out << "  (first violation @seed " << *agg.first_violation_seed << ")";
    }
    out << "\n";
  }
  out << "merged proposition coverage:\n";
  for (const PropositionCoverage& cov : coverage) {
    out << "  " << cov.name << ": " << percent_text(cov.percent()) << "% ("
        << cov.true_steps << "/" << cov.total_steps << " steps)\n";
  }
  out << summary();
  return out.str();
}

std::string CampaignReport::summary() const {
  std::ostringstream out;
  out << "totals: " << seed_count() << " seeds, " << violated_seeds
      << " with violations, " << error_seeds << " with errors";
  if (timeout_seeds != 0) out << " (" << timeout_seeds << " timed out)";
  if (retried_seeds != 0) out << ", " << retried_seeds << " retried";
  out << "; verdicts " << validated_total << " validated / " << violated_total
      << " violated / " << pending_total << " pending; " << total_steps
      << " temporal steps, " << total_statements << " statements, "
      << total_draws << " stimulus draws\n";
  if (fault_campaign) {
    out << "faults: " << injected_faults_total << " injected from "
        << fault_plan_entries << " plan entries; classification "
        << held_under_fault_total << " held / " << violated_under_fault_total
        << " violated-under-fault / " << monitor_error_total
        << " monitor-errors\n";
  }
  return out.str();
}

std::string CampaignReport::to_json(bool include_timing) const {
  std::ostringstream out;
  out << "{\n  \"campaign\": {"
      << "\"seed_lo\": " << seed_lo << ", \"seed_hi\": " << seed_hi
      << ", \"approach\": " << approach << ", \"mode\": \""
      << sctc::monitor_mode_name(mode) << "\", \"max_steps\": " << max_steps;
  if (include_timing) out << ", \"jobs\": " << jobs;
  out << "},\n";

  out << "  \"properties\": [";
  for (std::size_t i = 0; i < property_names.size(); ++i) {
    out << (i ? ", " : "") << common::json_string(property_names[i]);
  }
  out << "],\n";

  out << "  \"seeds\": [\n";
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const SeedResult& seed = seeds[s];
    out << "    {\"seed\": " << seed.seed << ", \"verdicts\": [";
    for (std::size_t p = 0; p < seed.properties.size(); ++p) {
      out << (p ? ", " : "") << "\""
          << temporal::to_string(seed.properties[p].verdict) << "\"";
    }
    out << "], \"decided_at_step\": [";
    for (std::size_t p = 0; p < seed.properties.size(); ++p) {
      out << (p ? ", " : "") << seed.properties[p].decided_at_step;
    }
    out << "], \"steps\": " << seed.steps
        << ", \"statements\": " << seed.statements
        << ", \"draws\": " << seed.draws
        << ", \"finished\": " << (seed.finished ? "true" : "false");
    if (fault_campaign) {
      out << ", \"faults\": " << seed.injected_faults
          << ", \"fault_classes\": [";
      for (std::size_t p = 0; p < seed.properties.size(); ++p) {
        out << (p ? ", " : "") << "\""
            << sctc::fault_class_name(seed.properties[p].fault_class) << "\"";
      }
      out << "]";
      if (!seed.fault_log.empty()) {
        out << ", \"fault_log\": " << common::json_string(seed.fault_log);
      }
    }
    if (seed.attempts > 1) {
      out << ", \"attempts\": " << seed.attempts;
    }
    if (!seed.error.empty()) {
      out << ", \"error\": " << common::json_string(seed.error)
          << ", \"error_kind\": " << common::json_string(seed.error_kind);
      if (!seed.fault_plan_digest.empty()) {
        out << ", \"fault_plan_digest\": "
            << common::json_string(seed.fault_plan_digest);
      }
      if (include_timing) {
        // How long the failing attempt ran before it died — the number that
        // makes --seed-timeout / --seed-retries tuning data-driven. Wall
        // clock, hence timing-gated like every other nondeterministic field.
        out << ", \"error_wall_ms\": " << std::fixed << std::setprecision(3)
            << seed.wall_ms;
        out.unsetf(std::ios_base::floatfield);
      }
    }
    if (!seed.witness.empty()) {
      out << ", \"witness\": " << common::json_string(seed.witness);
    }
    if (include_timing) {
      out << ", \"wall_ms\": " << std::fixed << std::setprecision(3)
          << seed.wall_ms;
      out.unsetf(std::ios_base::floatfield);
    }
    out << "}" << (s + 1 < seeds.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"aggregate\": {\n    \"per_property\": [\n";
  for (std::size_t i = 0; i < per_property.size(); ++i) {
    const PropertyAggregate& agg = per_property[i];
    out << "      {\"name\": " << common::json_string(agg.name)
        << ", \"validated\": " << agg.validated
        << ", \"violated\": " << agg.violated
        << ", \"pending\": " << agg.pending;
    if (fault_campaign) {
      out << ", \"held_under_fault\": " << agg.held_under_fault
          << ", \"violated_under_fault\": " << agg.violated_under_fault
          << ", \"monitor_errors\": " << agg.monitor_errors;
    }
    out << ", \"first_violation_seed\": ";
    if (agg.first_violation_seed) {
      out << *agg.first_violation_seed;
    } else {
      out << "null";
    }
    out << "}" << (i + 1 < per_property.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"coverage\": [\n";
  for (std::size_t i = 0; i < coverage.size(); ++i) {
    const PropositionCoverage& cov = coverage[i];
    out << "      {\"prop\": " << common::json_string(cov.name)
        << ", \"true_steps\": " << cov.true_steps
        << ", \"total_steps\": " << cov.total_steps << ", \"percent\": "
        << percent_text(cov.percent()) << "}"
        << (i + 1 < coverage.size() ? "," : "") << "\n";
  }
  out << "    ],\n";
  out << "    \"validated\": " << validated_total
      << ", \"violated\": " << violated_total
      << ", \"pending\": " << pending_total
      << ", \"violated_seeds\": " << violated_seeds
      << ", \"error_seeds\": " << error_seeds
      << ", \"timeout_seeds\": " << timeout_seeds
      << ", \"retried_seeds\": " << retried_seeds;
  if (fault_campaign) {
    out << ",\n    \"fault\": {\"plan_entries\": " << fault_plan_entries
        << ", \"injected\": " << injected_faults_total
        << ", \"held\": " << held_under_fault_total
        << ", \"violated\": " << violated_under_fault_total
        << ", \"monitor_errors\": " << monitor_error_total << "}";
  }
  out << ",\n    \"total_steps\": " << total_steps
      << ", \"total_statements\": " << total_statements
      << ", \"total_draws\": " << total_draws << "\n  }";

  if (has_metrics) {
    // Campaign metrics are merged from per-seed snapshots that carry no
    // wall-clock histograms, so the snapshot body is deterministic either
    // way; the include_timing flag is still honoured for uniformity. The
    // block leads with the monitor mode and (timing runs only) the
    // steps-per-second rate, so a BENCH_* style throughput figure is
    // reproducible from the report JSON alone: mode, steps, and rate all
    // live next to the counters that produced them.
    const std::string snapshot = metrics.to_json(include_timing);
    out << ",\n  \"metrics\": {\"monitor_mode\": \""
        << sctc::monitor_mode_name(mode) << "\",";
    if (include_timing) {
      out << " \"steps_per_second\": " << std::fixed << std::setprecision(1)
          << (wall_seconds > 0.0
                  ? static_cast<double>(total_steps) / wall_seconds
                  : 0.0)
          << ",";
      out.unsetf(std::ios_base::floatfield);
    }
    // Splice the snapshot's fields into the wrapper object (the snapshot
    // renders as "{\n  \"counters\": ..." and ends with "}\n").
    std::string body = snapshot.substr(1);
    while (!body.empty() && body.back() == '\n') body.pop_back();
    out << body;
  }

  if (include_timing) {
    out << ",\n  \"timing\": {\"wall_seconds\": " << std::fixed
        << std::setprecision(3) << wall_seconds
        << ", \"seeds_per_second\": " << std::setprecision(1)
        << seeds_per_second();
    out.unsetf(std::ios_base::floatfield);
    if (distributed) out << ", \"workers\": " << workers;
    // Operational resilience flags (docs/RESILIENCE.md): how the run ended,
    // never what it computed — hence timing-class.
    if (degraded) out << ", \"degraded\": true";
    if (deadline_exceeded) out << ", \"aborted\": \"deadline\"";
    if (cancelled) out << ", \"aborted\": \"cancelled\"";
    out << "}";
    if (distributed && !dist_metrics.empty()) {
      // Operational only: how the run was executed (frames, bytes, steals,
      // respawns), never what it computed — hence timing-class.
      out << ",\n  \"dist\": " << dist_metrics.to_json(/*include_timing=*/true);
    }
    if (!chaos_metrics.empty()) {
      // Orchestrator-side self-chaos counters (--chaos); operational like
      // the dist block. Worker-side chaos counters land in "dist" instead.
      out << ",\n  \"chaos\": " << chaos_metrics.to_json(/*include_timing=*/true);
    }
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace esv::campaign
