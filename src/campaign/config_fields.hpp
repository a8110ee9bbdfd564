// The one field table of CampaignConfig. The journal's config digest (which
// gates --resume and keys esv-serve's result cache), the worker wire codec
// and esv-serve's campaign shape are visitors over it, so "same config"
// means one thing everywhere. Entries follow declaration order, which is
// also the order every encoding writes: existing digests, frames and
// journals depend on it.
#pragma once

#include <tuple>

#include "campaign/campaign.hpp"

namespace esv::campaign {

/// Which encodings carry a field (bit set).
enum ConfigFieldFlags : unsigned {
  kInDigest = 1u << 0,  // journal::config_digest
  kOnWire = 1u << 1,    // dist::config_to_json / config_from_json
  kInShape = 1u << 2,   // serve::campaign_shape_json / apply_campaign_shape
  /// config_from_json refuses a document without the field; any other
  /// absent field decodes to CampaignConfig{}'s default.
  kRequired = 1u << 3,
};

/// Result fields can change a result byte. The seed range is digested but
/// never sent to workers, which get their seeds from ASSIGN frames.
/// Host-only fields are orchestrator concerns and never encoded.
inline constexpr unsigned kResult = kInDigest | kOnWire;
inline constexpr unsigned kSeedRange = kInDigest | kInShape;
inline constexpr unsigned kHostOnly = 0;

template <auto Member, unsigned Flags>
struct ConfigField {
  const char* name;  // the member name in wire and shape JSON
};

inline constexpr std::tuple kConfigFields{
    ConfigField<&CampaignConfig::program_source, kResult | kRequired>{
        "program_source"},
    ConfigField<&CampaignConfig::spec_text, kResult | kRequired>{"spec_text"},
    ConfigField<&CampaignConfig::approach, kResult | kRequired>{"approach"},
    ConfigField<&CampaignConfig::mode, kResult | kRequired>{"mode"},
    ConfigField<&CampaignConfig::max_steps, kResult | kRequired>{"max_steps"},
    ConfigField<&CampaignConfig::seed_lo, kSeedRange>{"seed_lo"},
    ConfigField<&CampaignConfig::seed_hi, kSeedRange>{"seed_hi"},
    // Deployment shape is never digested: a journal written under --jobs
    // resumes under --workers, and other parallelism hits the serve cache.
    ConfigField<&CampaignConfig::jobs, kOnWire>{"jobs"},
    ConfigField<&CampaignConfig::witness_depth, kResult>{"witness_depth"},
    ConfigField<&CampaignConfig::workers, kInShape>{"workers"},
    ConfigField<&CampaignConfig::worker_binary, kHostOnly>{"worker_binary"},
    ConfigField<&CampaignConfig::fault_plan_text, kResult>{"fault_plan_text"},
    ConfigField<&CampaignConfig::fault_log_limit, kResult>{"fault_log_limit"},
    ConfigField<&CampaignConfig::collect_metrics, kResult>{"collect_metrics"},
    ConfigField<&CampaignConfig::capture_traces, kResult>{"capture_traces"},
    // Implies capture_traces; the digest hashes the effective flag.
    ConfigField<&CampaignConfig::trace_dir, kHostOnly>{"trace_dir"},
    // The watchdog and retry budget can change which error a seed records.
    ConfigField<&CampaignConfig::seed_timeout_seconds, kResult>{
        "seed_timeout_seconds"},
    ConfigField<&CampaignConfig::seed_retries, kResult>{"seed_retries"},
    // A deadline or a cancel can abort a run but never changes a completed
    // seed's bytes, so a run cut short resumes under a clean configuration.
    ConfigField<&CampaignConfig::campaign_timeout_seconds, kHostOnly>{
        "campaign_timeout_seconds"},
    ConfigField<&CampaignConfig::cancel, kHostOnly>{"cancel"},
    ConfigField<&CampaignConfig::seed_mem_limit_mb, kResult>{
        "seed_mem_limit_mb"},
    ConfigField<&CampaignConfig::on_result, kHostOnly>{"on_result"},
    ConfigField<&CampaignConfig::resume_results, kHostOnly>{"resume_results"},
};

/// Fails to compile when CampaignConfig gains or loses a member: classify
/// the member in kConfigFields, then name it here.
inline void config_fields_cover_every_member(CampaignConfig& config) {
  [[maybe_unused]] auto& [program_source, spec_text, approach, mode, max_steps,
                          seed_lo, seed_hi, jobs, witness_depth, workers,
                          worker_binary, fault_plan_text, fault_log_limit,
                          collect_metrics, capture_traces, trace_dir,
                          seed_timeout_seconds, seed_retries,
                          campaign_timeout_seconds, cancel, seed_mem_limit_mb,
                          on_result, resume_results] = config;
  static_assert(std::tuple_size_v<decltype(kConfigFields)> == 23);
}

/// Calls `visit(name, member, flags)` for every field of `config` (which
/// may be const) whose flags include `Encoding`, in table order.
template <unsigned Encoding, typename Config, typename Visitor>
void visit_config_fields(Config& config, Visitor&& visit) {
  std::apply(
      [&]<auto... Members, unsigned... Flags>(
          const ConfigField<Members, Flags>&... fields) {
        ([&] {
          if constexpr ((Flags & Encoding) != 0) {
            visit(fields.name, config.*Members, Flags);
          }
        }(), ...);
      },
      kConfigFields);
}

}  // namespace esv::campaign
