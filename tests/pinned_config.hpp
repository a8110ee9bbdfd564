// One campaign config with every result and deployment field set to a
// non-default value. journal_test, dist_wire_test and serve_test pin the
// bytes each encoding of it renders (digest, worker wire JSON, serve
// submit): those bytes key existing journals and result caches, so a change
// to the config field table must leave them where they are.
#pragma once

#include "campaign/campaign.hpp"

inline esv::campaign::CampaignConfig pinned_full_config() {
  esv::campaign::CampaignConfig config;
  config.program_source =
      "int x;\nvoid main(void) { x = 1; }\n// \"q\"\t\x01\n";
  config.spec_text = "prop p = x == 1\ncheck c: G p\n";
  config.approach = 1;
  config.mode = esv::sctc::MonitorMode::kBoth;
  config.max_steps = 123456789012345ull;
  config.seed_lo = 7;
  config.seed_hi = 4242;
  config.jobs = 3;
  config.witness_depth = 17;
  config.workers = 5;
  config.fault_plan_text = "fault bitflip led bit 3 at 100\n";
  config.fault_log_limit = 9;
  config.collect_metrics = true;
  config.capture_traces = true;
  config.seed_timeout_seconds = 2.5;
  config.seed_retries = 4;
  config.seed_mem_limit_mb = 96;
  return config;
}

/// dist::config_to_json(pinned_full_config()).
inline constexpr const char* kPinnedFullConfigJson =
    R"({"program_source":"int x;\nvoid main(void) { x = 1; }\n)"
    R"(// \"q\"\t\u0001\n",)"
    R"("spec_text":"prop p = x == 1\ncheck c: G p\n",)"
    R"("approach":1,"mode":"both","max_steps":123456789012345,)"
    R"("jobs":3,"witness_depth":17,)"
    R"("fault_plan_text":"fault bitflip led bit 3 at 100\n",)"
    R"("fault_log_limit":9,"collect_metrics":true,"capture_traces":true,)"
    R"("seed_timeout_seconds":2.5,"seed_retries":4,"seed_mem_limit_mb":96})";
