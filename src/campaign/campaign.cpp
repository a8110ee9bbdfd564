#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>

#include "campaign/seed_runner.hpp"

namespace esv::campaign {

CampaignReport run(const CampaignConfig& config) {
  const auto started = std::chrono::steady_clock::now();

  // Validate the whole configuration on the calling thread before any worker
  // starts: spec parse errors, program compile errors, unresolvable
  // propositions, property parse errors, and malformed or unresolvable fault
  // plans all surface here.
  const CampaignSetup setup = prepare_campaign(config);

  CampaignReport report = make_report_skeleton(config, setup);
  report.jobs = static_cast<unsigned>(std::min<std::uint64_t>(
      std::max(1u, config.jobs), report.seeds.size()));

  // Whole-campaign deadline (--campaign-timeout) and cancellation: workers
  // stop claiming new seeds, and the unclaimed slots get deterministic
  // captures after the join. A seed already running finishes (per-seed
  // preemption is seed_timeout_seconds' job). An explicit cancel wins the
  // attribution when both apply.
  SeedSlots seeds(config, setup, report);
  seeds.run_in_process(report.jobs, campaign_deadline(config, started));
  seeds.capture_unfinished(cancel_requested(config));

  finalize_report(config, setup, report);

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return report;
}

}  // namespace esv::campaign
