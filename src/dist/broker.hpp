// Campaign broker: runs a multi-seed campaign across out-of-process worker
// shards (tools/esv-worker) with crash isolation. The broker owns a Unix
// domain socket, spawns `config.workers` worker processes, shards the seed
// range to them with a work-stealing scheduler, and merges the streamed
// RESULT frames into the same CampaignReport the in-process runner builds —
// finalized by the shared campaign::finalize_report, so every deterministic
// rendering is byte-identical for any workers x jobs combination and for the
// in-process runner.
//
// Failure containment (the matrices in docs/DISTRIBUTED.md and
// docs/RESILIENCE.md):
//   * worker crash (exit, signal, SIGKILL) — its in-flight seeds are
//     re-dispatched to surviving workers under config.seed_retries, and the
//     slot respawns up to BrokerOptions::max_respawns times; both waits use
//     exponential backoff with deterministic jitter
//   * worker hang — no frame within heartbeat_timeout_seconds is treated as
//     a crash: SIGKILL, then the crash path above
//   * lost ASSIGN — a worker heartbeating idle while seeds are booked to it
//     gets its booking re-sent (duplicate RESULTs are deduped)
//   * every worker dead with no respawns left — the broker degrades: the
//     remaining seeds run in-process on --jobs threads and the report gains
//     an operational `degraded` flag (degrade_in_process=false restores the
//     old behaviour: deterministic `infrastructure`-kind abandonment)
//   * per-seed re-dispatch budget exhausted — that seed becomes a
//     deterministic `infrastructure`-kind SeedResult (poison-seed guard)
//   * config.campaign_timeout_seconds exceeded — structured abort: the
//     remaining seeds get deterministic deadline captures and the report is
//     marked deadline_exceeded
#pragma once

#include <chrono>
#include <string>

#include "campaign/campaign.hpp"
#include "common/rng.hpp"

namespace esv::dist {

/// Exponential backoff with deterministic jitter (docs/RESILIENCE.md):
/// attempt n (0-based) waits base * 2^n seconds, capped at the ceiling,
/// then scaled into [50%, 100%] by a draw from a private seeded Rng. The
/// schedule is a pure function of (base, cap, seed, call sequence): two
/// brokers constructed alike produce byte-identical delay sequences, which
/// is what makes chaos-sweep replays deterministic.
class BackoffSchedule {
 public:
  BackoffSchedule(double base_seconds, double cap_seconds, std::uint64_t seed)
      : base_(base_seconds), cap_(cap_seconds), rng_(seed) {}

  /// Consumes one jitter draw; successive calls with the same attempt still
  /// advance the Rng, so the sequence depends on call order, not wall time.
  double delay_seconds(unsigned attempt) {
    double delay = base_;
    for (unsigned i = 0; i < attempt; ++i) {
      if (delay >= cap_) break;
      delay *= 2.0;
    }
    if (delay > cap_) delay = cap_;
    if (delay < 0.0) delay = 0.0;
    delay *= 0.5 + 0.5 * (static_cast<double>(rng_.next_below(1024)) / 1024.0);
    return delay;
  }

 private:
  double base_;
  double cap_;
  common::Rng rng_;
};

struct BrokerOptions {
  /// Respawn budget per worker slot (a slot that keeps dying stays dead
  /// after this many respawns).
  unsigned max_respawns = 2;
  /// A worker silent for this long (no result, metrics, or heartbeat; the
  /// worker side heartbeats every 200ms) is SIGKILLed and treated as
  /// crashed. Also bounds the spawn -> HELLO handshake.
  double heartbeat_timeout_seconds = 30.0;
  /// How long to wait after SHUTDOWN for the final METRICS frames before
  /// killing stragglers.
  double shutdown_grace_seconds = 5.0;

  /// Exponential backoff for worker respawns and crashed-seed re-dispatch:
  /// attempt n (0-based) waits base * 2^n seconds, capped, then jittered
  /// deterministically into [50%, 100%] of that (a BackoffSchedule seeded
  /// with 1).
  double backoff_base_seconds = 0.05;
  double backoff_cap_seconds = 2.0;

  /// A connected worker heartbeating queued=0/busy=0 while seeds are booked
  /// to it lost an ASSIGN in flight; its booking is re-sent after this long
  /// (rate limited per ASSIGN). Duplicate results are deduped, so this is
  /// always safe.
  double reassign_after_seconds = 1.0;
  /// When every slot is dead with no respawn budget left, finish the
  /// remaining seeds in-process instead of abandoning them
  /// (docs/RESILIENCE.md "graceful degradation").
  bool degrade_in_process = true;

  /// Self-chaos plan forwarded to every spawned worker via ESV_CHAOS_PLAN /
  /// ESV_CHAOS_SEED (docs/RESILIENCE.md). Empty forwards nothing — and
  /// scrubs any inherited chaos environment so chaos never leaks into
  /// child processes of a clean campaign.
  std::string chaos_plan_text;
  std::uint64_t chaos_seed = 1;
};

/// Resolves the esv-worker binary: $ESV_WORKER_BIN if set, else the
/// `esv-worker` sibling of the running executable (/proc/self/exe). Returns
/// an empty string when neither resolves to an executable file.
std::string default_worker_binary();

/// Runs `config` distributed over config.workers processes (clamped to at
/// least 1 and at most the seed count). Throws std::invalid_argument when no
/// worker binary can be resolved, plus everything campaign::run throws on
/// configuration errors (the broker validates the config before spawning).
campaign::CampaignReport run_distributed(const campaign::CampaignConfig& config);
campaign::CampaignReport run_distributed(const campaign::CampaignConfig& config,
                                         const BrokerOptions& options);

}  // namespace esv::dist
