// Journal-backed persistence of the esv-serve daemon (docs/SERVE.md).
//
// The serve journal rides the campaign journal's record framing
// (journal::RecordLog — u32 length + u32 CRC-32 + JSON + '\n', prefix-
// keeping recovery). Four record types:
//
//   {"type":"serve-header","version":2}
//   {"type":"accepted","job":N,"tenant":"...","key":"...",
//    "seed_lo":N,"seed_hi":N,"workers":N,"config":{...}}
//   {"type":"completed","job":N,"key":"...","cacheable":B,"exit":N,
//    "report":"<json text>"}
//   {"type":"cancelled","job":N}
//
// Disk-budget governance (docs/JOURNAL.md "Compaction"): a long-lived
// daemon's journal is a PAIR of segments — "<path>.snap", a compacted
// snapshot of live state, plus "<path>", the append-only tail. compact()
// rewrites the live state (pending accepted jobs + cache-resident
// completed records) as a fresh snapshot via journal::write_snapshot
// (temp file, fsync, atomic rename, directory fsync), then truncates the
// tail back to a bare header. The snapshot's header carries the next job
// id ({"type":"serve-header","version":2,"snapshot":true,"next_job":N})
// so ids stay monotone even after every referencing record is compacted
// away. Recovery reads snapshot-then-tail through one state machine and
// de-duplicates, so a crash at ANY step of the swap — before the snapshot,
// between rename and truncate (both segments then hold the same records),
// or after — reassembles the same state.
//
// The write discipline carries the service's durability contract:
//
//   * `accepted` is journaled BEFORE the accepted frame is sent to the
//     client, so an accepted-and-acked job is never lost to a daemon kill —
//     recovery re-queues every accepted job without a completed/cancelled
//     record, in journal order (FIFO survives the restart).
//   * `completed` is journaled BEFORE the report frame is sent and stores
//     the deterministic (include_timing=false) report rendering verbatim,
//     so a restarted daemon serves byte-identical reports for completed
//     jobs from its recovered cache.
//
// A torn tail is recovered from exactly like the campaign journal: keep the
// valid prefix, drop the rest. A job whose `accepted` record was torn away
// was never acked (the ack is sent only after the record is written), so
// dropping it breaks no promise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "journal/journal.hpp"
#include "serve/cache.hpp"

namespace esv::serve {

// v2: tracks journal::kJournalVersion's digest-algorithm fix — cache keys
// and config digests recorded by v1 builds no longer match, so a v1 serve
// journal must be rejected loudly (Server's constructor refuses to start
// on one) rather than silently truncated or, worse, replayed with stale
// keys.
constexpr std::uint64_t kServeJournalVersion = 2;

/// The snapshot segment of the journal at `path` lives beside it as
/// "<path>.snap" (and swaps in via "<path>.snap.tmp").
std::string snapshot_path_for(const std::string& path);

struct CompactionState;

/// Append-side of the serve journal. Thin typed wrapper over
/// journal::RecordLog; shares its sync policies and chaos points.
class ServeJournal {
 public:
  /// Fresh journal (truncates; writes the serve-header record).
  ServeJournal(const std::string& path, journal::SyncPolicy sync);
  /// Resume after recover_serve(): truncates to `keep_bytes` and appends.
  /// keep_bytes == 0 starts fresh (header rewritten). Either constructor
  /// also removes a leftover "<path>.snap.tmp" (a swap that died before
  /// its rename — inert garbage).
  ServeJournal(const std::string& path, journal::SyncPolicy sync,
               std::uint64_t keep_bytes);

  void append_accepted(std::uint64_t job, const std::string& tenant,
                       const std::string& key,
                       const campaign::CampaignConfig& config);
  void append_completed(std::uint64_t job, const std::string& key,
                        bool cacheable, int exit_code,
                        const std::string& report_json);
  void append_cancelled(std::uint64_t job);

  /// Snapshot-then-swap compaction (docs/JOURNAL.md): writes `live` as the
  /// new snapshot segment, then truncates the tail to a bare header.
  /// Throws journal::JournalError on failure. A failure before the swap
  /// commits leaves both segments exactly as they were (appends continue);
  /// a failure while restarting the tail leaves the tail indeterminate, so
  /// further appends are refused (append_disabled()) — the daemon can keep
  /// serving, degraded, and a restart recovers truthfully either way.
  void compact(const CompactionState& live);

  /// Current byte length of the two segments. tail_bytes() is exact for
  /// clean appends (see RecordLog::bytes); snapshot_bytes() is the length
  /// of the last snapshot written or recovered, 0 when there is none.
  std::uint64_t tail_bytes() const;
  std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }
  bool append_disabled() const { return append_disabled_; }

  void close();

 private:
  void append(const std::string& payload);

  journal::RecordLog log_;
  std::string snapshot_path_;
  std::uint64_t snapshot_bytes_ = 0;
  bool append_disabled_ = false;
};

/// Everything a restarted daemon recovers from its journal.
struct RecoveredServe {
  /// True when the file begins with a valid serve-header record. False for
  /// a missing/empty/torn file — "nothing to recover", never an error.
  bool header_valid = false;
  /// Version claimed by a well-formed header, 0 when none was readable. A
  /// non-zero value != kServeJournalVersion identifies a journal written
  /// by a different build; the daemon refuses to start on it.
  std::uint64_t header_version = 0;
  /// Non-empty when an acked job's record names a monitor mode this build
  /// retired: the job can neither run nor be dropped, so the daemon refuses
  /// to start on the journal (leaving its bytes untouched) with this text.
  std::string retired_mode;

  struct PendingJob {
    std::uint64_t job = 0;
    std::string tenant;
    std::string key;
    campaign::CampaignConfig config;
  };
  /// Accepted jobs without a completed/cancelled record, in journal
  /// (acceptance) order — the restart re-queues them as-is.
  std::vector<PendingJob> pending;

  struct CompletedJob {
    std::uint64_t job = 0;
    std::string key;
    bool cacheable = false;
    int exit_code = 0;
    std::string report_json;
  };
  /// Completed jobs in journal order; cacheable ones re-seed the cache.
  std::vector<CompletedJob> completed;

  /// 1 + the highest job id seen across both segments (also floored by the
  /// snapshot header's next_job field): the restart's next job id, so ids
  /// never collide across restarts even after compaction dropped every
  /// record that carried one.
  std::uint64_t next_job_id = 1;

  /// Valid byte prefix OF THE TAIL SEGMENT, handed to the resume
  /// ServeJournal constructor; 0 when the tail is missing, empty, or has
  /// no valid header (the resume writer then starts a fresh tail — the
  /// snapshot segment, if any, is left untouched and keeps serving its
  /// records).
  std::uint64_t valid_bytes = 0;
  /// True when a valid snapshot segment contributed records.
  bool snapshot_valid = false;
};

/// Scans a serve journal pair — "<path>.snap" first, then the tail at
/// `path` — through one state machine. Same tolerance contract as
/// journal::recover(): framing damage and semantic damage both keep the
/// longest valid prefix of each segment. Records duplicated across the
/// pair (a crash landed between the snapshot rename and the tail
/// truncate) de-duplicate by job id. Throws journal::JournalError only
/// when a file exists but cannot be read.
RecoveredServe recover_serve(const std::string& path);

/// The live state a compaction keeps: everything a restart must be able to
/// reassemble. Pending jobs are re-written as `accepted` records (in
/// acceptance order — FIFO survives), completed ones as cacheable
/// `completed` records. Resolved accepted records, `cancelled` markers and
/// non-cacheable completions are what compaction exists to drop.
struct CompactionState {
  std::uint64_t next_job_id = 1;
  std::vector<RecoveredServe::PendingJob> pending;
  std::vector<RecoveredServe::CompletedJob> completed;
};

}  // namespace esv::serve
