#include "serve/persist.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <map>
#include <set>

#include "dist/wire.hpp"
#include "serve/protocol.hpp"

namespace esv::serve {

namespace {

std::string header_payload() {
  return "{\"type\":\"serve-header\",\"version\":" +
         std::to_string(kServeJournalVersion) + "}";
}

// The snapshot's header additionally pins the next job id: compaction drops
// every record that carried one, and ids must stay monotone across restarts.
std::string snapshot_header_payload(std::uint64_t next_job) {
  return "{\"type\":\"serve-header\",\"version\":" +
         std::to_string(kServeJournalVersion) +
         ",\"snapshot\":true,\"next_job\":" + std::to_string(next_job) + "}";
}

std::string accepted_payload(std::uint64_t job, const std::string& tenant,
                             const std::string& key,
                             const campaign::CampaignConfig& config) {
  std::string payload = "{\"type\":\"accepted\",\"job\":" + std::to_string(job);
  payload += ",\"tenant\":" + dist::json_string(tenant);
  payload += ",\"key\":" + dist::json_string(key);
  payload += campaign_shape_json(config);
  payload += ",\"config\":" + dist::config_to_json(config);
  payload += "}";
  return payload;
}

std::string completed_payload(std::uint64_t job, const std::string& key,
                              bool cacheable, int exit_code,
                              const std::string& report_json) {
  std::string payload =
      "{\"type\":\"completed\",\"job\":" + std::to_string(job);
  payload += ",\"key\":" + dist::json_string(key);
  payload += cacheable ? ",\"cacheable\":true" : ",\"cacheable\":false";
  payload += ",\"exit\":" + std::to_string(exit_code);
  payload += ",\"report\":" + dist::json_string(report_json);
  payload += "}";
  return payload;
}

}  // namespace

std::string snapshot_path_for(const std::string& path) {
  return path + ".snap";
}

ServeJournal::ServeJournal(const std::string& path, journal::SyncPolicy sync)
    : ServeJournal(path, sync, 0) {}

ServeJournal::ServeJournal(const std::string& path, journal::SyncPolicy sync,
                           std::uint64_t keep_bytes)
    : log_(path, sync, keep_bytes), snapshot_path_(snapshot_path_for(path)) {
  // A swap that died before its rename leaves "<path>.snap.tmp" behind —
  // inert garbage recovery never reads, but it would hold disk forever.
  ::unlink((snapshot_path_ + ".tmp").c_str());
  struct ::stat st;
  if (::stat(snapshot_path_.c_str(), &st) == 0) {
    snapshot_bytes_ = static_cast<std::uint64_t>(st.st_size);
  }
  if (keep_bytes == 0) append(header_payload());
}

void ServeJournal::append(const std::string& payload) {
  if (append_disabled_) {
    throw journal::JournalError(
        "journal: tail segment is in an indeterminate state after a failed "
        "compaction restart: " + log_.path());
  }
  log_.append(payload);
}

void ServeJournal::append_accepted(std::uint64_t job,
                                   const std::string& tenant,
                                   const std::string& key,
                                   const campaign::CampaignConfig& config) {
  append(accepted_payload(job, tenant, key, config));
}

void ServeJournal::append_completed(std::uint64_t job, const std::string& key,
                                    bool cacheable, int exit_code,
                                    const std::string& report_json) {
  append(completed_payload(job, key, cacheable, exit_code, report_json));
}

void ServeJournal::append_cancelled(std::uint64_t job) {
  append("{\"type\":\"cancelled\",\"job\":" + std::to_string(job) + "}");
}

void ServeJournal::compact(const CompactionState& live) {
  if (append_disabled_) {
    throw journal::JournalError(
        "journal: compaction refused, tail segment is indeterminate: " +
        log_.path());
  }
  std::vector<std::string> payloads;
  payloads.reserve(1 + live.pending.size() + live.completed.size());
  payloads.push_back(snapshot_header_payload(live.next_job_id));
  for (const RecoveredServe::PendingJob& job : live.pending) {
    payloads.push_back(
        accepted_payload(job.job, job.tenant, job.key, job.config));
  }
  for (const RecoveredServe::CompletedJob& job : live.completed) {
    payloads.push_back(completed_payload(job.job, job.key, job.cacheable,
                                         job.exit_code, job.report_json));
  }
  // Step 1+2: durable snapshot swap. A failure here (ENOSPC, torn write,
  // failed rename) leaves BOTH segments exactly as they were — the tail
  // still holds everything, appends continue, the caller retries later.
  snapshot_bytes_ = journal::write_snapshot(snapshot_path_, payloads);
  // Step 3: the tail's records are now redundant with the snapshot;
  // truncate it back to a bare header. A failure here leaves the tail
  // indeterminate (possibly half-truncated), so further appends must be
  // refused — but nothing is lost: the snapshot is durable, and recovery
  // treats a headerless tail as empty.
  try {
    log_.restart(header_payload());
  } catch (...) {
    append_disabled_ = true;
    throw;
  }
}

std::uint64_t ServeJournal::tail_bytes() const { return log_.bytes(); }

void ServeJournal::close() { log_.close(); }

RecoveredServe recover_serve(const std::string& path) {
  RecoveredServe recovered;

  // Shared state across the snapshot and tail scans: each job's final state
  // (a completed/cancelled record supersedes its accepted record wherever it
  // lands, in either segment), plus the acceptance order that rebuilds the
  // pending queue. Duplicates across segments — a crash between the snapshot
  // rename and the tail truncate leaves the same records in both — collapse
  // by job id (first sighting wins; the segments agree byte-for-byte).
  std::map<std::uint64_t, RecoveredServe::PendingJob> accepted;
  std::vector<std::uint64_t> accepted_order;
  std::set<std::uint64_t> resolved;
  std::set<std::uint64_t> completed_seen;
  bool foreign_version = false;

  // Scans one segment; returns true when it begins with a valid current-
  // version header. Semantic damage keeps the prefix, like the campaign
  // journal. `valid_out` (tail only) receives the byte prefix to keep.
  const auto scan_segment = [&](const std::string& segment, bool snapshot,
                                std::uint64_t* valid_out) -> bool {
    const journal::ScannedRecords scanned = journal::scan_records(segment);
    bool expect_header = true;
    bool header_ok = false;
    for (const journal::ScannedRecords::Record& record : scanned.records) {
      try {
        const dist::Json json = dist::Json::parse(record.payload);
        const std::string type = json.string_or("type", "");
        if (expect_header) {
          if (type != "serve-header") return header_ok;
          recovered.header_version = json.at("version").as_u64();
          // A foreign version is reported, never recovered from: the caller
          // decides whether to refuse (the daemon does) or start fresh.
          if (recovered.header_version != kServeJournalVersion) {
            foreign_version = true;
            return header_ok;
          }
          if (snapshot) {
            recovered.next_job_id =
                std::max(recovered.next_job_id, json.at("next_job").as_u64());
          }
          header_ok = true;
          expect_header = false;
        } else if (type == "accepted") {
          RecoveredServe::PendingJob job;
          job.job = json.at("job").as_u64();
          // Checked before decoding, whose WireError would keep only the
          // prefix and so truncate this acked job and every later record.
          const std::string retired = sctc::retired_monitor_mode_message(
              json.at("config").string_or("mode", ""));
          if (!retired.empty()) {
            recovered.retired_mode =
                "job " + std::to_string(job.job) + ": " + retired;
            return header_ok;
          }
          job.tenant = json.at("tenant").as_string();
          job.key = json.at("key").as_string();
          job.config = dist::config_from_json(json.at("config"));
          apply_campaign_shape(json, job.config);
          const std::uint64_t id = job.job;
          if (accepted.emplace(id, std::move(job)).second) {
            accepted_order.push_back(id);
          }
        } else if (type == "completed") {
          RecoveredServe::CompletedJob job;
          job.job = json.at("job").as_u64();
          job.key = json.at("key").as_string();
          job.cacheable = json.bool_or("cacheable", false);
          job.exit_code = static_cast<int>(json.at("exit").as_u64());
          job.report_json = json.at("report").as_string();
          resolved.insert(job.job);
          if (completed_seen.insert(job.job).second) {
            recovered.completed.push_back(std::move(job));
          }
        } else if (type == "cancelled") {
          resolved.insert(json.at("job").as_u64());
        } else {
          break;  // unknown record type: keep the prefix
        }
      } catch (const dist::WireError&) {
        break;
      }
      if (valid_out != nullptr) *valid_out = record.end_offset;
    }
    return header_ok;
  };

  const auto refused = [&] {
    RecoveredServe refusal;
    refusal.header_version = recovered.header_version;
    refusal.retired_mode = recovered.retired_mode;
    return refusal;
  };
  recovered.snapshot_valid = scan_segment(snapshot_path_for(path), true,
                                          nullptr);
  if (foreign_version || !recovered.retired_mode.empty()) return refused();
  const bool tail_ok = scan_segment(path, false, &recovered.valid_bytes);
  if (foreign_version || !recovered.retired_mode.empty()) return refused();
  recovered.header_valid = recovered.snapshot_valid || tail_ok;
  if (!tail_ok) recovered.valid_bytes = 0;

  for (const std::uint64_t id : accepted_order) {
    recovered.next_job_id = std::max(recovered.next_job_id, id + 1);
    if (resolved.count(id) != 0) continue;
    recovered.pending.push_back(std::move(accepted.at(id)));
  }
  for (const RecoveredServe::CompletedJob& job : recovered.completed) {
    recovered.next_job_id = std::max(recovered.next_job_id, job.job + 1);
  }
  return recovered;
}

}  // namespace esv::serve
