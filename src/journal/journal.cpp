#include "journal/journal.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <type_traits>

#include "campaign/config_fields.hpp"
#include "chaos/chaos.hpp"
#include "common/digest.hpp"
#include "dist/wire.hpp"

namespace esv::journal {

// --- configuration digest ------------------------------------------------

std::string config_digest(const campaign::CampaignConfig& config) {
  common::Fnv1a digest;
  campaign::visit_config_fields<campaign::kInDigest>(
      config, [&](const char*, const auto& value, unsigned) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          digest.feed(value);
        } else if constexpr (std::is_same_v<T, bool>) {
          // trace_dir implies capture_traces inside the runner, so hash the
          // *effective* capture flag; the directory path is host-only.
          const bool on = &value == &config.capture_traces
                              ? value || !config.trace_dir.empty()
                              : value;
          digest.feed(static_cast<std::uint64_t>(on ? 1 : 0));
        } else if constexpr (std::is_same_v<T, double>) {
          std::ostringstream text;
          text.precision(17);
          text << value;
          digest.feed(text.str());
        } else {
          // Integers, and MonitorMode by its explicit, digest-stable value
          // (progression=0, compiled=2, both=3), so journals of the
          // remaining modes still resume.
          digest.feed(static_cast<std::uint64_t>(value));
        }
      });
  return digest.hex();
}

std::optional<SyncPolicy> parse_sync_policy(std::string_view name) {
  if (name == "record") return SyncPolicy::kRecord;
  if (name == "batch") return SyncPolicy::kBatch;
  if (name == "none") return SyncPolicy::kNone;
  return std::nullopt;
}

// --- record framing ------------------------------------------------------

namespace {

using common::kRecordHeaderBytes;

std::string frame_record(const std::string& payload) {
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size() + 1);
  common::append_record_header(record, payload);
  record += payload;
  record += '\n';
  return record;
}

std::string header_payload(const campaign::CampaignConfig& config) {
  std::string out = "{\"type\":\"header\",\"version\":";
  out += std::to_string(kJournalVersion);
  out += ",\"config_digest\":" + dist::json_string(config_digest(config));
  out += ",\"seed_lo\":" + std::to_string(config.seed_lo);
  out += ",\"seed_hi\":" + std::to_string(config.seed_hi);
  out += "}";
  return out;
}

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw JournalError("journal: " + what + " " + path + ": " +
                     std::strerror(errno));
}

// The compaction kill drill (docs/RESILIENCE.md): a `crash` directive on a
// journal.* point dies exactly like kill -9 would at that step, so the
// recovery paths are exercised against real half-finished swaps.
[[noreturn]] void chaos_crash() {
  ::raise(SIGKILL);
  ::_exit(137);  // unreachable unless SIGKILL is somehow not deliverable
}

}  // namespace

// --- RecordLog -----------------------------------------------------------

RecordLog::RecordLog(const std::string& path, SyncPolicy sync,
                     std::uint64_t keep_bytes)
    : path_(path), sync_(sync), bytes_(keep_bytes) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) io_error("cannot open", path);
  if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0) {
    io_error("cannot truncate", path);
  }
}

RecordLog::~RecordLog() {
  try {
    close();
  } catch (const JournalError&) {
    // Destructor cleanup must not throw; an explicit close() reports errors.
  }
}

void RecordLog::append(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  write_record(payload);
}

void RecordLog::write_record(const std::string& payload) {
  if (fd_ < 0) throw JournalError("journal: writer is closed: " + path_);
  const std::string record = frame_record(payload);
  // One write(2) per record: O_APPEND makes it atomic with respect to other
  // writers of this fd, and a crash can tear at most the record in flight.
  const char* data = record.data();
  std::size_t left = record.size();
  // Self-chaos (docs/RESILIENCE.md): kFailWrite tears the record exactly the
  // way a crashed writer would — half the bytes land, then the write reports
  // EIO — so the recovery scan's torn-tail path runs against a real file.
  // kEnospc fails before any byte lands. kShortWrite degrades the loop to
  // one-byte writes (it must still succeed byte-identically).
  std::size_t chunk_cap = 0;
  switch (chaos::at(chaos::Point::kJournalWrite).action) {
    case chaos::Action::kFailWrite: {
      const std::size_t half = record.size() / 2;
      std::size_t wrote_total = 0;
      while (wrote_total < half) {
        const ssize_t wrote =
            ::write(fd_, data + wrote_total, half - wrote_total);
        if (wrote <= 0) break;  // best effort: the tear itself is the point
        wrote_total += static_cast<std::size_t>(wrote);
      }
      errno = EIO;
      io_error("write failed on", path_);
    }
    case chaos::Action::kEnospc:
      errno = ENOSPC;
      io_error("write failed on", path_);
    case chaos::Action::kShortWrite:
      chunk_cap = 1;
      break;
    default:
      break;
  }
  while (left != 0) {
    const std::size_t ask =
        chunk_cap != 0 && chunk_cap < left ? chunk_cap : left;
    const ssize_t wrote = ::write(fd_, data, ask);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      io_error("write failed on", path_);
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  bytes_ += record.size();
  ++records_written_;
  ++unsynced_records_;
  if (sync_ == SyncPolicy::kRecord ||
      (sync_ == SyncPolicy::kBatch && unsynced_records_ >= kBatchSyncInterval)) {
    sync_now();
  }
}

void RecordLog::sync_now() {
  if (chaos::at(chaos::Point::kJournalFsync).action ==
      chaos::Action::kFailSync) {
    errno = EIO;
    io_error("fsync failed on", path_);
  }
  if (::fsync(fd_) != 0) io_error("fsync failed on", path_);
  unsynced_records_ = 0;
}

void RecordLog::restart(const std::string& first_payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) throw JournalError("journal: writer is closed: " + path_);
  if (chaos::at(chaos::Point::kJournalTruncate).action ==
      chaos::Action::kCrash) {
    chaos_crash();
  }
  if (::ftruncate(fd_, 0) != 0) io_error("cannot truncate", path_);
  // O_APPEND repositions every write at the (now zero) end of file, so the
  // first record lands at offset 0 without an explicit seek.
  bytes_ = 0;
  unsynced_records_ = 0;
  write_record(first_payload);
  // The fresh first record is synced eagerly (policy permitting): the
  // snapshot swap this rotation follows was fsynced, and a tail that loses
  // its header to a power cut merely recovers as empty.
  if (sync_ != SyncPolicy::kNone && unsynced_records_ != 0) sync_now();
}

std::uint64_t RecordLog::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void RecordLog::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  if (sync_ != SyncPolicy::kNone && unsynced_records_ != 0) sync_now();
  ::close(fd_);
  fd_ = -1;
}

// --- JournalWriter -------------------------------------------------------

JournalWriter::JournalWriter(const std::string& path,
                             const campaign::CampaignConfig& config,
                             SyncPolicy sync)
    : JournalWriter(path, config, sync, 0) {}

JournalWriter::JournalWriter(const std::string& path,
                             const campaign::CampaignConfig& config,
                             SyncPolicy sync, std::uint64_t keep_bytes)
    : log_(path, sync, keep_bytes) {
  if (keep_bytes == 0) {
    log_.append(header_payload(config));
  }
}

void JournalWriter::append(const campaign::SeedResult& result) {
  std::string payload = "{\"type\":\"seed\",\"result\":";
  payload += dist::seed_result_to_json(result);
  payload += "}";
  log_.append(payload);
}

void JournalWriter::close() { log_.close(); }

// --- recovery ------------------------------------------------------------

ScannedRecords scan_records(const std::string& path) {
  ScannedRecords scanned;

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Missing file: a crash can precede the log's creation; there is simply
    // nothing to scan.
    return scanned;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) io_error("cannot read", path);
  const std::string bytes = buffer.str();
  scanned.file_size = bytes.size();

  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // A record shorter than its framing, a CRC mismatch, or a missing
    // trailing newline all mean the same thing here: the writer died
    // mid-record (or the tail was otherwise damaged). Keep the prefix,
    // drop the rest.
    if (bytes.size() - pos < kRecordHeaderBytes) break;
    const std::uint32_t length = common::read_u32_le(bytes.data() + pos);
    const std::uint32_t expected_crc =
        common::read_u32_le(bytes.data() + pos + 4);
    const std::size_t payload_at = pos + kRecordHeaderBytes;
    if (bytes.size() - payload_at < static_cast<std::size_t>(length) + 1) break;
    if (bytes[payload_at + length] != '\n') break;
    const char* payload = bytes.data() + payload_at;
    if (crc32(payload, length) != expected_crc) break;

    pos = payload_at + length + 1;
    scanned.records.push_back({std::string(payload, length), pos});
    scanned.valid_bytes = pos;
  }

  scanned.tail_dropped = scanned.valid_bytes != bytes.size();
  return scanned;
}

// --- snapshot-then-swap --------------------------------------------------

namespace {

/// fsync of the directory holding `path`, so the rename that just committed
/// inside it survives a power cut. Failure is reported: the swap itself is
/// already durable-or-not on disk (both states recover), but the caller
/// must know the promise was not kept.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) io_error("cannot open directory of", path);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_error("cannot fsync directory of", path);
  }
  ::close(fd);
}

}  // namespace

std::uint64_t write_snapshot(const std::string& path,
                             const std::vector<std::string>& payloads) {
  const std::string tmp = path + ".tmp";

  // One buffer, one chaos probe per swap: the snapshot is all-or-nothing by
  // construction (the rename is the commit point), so per-record tears are
  // uninteresting — what matters is dying or failing at each *step*.
  std::string image;
  for (const std::string& payload : payloads) {
    image += frame_record(payload);
  }

  bool fail_sync = false;
  std::size_t write_cap = image.size();
  switch (chaos::at(chaos::Point::kJournalSnapshot).action) {
    case chaos::Action::kCrash:
      chaos_crash();
    case chaos::Action::kEnospc:
      errno = ENOSPC;
      io_error("snapshot write failed on", tmp);
    case chaos::Action::kFailWrite:
      write_cap = image.size() / 2;  // tear the temp file, then report EIO
      break;
    case chaos::Action::kFailSync:
      fail_sync = true;
      break;
    default:
      break;
  }

  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_error("cannot open", tmp);
  const auto fail = [&](const char* what, int saved_errno) -> void {
    ::close(fd);
    ::unlink(tmp.c_str());  // best effort; a leftover tmp is inert anyway
    errno = saved_errno;
    io_error(what, tmp);
  };

  const char* data = image.data();
  std::size_t left = write_cap;
  while (left != 0) {
    const ssize_t wrote = ::write(fd, data, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail("snapshot write failed on", errno);
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  if (write_cap != image.size()) fail("snapshot write failed on", EIO);
  if (fail_sync) fail("snapshot fsync failed on", EIO);
  if (::fsync(fd) != 0) fail("snapshot fsync failed on", errno);
  ::close(fd);

  switch (chaos::at(chaos::Point::kJournalRename).action) {
    case chaos::Action::kCrash:
      chaos_crash();
    case chaos::Action::kFailRename:
      ::unlink(tmp.c_str());
      errno = EIO;
      io_error("cannot rename snapshot onto", path);
    default:
      break;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    io_error("cannot rename snapshot onto", path);
  }
  sync_parent_dir(path);
  return image.size();
}

RecoveredJournal recover(const std::string& path) {
  RecoveredJournal recovered;
  const ScannedRecords scanned = scan_records(path);

  std::set<std::uint64_t> seen_seeds;
  bool expect_header = true;
  for (const ScannedRecords::Record& record : scanned.records) {
    // An unparsable payload or an unknown record type is treated like
    // framing corruption: keep the prefix, drop the rest.
    campaign::SeedResult result;
    bool is_seed = false;
    try {
      const dist::Json json = dist::Json::parse(record.payload);
      const std::string type = json.string_or("type", "");
      if (expect_header) {
        if (type != "header") break;
        recovered.header_version = json.at("version").as_u64();
        // A foreign version is not corruption: report it (the caller can
        // say "written by an older version") but resume nothing from it.
        if (recovered.header_version != kJournalVersion) break;
        recovered.config_digest = json.at("config_digest").as_string();
        recovered.seed_lo = json.at("seed_lo").as_u64();
        recovered.seed_hi = json.at("seed_hi").as_u64();
      } else if (type == "seed") {
        result = dist::seed_result_from_json(json.at("result"));
        is_seed = true;
      } else {
        break;
      }
    } catch (const dist::WireError&) {
      break;
    }

    if (expect_header) {
      recovered.header_valid = true;
      expect_header = false;
    } else if (is_seed && seen_seeds.insert(result.seed).second) {
      recovered.results.push_back(std::move(result));
    }
    recovered.valid_bytes = record.end_offset;
  }

  recovered.tail_dropped = recovered.valid_bytes != scanned.file_size;
  return recovered;
}

}  // namespace esv::journal
