// Unit tests for the campaign checkpoint journal (docs/JOURNAL.md): the CRC,
// the config digest, writer/recover round trips, and — the part that earns
// the "crash-safe" name — recovery from every corruption shape a torn write
// can leave behind: truncated tail, flipped CRC byte, empty file, garbage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "chaos/chaos.hpp"
#include "journal/journal.hpp"
#include "pinned_config.hpp"

namespace esv::journal {
namespace {

const char* kProgram = R"(
int led;
int cycles;

void main(void) {
  led = 0;
  while (cycles < 50) {
    int enable = __in(enable);
    if (enable == 1) { led = 1; } else { led = 0; }
    cycles = cycles + 1;
  }
}
)";

const char* kSpec = R"(
input enable 0 1

prop on  = led == 1
prop off = led == 0

check legal: G (on || off)
)";

campaign::CampaignConfig small_config(std::uint64_t lo = 1,
                                      std::uint64_t hi = 8) {
  campaign::CampaignConfig config;
  config.program_source = kProgram;
  config.spec_text = kSpec;
  config.seed_lo = lo;
  config.seed_hi = hi;
  config.collect_metrics = true;
  return config;
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + "esv_journal_" + stem + "_" +
         std::to_string(::getpid()) + ".bin";
}

/// A SeedResult with every field populated, so round trips exercise the full
/// serialization (witness text with newlines, metrics, fault data, ...).
campaign::SeedResult rich_result(std::uint64_t seed) {
  campaign::SeedResult result;
  result.seed = seed;
  campaign::PropertyOutcome outcome;
  outcome.verdict = temporal::Verdict::kViolated;
  outcome.decided_at_step = 41 + seed;
  outcome.fault_class = sctc::FaultClass::kViolatedUnderFault;
  result.properties.push_back(outcome);
  result.steps = 100 + seed;
  result.statements = 200 + seed;
  result.draws = 50 + seed;
  result.finished = seed % 2 == 0;
  result.error = seed % 3 == 0 ? "assertion \"x\" failed\nat line 7" : "";
  result.error_kind = result.error.empty() ? "" : "sut";
  result.attempts = 2;
  result.witness = "step | on\n  41 |  1\n";
  result.prop_true_counts = {seed, 2 * seed};
  result.injected_faults = 3;
  result.fault_log = "step 5: bitflip led bit 0\n";
  result.fault_plan_digest = "00deadbeef00cafe";
  result.metrics.counters["esw.statements"] = 200 + seed;
  result.trace_jsonl = "{\"event\":\"seed_start\",\"seed\":" +
                       std::to_string(seed) + "}\n";
  result.wall_ms = 1.25;
  return result;
}

void expect_equal_results(const campaign::SeedResult& a,
                          const campaign::SeedResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.properties.size(), b.properties.size());
  for (std::size_t i = 0; i < a.properties.size(); ++i) {
    EXPECT_EQ(a.properties[i].verdict, b.properties[i].verdict);
    EXPECT_EQ(a.properties[i].decided_at_step, b.properties[i].decided_at_step);
    EXPECT_EQ(a.properties[i].fault_class, b.properties[i].fault_class);
  }
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.statements, b.statements);
  EXPECT_EQ(a.draws, b.draws);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.error_kind, b.error_kind);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.prop_true_counts, b.prop_true_counts);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.fault_log, b.fault_log);
  EXPECT_EQ(a.fault_plan_digest, b.fault_plan_digest);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_DOUBLE_EQ(a.wall_ms, b.wall_ms);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(JournalTest, Crc32MatchesKnownAnswer) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(JournalTest, ConfigDigestIsStableAndCoversResultFields) {
  const campaign::CampaignConfig base = small_config();
  EXPECT_EQ(config_digest(base), config_digest(base));
  EXPECT_EQ(config_digest(base).size(), 16u);

  // Every field that can change a result byte must change the digest.
  campaign::CampaignConfig changed = base;
  changed.spec_text += "\n";
  EXPECT_NE(config_digest(base), config_digest(changed));
  changed = base;
  changed.seed_hi += 1;
  EXPECT_NE(config_digest(base), config_digest(changed));
  changed = base;
  changed.max_steps += 1;
  EXPECT_NE(config_digest(base), config_digest(changed));
  changed = base;
  changed.fault_plan_text = "bitflip led window 1..2 prob 1/2\n";
  EXPECT_NE(config_digest(base), config_digest(changed));
  changed = base;
  changed.collect_metrics = !base.collect_metrics;
  EXPECT_NE(config_digest(base), config_digest(changed));
  changed = base;
  changed.seed_mem_limit_mb = 64;
  EXPECT_NE(config_digest(base), config_digest(changed));

  // Deployment shape never affects results, so it must not affect the
  // digest: a journal written under --jobs resumes under --workers.
  changed = base;
  changed.jobs = 8;
  changed.workers = 2;
  changed.worker_binary = "/elsewhere/esv-worker";
  EXPECT_EQ(config_digest(base), config_digest(changed));
}

TEST(JournalTest, ConfigDigestOfEachModeIsPinned) {
  // The digest hashes MonitorMode's numeric value, and it keys every
  // existing journal and esv-serve cache entry. These known answers were
  // recorded when the enum still held a fourth mode; a renumbering of the
  // remaining ones would break them.
  campaign::CampaignConfig config = small_config();
  config.mode = sctc::MonitorMode::kCompiled;
  EXPECT_EQ(config_digest(config), "c68889675cf55f46");
  config.mode = sctc::MonitorMode::kProgression;
  EXPECT_EQ(config_digest(config), "d7fed35fdf8b666c");
  config.mode = sctc::MonitorMode::kBoth;
  EXPECT_EQ(config_digest(config), "b5ae80793881b519");
}

TEST(JournalTest, ConfigDigestOfAFullConfigIsPinned) {
  // Every digested field at a non-default value at once.
  campaign::CampaignConfig config = pinned_full_config();
  EXPECT_EQ(config_digest(config), "e3020ef486c0c8f4");
  // The digest hashes the effective capture flag: trace_dir implies it.
  config.capture_traces = false;
  EXPECT_EQ(config_digest(config), "25546fa700371bc1");
  config.trace_dir = "traces";
  EXPECT_EQ(config_digest(config), "e3020ef486c0c8f4");
}

TEST(JournalTest, WriterRecoverRoundTripsEveryField) {
  const std::string path = temp_path("roundtrip");
  const campaign::CampaignConfig config = small_config(3, 9);
  {
    JournalWriter writer(path, config, SyncPolicy::kRecord);
    for (std::uint64_t seed = 3; seed <= 6; ++seed) {
      writer.append(rich_result(seed));
    }
    writer.close();
  }
  const RecoveredJournal recovered = recover(path);
  EXPECT_TRUE(recovered.header_valid);
  EXPECT_EQ(recovered.config_digest, config_digest(config));
  EXPECT_EQ(recovered.seed_lo, 3u);
  EXPECT_EQ(recovered.seed_hi, 9u);
  EXPECT_FALSE(recovered.tail_dropped);
  ASSERT_EQ(recovered.results.size(), 4u);
  for (std::uint64_t seed = 3; seed <= 6; ++seed) {
    expect_equal_results(recovered.results[seed - 3], rich_result(seed));
  }
  std::remove(path.c_str());
}

TEST(JournalTest, MissingAndEmptyFilesRecoverToNothing) {
  const RecoveredJournal missing = recover("/nonexistent/journal.bin");
  EXPECT_FALSE(missing.header_valid);
  EXPECT_EQ(missing.valid_bytes, 0u);
  EXPECT_TRUE(missing.results.empty());

  const std::string path = temp_path("empty");
  write_bytes(path, "");
  const RecoveredJournal empty = recover(path);
  EXPECT_FALSE(empty.header_valid);
  EXPECT_EQ(empty.valid_bytes, 0u);
  EXPECT_FALSE(empty.tail_dropped);  // nothing was there to drop
  std::remove(path.c_str());
}

TEST(JournalTest, TruncatedTailRecordIsDroppedNotFatal) {
  const std::string path = temp_path("truncated");
  const campaign::CampaignConfig config = small_config();
  {
    JournalWriter writer(path, config, SyncPolicy::kNone);
    writer.append(rich_result(1));
    writer.append(rich_result(2));
    writer.close();
  }
  const std::string full = read_bytes(path);
  const RecoveredJournal whole = recover(path);
  ASSERT_EQ(whole.results.size(), 2u);

  // Chop bytes off the tail: every cut length must recover the longest
  // valid record prefix, never throw, and report the cut as a drop.
  for (std::size_t cut = 1; cut < 40; ++cut) {
    write_bytes(path, full.substr(0, full.size() - cut));
    const RecoveredJournal recovered = recover(path);
    EXPECT_TRUE(recovered.header_valid);
    EXPECT_EQ(recovered.results.size(), 1u);
    EXPECT_TRUE(recovered.tail_dropped);
    EXPECT_LT(recovered.valid_bytes, full.size());
  }
  std::remove(path.c_str());
}

TEST(JournalTest, FlippedCrcByteDropsTheRecordAndTheRest) {
  const std::string path = temp_path("crcflip");
  const campaign::CampaignConfig config = small_config();
  {
    JournalWriter writer(path, config, SyncPolicy::kNone);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      writer.append(rich_result(seed));
    }
    writer.close();
  }
  std::string bytes = read_bytes(path);
  const RecoveredJournal whole = recover(path);
  ASSERT_EQ(whole.results.size(), 3u);

  // Flip one payload byte of the *second* seed record. Recovery keeps the
  // header and seed 1, drops seed 2 and (by the prefix rule) seed 3.
  const std::uint64_t keep = whole.valid_bytes;  // whole file
  std::string dump = bytes;
  // Find the second seed record's start: walk the first two records.
  auto record_size = [&](std::size_t at) {
    const unsigned char* b =
        reinterpret_cast<const unsigned char*>(bytes.data() + at);
    const std::uint32_t length = static_cast<std::uint32_t>(b[0]) |
                                 static_cast<std::uint32_t>(b[1]) << 8 |
                                 static_cast<std::uint32_t>(b[2]) << 16 |
                                 static_cast<std::uint32_t>(b[3]) << 24;
    return static_cast<std::size_t>(8 + length + 1);
  };
  std::size_t second_seed = record_size(0);              // header
  second_seed += record_size(second_seed);               // seed 1
  dump[second_seed + 8 + 10] ^= 0x01;                    // payload byte
  write_bytes(path, dump);

  const RecoveredJournal recovered = recover(path);
  EXPECT_TRUE(recovered.header_valid);
  ASSERT_EQ(recovered.results.size(), 1u);
  EXPECT_EQ(recovered.results[0].seed, 1u);
  EXPECT_TRUE(recovered.tail_dropped);
  EXPECT_LT(recovered.valid_bytes, keep);
  std::remove(path.c_str());
}

TEST(JournalTest, GarbageFileRecoversToNothing) {
  const std::string path = temp_path("garbage");
  write_bytes(path, "this is not a journal at all, not even close........");
  const RecoveredJournal recovered = recover(path);
  EXPECT_FALSE(recovered.header_valid);
  EXPECT_EQ(recovered.valid_bytes, 0u);
  EXPECT_TRUE(recovered.tail_dropped);
  std::remove(path.c_str());
}

/// Frames one payload in the journal's record layout (u32 length, u32 CRC,
/// payload, '\n') — for crafting files as an older build would have.
std::string frame_record(const std::string& payload) {
  std::string out;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  out += payload;
  out.push_back('\n');
  return out;
}

TEST(JournalTest, OlderFormatVersionIsReportedNotResumed) {
  // A well-formed v1 header, as a pre-digest-fix build wrote it. Nothing
  // may be resumed from it (v1 digests no longer match anything this build
  // computes), but recovery must name the version so the caller can say
  // "written by an older version" instead of a generic digest mismatch.
  const std::string path = temp_path("oldversion");
  write_bytes(path, frame_record(
                        "{\"type\":\"header\",\"version\":1,"
                        "\"config_digest\":\"00112233445566aa\","
                        "\"seed_lo\":1,\"seed_hi\":8}"));
  const RecoveredJournal stale = recover(path);
  EXPECT_FALSE(stale.header_valid);
  EXPECT_EQ(stale.header_version, 1u);
  EXPECT_TRUE(stale.results.empty());
  EXPECT_EQ(stale.valid_bytes, 0u);

  // A current-version journal reports its version too.
  {
    JournalWriter writer(path, small_config(), SyncPolicy::kNone);
    writer.close();
  }
  const RecoveredJournal fresh = recover(path);
  EXPECT_TRUE(fresh.header_valid);
  EXPECT_EQ(fresh.header_version, kJournalVersion);
  std::remove(path.c_str());
}

TEST(JournalTest, DuplicateSeedRecordsKeepTheFirst) {
  const std::string path = temp_path("dup");
  const campaign::CampaignConfig config = small_config();
  {
    JournalWriter writer(path, config, SyncPolicy::kNone);
    campaign::SeedResult first = rich_result(4);
    first.steps = 111;
    writer.append(first);
    campaign::SeedResult second = rich_result(4);
    second.steps = 222;
    writer.append(second);
    writer.close();
  }
  const RecoveredJournal recovered = recover(path);
  ASSERT_EQ(recovered.results.size(), 1u);
  EXPECT_EQ(recovered.results[0].steps, 111u);
  std::remove(path.c_str());
}

TEST(JournalTest, ResumeWriterTruncatesTheTornTailAndAppends) {
  const std::string path = temp_path("resume");
  const campaign::CampaignConfig config = small_config();
  {
    JournalWriter writer(path, config, SyncPolicy::kNone);
    writer.append(rich_result(1));
    writer.append(rich_result(2));
    writer.close();
  }
  // Tear the tail record in half, as a crash mid-write would.
  std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() - 20));

  const RecoveredJournal first = recover(path);
  ASSERT_EQ(first.results.size(), 1u);
  {
    JournalWriter writer(path, config, SyncPolicy::kRecord, first.valid_bytes);
    writer.append(rich_result(2));
    writer.append(rich_result(3));
    writer.close();
  }
  const RecoveredJournal second = recover(path);
  EXPECT_TRUE(second.header_valid);
  EXPECT_FALSE(second.tail_dropped);
  ASSERT_EQ(second.results.size(), 3u);
  EXPECT_EQ(second.results[0].seed, 1u);
  EXPECT_EQ(second.results[1].seed, 2u);
  EXPECT_EQ(second.results[2].seed, 3u);
  std::remove(path.c_str());
}

TEST(JournalTest, InProcessResumeReproducesTheUninterruptedReport) {
  const std::string path = temp_path("equivalence");
  campaign::CampaignConfig config = small_config(1, 10);
  config.jobs = 4;

  // Reference: an uninterrupted run (no journal at all).
  const campaign::CampaignReport reference = campaign::run(config);

  // Interrupted run: journal every result, then keep only a prefix of the
  // journal, as if the orchestrator died after a handful of seeds.
  {
    campaign::CampaignConfig journaled = config;
    JournalWriter writer(path, config, SyncPolicy::kNone);
    journaled.on_result = [&](const campaign::SeedResult& result) {
      writer.append(result);
    };
    campaign::run(journaled);
    writer.close();
  }
  RecoveredJournal recovered = recover(path);
  ASSERT_EQ(recovered.results.size(), 10u);
  recovered.results.resize(4);  // pretend seeds after the 4th were lost

  campaign::CampaignConfig resumed = config;
  resumed.resume_results = recovered.results;
  // on_result runs on the worker thread that computed the seed.
  std::atomic<std::uint64_t> journaled_on_resume{0};
  resumed.on_result = [&](const campaign::SeedResult&) {
    ++journaled_on_resume;
  };
  const campaign::CampaignReport report = campaign::run(resumed);

  // Only the 6 missing seeds were recomputed (and re-journaled), and every
  // deterministic rendering is byte-identical to the uninterrupted run.
  EXPECT_EQ(journaled_on_resume.load(), 6u);
  EXPECT_EQ(report.verdict_table(), reference.verdict_table());
  EXPECT_EQ(report.summary(), reference.summary());
  EXPECT_EQ(report.to_json(/*include_timing=*/false),
            reference.to_json(/*include_timing=*/false));
  EXPECT_EQ(report.metrics.to_json(/*include_timing=*/false),
            reference.metrics.to_json(/*include_timing=*/false));
  std::remove(path.c_str());
}

TEST(JournalTest, BatchSyncPolicyCountsRecords) {
  const std::string path = temp_path("batch");
  const campaign::CampaignConfig config = small_config();
  JournalWriter writer(path, config, SyncPolicy::kBatch);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    writer.append(rich_result(seed));
  }
  // 1 header + 40 seeds; every record is on disk regardless of fsync policy
  // once written (fsync only hardens against power loss, not process kill).
  EXPECT_EQ(writer.records_written(), 41u);
  writer.close();
  const RecoveredJournal recovered = recover(path);
  EXPECT_EQ(recovered.results.size(), 40u);
  std::remove(path.c_str());
}

// --- snapshot-then-swap segments (docs/JOURNAL.md "Compaction") -----------

/// Installs a chaos plan for one scope and uninstalls on destruction, so a
/// throwing assertion cannot leak an engine into the next test.
class ScopedChaos {
 public:
  explicit ScopedChaos(const std::string& plan)
      : engine_(chaos::parse_plan(plan), /*seed=*/1) {
    chaos::ChaosEngine::install(&engine_);
  }
  ~ScopedChaos() { chaos::ChaosEngine::install(nullptr); }

 private:
  chaos::ChaosEngine engine_;
};

TEST(JournalSnapshotTest, WriteSnapshotRoundTripsThroughScan) {
  const std::string path = temp_path("snap_roundtrip");
  const std::vector<std::string> payloads = {
      "{\"type\":\"header\",\"n\":1}", "{\"a\":1}", "{\"b\":\"two\"}"};
  const std::uint64_t bytes = write_snapshot(path, payloads);
  const ScannedRecords scanned = scan_records(path);
  ASSERT_EQ(scanned.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scanned.records[i].payload, payloads[i]);
  }
  EXPECT_EQ(scanned.file_size, bytes);
  EXPECT_EQ(scanned.valid_bytes, bytes);
  EXPECT_FALSE(scanned.tail_dropped);
  std::remove(path.c_str());
}

TEST(JournalSnapshotTest, WriteSnapshotAtomicallyReplacesThePrevious) {
  const std::string path = temp_path("snap_replace");
  write_snapshot(path, {"{\"old\":true}", "{\"stale\":1}"});
  write_snapshot(path, {"{\"new\":true}"});
  const ScannedRecords scanned = scan_records(path);
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(scanned.records[0].payload, "{\"new\":true}");
  // The swap leaves no temp file behind.
  EXPECT_EQ(scan_records(path + ".tmp").file_size, 0u);
  std::remove(path.c_str());
}

TEST(JournalSnapshotTest, EnospcDuringSnapshotLeavesTheOldOneIntact) {
  const std::string path = temp_path("snap_enospc");
  write_snapshot(path, {"{\"keep\":true}"});
  {
    ScopedChaos chaos("journal.snapshot enospc nth 1");
    EXPECT_THROW(write_snapshot(path, {"{\"never\":1}"}), JournalError);
  }
  const ScannedRecords scanned = scan_records(path);
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(scanned.records[0].payload, "{\"keep\":true}");
  EXPECT_EQ(scan_records(path + ".tmp").file_size, 0u);
  std::remove(path.c_str());
}

TEST(JournalSnapshotTest, TornSnapshotWriteLeavesTheOldOneIntact) {
  const std::string path = temp_path("snap_torn");
  write_snapshot(path, {"{\"keep\":true}"});
  {
    ScopedChaos chaos("journal.snapshot failwrite nth 1");
    EXPECT_THROW(write_snapshot(path, {"{\"never\":1}", "{\"never\":2}"}),
                 JournalError);
  }
  const ScannedRecords scanned = scan_records(path);
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(scanned.records[0].payload, "{\"keep\":true}");
  EXPECT_EQ(scan_records(path + ".tmp").file_size, 0u);
  std::remove(path.c_str());
}

TEST(JournalSnapshotTest, FailedRenameLeavesTheOldSnapshotIntact) {
  const std::string path = temp_path("snap_rename");
  write_snapshot(path, {"{\"keep\":true}"});
  {
    ScopedChaos chaos("journal.rename failrename nth 1");
    EXPECT_THROW(write_snapshot(path, {"{\"never\":1}"}), JournalError);
  }
  const ScannedRecords scanned = scan_records(path);
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(scanned.records[0].payload, "{\"keep\":true}");
  EXPECT_EQ(scan_records(path + ".tmp").file_size, 0u);
  std::remove(path.c_str());
}

TEST(JournalSnapshotTest, RecordLogRestartRotatesToAFreshFirstRecord) {
  const std::string path = temp_path("restart");
  RecordLog log(path, SyncPolicy::kBatch);
  log.append("{\"header\":1}");
  for (int i = 0; i < 10; ++i) log.append("{\"bulk\":" + std::to_string(i) + "}");
  const std::uint64_t before = log.bytes();
  EXPECT_GT(before, 0u);

  log.restart("{\"header\":2}");
  EXPECT_LT(log.bytes(), before);
  log.append("{\"after\":true}");
  log.close();

  const ScannedRecords scanned = scan_records(path);
  ASSERT_EQ(scanned.records.size(), 2u);
  EXPECT_EQ(scanned.records[0].payload, "{\"header\":2}");
  EXPECT_EQ(scanned.records[1].payload, "{\"after\":true}");
  std::remove(path.c_str());
}

TEST(JournalSnapshotTest, RecordLogBytesMatchesTheFileLength) {
  const std::string path = temp_path("bytes");
  RecordLog log(path, SyncPolicy::kNone);
  log.append("{\"a\":1}");
  log.append("{\"bb\":22}");
  log.close();
  EXPECT_EQ(read_bytes(path).size(), 0u + log.bytes());
  EXPECT_EQ(scan_records(path).file_size, log.bytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace esv::journal
