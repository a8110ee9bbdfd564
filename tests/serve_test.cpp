// Unit tier of the esv-serve verification service (docs/SERVE.md): the
// content-addressed cache key, the result cache (including its LRU bound),
// the serve journal's roundtrip, truncation and compaction recovery
// (snapshot + tail, cut at every byte), multi-tenant fairness and quotas,
// bounded-queue backpressure, disk-budget compaction under churn, slow- and
// idle-client eviction, and the full submit/cancel/status protocol against
// an in-process Server on a real Unix-domain socket.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "dist/wire.hpp"
#include "journal/journal.hpp"
#include "pinned_config.hpp"
#include "serve/cache.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using esv::campaign::CampaignConfig;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "esv_serve_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// A fast blinker: one seed is a few hundred statements.
const char* kProgram = R"(
enum { LED_OFF = 0, LED_ON = 1 };

int led;
int cycles;

void main(void) {
  led = LED_OFF;
  while (cycles < 50) {
    int enable = __in(enable);
    if (enable == 1) {
      if (led == LED_OFF) { led = LED_ON; } else { led = LED_OFF; }
    } else {
      led = LED_OFF;
    }
    cycles = cycles + 1;
  }
}
)";

// The same blinker slowed enough that a handful of seeds keeps an executor
// busy while the test queues more work behind it.
const char* kSlowProgram = R"(
enum { LED_OFF = 0, LED_ON = 1 };

int led;
int cycles;

void main(void) {
  led = LED_OFF;
  while (cycles < 4000) {
    int enable = __in(enable);
    if (enable == 1) {
      if (led == LED_OFF) { led = LED_ON; } else { led = LED_OFF; }
    } else {
      led = LED_OFF;
    }
    cycles = cycles + 1;
  }
}
)";

const char* kSpec = R"(
input enable 0 1

prop led_on    = led == LED_ON
prop led_off   = led == LED_OFF

check legal: G (led_on || led_off)
)";

CampaignConfig sample_config() {
  CampaignConfig config;
  config.program_source = kProgram;
  config.spec_text = kSpec;
  config.seed_lo = 1;
  config.seed_hi = 2;
  return config;
}

CampaignConfig slow_config(std::uint64_t seed_hi) {
  CampaignConfig config;
  config.program_source = kSlowProgram;
  config.spec_text = kSpec;
  config.seed_lo = 1;
  config.seed_hi = seed_hi;
  return config;
}

// --- socket-side test client ---------------------------------------------

int connect_client(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // The server binds before Server's constructor returns, so a failed
  // connect is a test bug, not a race.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads frames until one of `kind`, skipping progress frames (anything
/// else unexpected fails the test).
esv::dist::Json await_frame(int fd, esv::serve::FrameKind kind) {
  for (;;) {
    const auto payload = esv::dist::read_frame(fd);
    if (!payload) {
      ADD_FAILURE() << "connection closed while awaiting a frame";
      return esv::dist::Json::parse("{}");
    }
    esv::dist::Json json = esv::dist::Json::parse(*payload);
    const esv::serve::FrameKind got = esv::serve::frame_kind(json);
    if (got == kind) return json;
    if (got == esv::serve::FrameKind::kProgress) continue;
    ADD_FAILURE() << "unexpected frame: " << *payload;
    return json;
  }
}

struct ServerFixture {
  explicit ServerFixture(esv::serve::ServerOptions options)
      : server(std::move(options)), thread([this] { server.run(); }) {}
  ~ServerFixture() {
    server.request_stop();
    thread.join();
    std::remove(server.socket_path().c_str());
  }
  esv::serve::Server server;
  std::thread thread;
};

// --- cache ---------------------------------------------------------------

TEST(ServeCacheTest, JobKeyIsDeterministicAndContentSensitive) {
  const CampaignConfig base = sample_config();
  const std::string key = esv::serve::job_key(base).combined();
  EXPECT_EQ(key, esv::serve::job_key(base).combined());

  CampaignConfig other = base;
  other.program_source += " ";
  EXPECT_NE(key, esv::serve::job_key(other).combined());

  other = base;
  other.spec_text += "\n";
  EXPECT_NE(key, esv::serve::job_key(other).combined());

  other = base;
  other.seed_hi = base.seed_hi + 1;
  EXPECT_NE(key, esv::serve::job_key(other).combined());

  other = base;
  other.max_steps = base.max_steps + 1;
  EXPECT_NE(key, esv::serve::job_key(other).combined());

  // Parallelism shape changes the schedule, never the result bytes — the
  // key must not fragment the cache over it.
  other = base;
  other.jobs = 8;
  other.workers = 2;
  EXPECT_EQ(key, esv::serve::job_key(other).combined());
}

TEST(ServeCacheTest, WallClockBudgetsAreNotCacheable) {
  CampaignConfig config = sample_config();
  EXPECT_TRUE(esv::serve::config_cacheable(config));
  config.seed_timeout_seconds = 1.0;
  EXPECT_FALSE(esv::serve::config_cacheable(config));
  config = sample_config();
  config.campaign_timeout_seconds = 1.0;
  EXPECT_FALSE(esv::serve::config_cacheable(config));
}

TEST(ServeCacheTest, LookupCountsAndFirstInsertWins) {
  esv::serve::ResultCache cache;
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert("k", {"report-a", 0});
  cache.insert("k", {"report-b", 1});  // duplicate: first write wins
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report_json, "report-a");
  EXPECT_EQ(hit->exit_code, 0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// --- persistence ---------------------------------------------------------

TEST(ServeProtocolTest, SubmitOfAFullConfigIsPinned) {
  // Every shape and wire field at a non-default value at once; serve
  // journals hold these bytes.
  const CampaignConfig config = pinned_full_config();
  const std::string submit = esv::serve::make_submit("tenant-a", config);
  EXPECT_EQ(submit,
            std::string("{\"type\":\"submit\",\"v\":1,\"tenant\":\"tenant-a\","
                        "\"seed_lo\":7,\"seed_hi\":4242,\"workers\":5,"
                        "\"config\":") +
                kPinnedFullConfigJson + "}");
  // Decoding the submit recovers every digested field and the shape.
  const esv::dist::Json json = esv::dist::Json::parse(submit);
  CampaignConfig decoded = esv::dist::config_from_json(json.at("config"));
  esv::serve::apply_campaign_shape(json, decoded);
  EXPECT_EQ(esv::journal::config_digest(decoded),
            esv::journal::config_digest(config));
  EXPECT_EQ(decoded.workers, 5u);
  EXPECT_EQ(decoded.jobs, 3u);
}

TEST(ServePersistTest, RoundtripRecoversPendingAndCompleted) {
  const std::string path = temp_path("roundtrip.esvj");
  std::remove(path.c_str());
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    CampaignConfig config = sample_config();
    config.seed_hi = 7;
    config.workers = 2;
    journal.append_accepted(1, "alpha", "key-1", config);
    journal.append_accepted(2, "beta", "key-2", sample_config());
    journal.append_accepted(3, "alpha", "key-3", sample_config());
    journal.append_completed(1, "key-1", /*cacheable=*/true, 0,
                             "{\"report\":1}");
    journal.append_cancelled(2);
    journal.close();
  }
  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_TRUE(recovered.header_valid);
  ASSERT_EQ(recovered.pending.size(), 1u);
  EXPECT_EQ(recovered.pending[0].job, 3u);
  EXPECT_EQ(recovered.pending[0].tenant, "alpha");
  EXPECT_EQ(recovered.pending[0].key, "key-3");
  ASSERT_EQ(recovered.completed.size(), 1u);
  EXPECT_EQ(recovered.completed[0].job, 1u);
  EXPECT_TRUE(recovered.completed[0].cacheable);
  EXPECT_EQ(recovered.completed[0].report_json, "{\"report\":1}");
  EXPECT_EQ(recovered.next_job_id, 4u);
  std::remove(path.c_str());
}

TEST(ServePersistTest, CampaignShapeSurvivesTheJournal) {
  const std::string path = temp_path("shape.esvj");
  std::remove(path.c_str());
  CampaignConfig config = sample_config();
  config.seed_lo = 3;
  config.seed_hi = 17;
  config.workers = 2;
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    journal.append_accepted(1, "t", "k", config);
    journal.close();
  }
  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  ASSERT_EQ(recovered.pending.size(), 1u);
  EXPECT_EQ(recovered.pending[0].config.seed_lo, 3u);
  EXPECT_EQ(recovered.pending[0].config.seed_hi, 17u);
  EXPECT_EQ(recovered.pending[0].config.workers, 2u);
  std::remove(path.c_str());
}

TEST(ServePersistTest, EveryTruncationRecoversAConsistentPrefix) {
  const std::string path = temp_path("truncate.esvj");
  std::remove(path.c_str());
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    journal.append_accepted(1, "a", "key-1", sample_config());
    journal.append_accepted(2, "b", "key-2", sample_config());
    journal.append_completed(1, "key-1", true, 0, "{\"r\":1}");
    journal.append_cancelled(2);
    journal.close();
  }
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  const esv::serve::RecoveredServe whole = esv::serve::recover_serve(path);
  EXPECT_TRUE(whole.pending.empty());
  ASSERT_EQ(whole.completed.size(), 1u);

  const std::string cut = temp_path("truncate_cut.esvj");
  std::size_t last_pending = 0, last_completed = 1;
  for (std::size_t length = full.size(); length-- > 0;) {
    write_file(cut, full.substr(0, length));
    const esv::serve::RecoveredServe recovered =
        esv::serve::recover_serve(cut);  // must never throw
    EXPECT_LE(recovered.valid_bytes, length);
    // A record can only vanish from the tail, so the recovered state walks
    // monotonically back toward empty: completed never reappears, and a
    // job can only move from resolved back to pending, never get invented.
    EXPECT_LE(recovered.completed.size(), last_completed);
    last_completed = recovered.completed.size();
    EXPECT_LE(recovered.pending.size() + recovered.completed.size(), 2u);
    for (const auto& done : recovered.completed) {
      EXPECT_EQ(done.report_json, "{\"r\":1}")
          << "a torn tail corrupted a completed report";
    }
    (void)last_pending;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

/// Frames one payload in the journal's record layout (u32 length, u32 CRC,
/// payload, '\n') — for crafting files as an older build would have.
std::string frame_record(const std::string& payload) {
  std::string out;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc =
      esv::journal::crc32(payload.data(), payload.size());
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

TEST(ServePersistTest, OlderJournalVersionRefusesToStartTheDaemon) {
  // A v1 serve journal: its digests (pre-fix FNV-1a) no longer match any
  // key this build computes, so recovery reports the stale version and the
  // daemon refuses to start instead of truncating the operator's file or
  // replaying stale cache keys.
  const std::string path = temp_path("oldversion.esvj");
  const std::string bytes =
      frame_record("{\"type\":\"serve-header\",\"version\":1}");
  write_file(path, bytes);

  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_FALSE(recovered.header_valid);
  EXPECT_EQ(recovered.header_version, 1u);
  EXPECT_TRUE(recovered.pending.empty());
  EXPECT_TRUE(recovered.completed.empty());

  esv::serve::ServerOptions options;
  options.socket_path = temp_path("oldversion.sock");
  options.journal_path = path;
  try {
    esv::serve::Server server(options);
    FAIL() << "a v1 serve journal must refuse to start the daemon";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("older esv version"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_file(path), bytes) << "refusal must not touch the file";
  std::remove(path.c_str());
}

TEST(ServePersistTest, RetiredMonitorModeJobRefusesToStartTheDaemon) {
  // A current-version journal written by a build that still had the
  // "automaton" mode: an acked automaton job, then an acked compiled job.
  // Neither may be truncated away, so the daemon refuses to start.
  CampaignConfig config = sample_config();
  config.mode = esv::sctc::MonitorMode::kCompiled;
  const std::string compiled_json = esv::dist::config_to_json(config);
  std::string automaton_json = compiled_json;
  const std::string compiled_mode = "\"mode\":\"compiled\"";
  const std::size_t at = automaton_json.find(compiled_mode);
  ASSERT_NE(at, std::string::npos);
  automaton_json.replace(at, compiled_mode.size(), "\"mode\":\"automaton\"");
  const auto accepted = [&](int job, const std::string& config_json) {
    return frame_record("{\"type\":\"accepted\",\"job\":" +
                        std::to_string(job) +
                        ",\"tenant\":\"t\",\"key\":\"k" + std::to_string(job) +
                        "\"" + esv::serve::campaign_shape_json(config) +
                        ",\"config\":" + config_json + "}");
  };
  const std::string path = temp_path("retiredmode.esvj");
  const std::string bytes =
      frame_record("{\"type\":\"serve-header\",\"version\":" +
                   std::to_string(esv::serve::kServeJournalVersion) + "}") +
      accepted(1, automaton_json) + accepted(2, compiled_json);
  write_file(path, bytes);

  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_NE(recovered.retired_mode.find("job 1"), std::string::npos)
      << recovered.retired_mode;
  EXPECT_TRUE(recovered.pending.empty());

  esv::serve::ServerOptions options;
  options.socket_path = temp_path("retiredmode.sock");
  options.journal_path = path;
  try {
    esv::serve::Server server(options);
    FAIL() << "a journal holding a retired-mode job must refuse to start";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"automaton\" was retired"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_file(path), bytes) << "refusal must not touch the file";
  std::remove(path.c_str());
}

// --- scheduling ----------------------------------------------------------

// Fairness, deterministically: preload the queue through the journal
// (tenant a holds jobs 1..3, tenant b holds job 4, acceptance order
// 1,2,3,4), run with concurrency 1, and demand the completion order
// 1,4,2,3 — round-robin across tenants, FIFO within one. With one
// executor the completion order IS the dispatch order, so the assertion
// is timing-independent.
TEST(ServeSchedulingTest, RoundRobinAcrossTenantsFifoWithin) {
  const std::string journal_path = temp_path("fairness.esvj");
  const std::string socket_path = temp_path("fairness.sock");
  std::remove(journal_path.c_str());
  {
    esv::serve::ServeJournal journal(journal_path,
                                     esv::journal::SyncPolicy::kNone);
    CampaignConfig config = sample_config();
    config.seed_hi = 1;
    journal.append_accepted(1, "a", "key", config);
    journal.append_accepted(2, "a", "key", config);
    journal.append_accepted(3, "a", "key", config);
    journal.append_accepted(4, "b", "key", config);
    journal.close();
  }

  esv::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.journal_path = journal_path;
  options.concurrency = 1;
  {
    ServerFixture fixture(options);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      if (esv::serve::recover_serve(journal_path).completed.size() >= 4) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(journal_path);
  ASSERT_EQ(recovered.completed.size(), 4u);
  EXPECT_TRUE(recovered.pending.empty());
  std::vector<std::uint64_t> order;
  for (const auto& done : recovered.completed) order.push_back(done.job);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 2, 3}));
  std::remove(journal_path.c_str());
}

// --- the wire ------------------------------------------------------------

TEST(ServeServerTest, SubmitRunsAndWarmResubmitIsCachedByteIdentical) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("e2e.sock");
  options.journal_path = temp_path("e2e.esvj");
  options.concurrency = 2;
  std::remove(options.journal_path.c_str());
  ServerFixture fixture(options);

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);

  esv::dist::write_frame(
      fd, esv::serve::make_submit("tenant-1", sample_config()));
  esv::dist::Json accepted =
      await_frame(fd, esv::serve::FrameKind::kAccepted);
  EXPECT_EQ(accepted.u64_or("job", 0), 1u);
  EXPECT_FALSE(accepted.bool_or("cached", true));
  esv::dist::Json report = await_frame(fd, esv::serve::FrameKind::kReport);
  EXPECT_EQ(report.u64_or("exit", 99), 0u);
  const std::string cold_report = report.string_or("report", "");
  EXPECT_NE(cold_report.find("\"seed_hi\": 2"), std::string::npos)
      << cold_report;

  // Warm resubmission: answered from the cache, byte-identical.
  esv::dist::write_frame(
      fd, esv::serve::make_submit("tenant-2", sample_config()));
  accepted = await_frame(fd, esv::serve::FrameKind::kAccepted);
  EXPECT_TRUE(accepted.bool_or("cached", false));
  report = await_frame(fd, esv::serve::FrameKind::kReport);
  EXPECT_TRUE(report.bool_or("cached", false));
  EXPECT_EQ(report.string_or("report", ""), cold_report);
  EXPECT_EQ(fixture.server.cache_hits(), 1u);

  // Status reflects all of it.
  esv::dist::write_frame(fd, esv::serve::make_status_request());
  const esv::dist::Json status =
      await_frame(fd, esv::serve::FrameKind::kStatusReply);
  EXPECT_EQ(status.u64_or("completed", 99), 1u);
  EXPECT_EQ(status.at("cache").u64_or("entries", 99), 1u);
  EXPECT_EQ(status.at("cache").u64_or("hits", 99), 1u);

  ::close(fd);
  std::remove(options.journal_path.c_str());
}

TEST(ServeServerTest, MalformedSubmitsAreRejectedNotFatal) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("reject.sock");
  ServerFixture fixture(options);

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);

  // Unknown frame type.
  esv::dist::write_frame(fd, "{\"type\":\"frobnicate\"}");
  esv::dist::Json rejected =
      await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_NE(rejected.string_or("reason", "").find("unknown frame type"),
            std::string::npos);

  // Submit without a config.
  esv::dist::write_frame(fd, "{\"type\":\"submit\",\"v\":1}");
  rejected = await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_FALSE(rejected.string_or("reason", "").empty());

  // Wrong protocol version.
  esv::dist::write_frame(fd, "{\"type\":\"submit\",\"v\":999}");
  rejected = await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_NE(rejected.string_or("reason", "").find("protocol version"),
            std::string::npos);

  // A config in the retired "automaton" monitor mode is named as retired.
  std::string submit = esv::serve::make_submit("t", sample_config());
  const std::size_t at = submit.find("\"progression\"");
  ASSERT_NE(at, std::string::npos);
  submit.replace(at, std::string("\"progression\"").size(), "\"automaton\"");
  esv::dist::write_frame(fd, submit);
  rejected = await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_NE(rejected.string_or("reason", "").find("\"automaton\" was retired"),
            std::string::npos)
      << rejected.string_or("reason", "");

  // A config nested 100000 arrays deep is refused, not a stack overflow.
  esv::dist::write_frame(fd, "{\"type\":\"submit\",\"v\":1,\"config\":" +
                                 std::string(100000, '[') +
                                 std::string(100000, ']') + "}");
  rejected = await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_NE(rejected.string_or("reason", "").find("nesting too deep"),
            std::string::npos)
      << rejected.string_or("reason", "");

  // The connection survived all of it.
  esv::dist::write_frame(fd, esv::serve::make_status_request());
  const esv::dist::Json status =
      await_frame(fd, esv::serve::FrameKind::kStatusReply);
  EXPECT_EQ(status.u64_or("rejections", 0), 5u);
  ::close(fd);
}

TEST(ServeServerTest, BackpressureRejectsPastTheQueueBoundAndCancelFrees) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("backpressure.sock");
  options.journal_path = temp_path("backpressure.esvj");
  options.concurrency = 1;
  options.queue_limit = 1;
  std::remove(options.journal_path.c_str());
  {
    ServerFixture fixture(options);
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);

    // Job 1 occupies the executor (the accepted frame proves it is queued;
    // the next loop iteration dispatches it before reading more frames).
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", slow_config(6)));
    esv::dist::Json accepted =
        await_frame(fd, esv::serve::FrameKind::kAccepted);
    const std::uint64_t job1 = accepted.u64_or("job", 0);
    EXPECT_EQ(job1, 1u);

    // Job 2 fills the queue.
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", slow_config(7)));
    accepted = await_frame(fd, esv::serve::FrameKind::kAccepted);
    const std::uint64_t job2 = accepted.u64_or("job", 0);

    // Job 3 is past the bound: explicit rejection, not a silent drop.
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", slow_config(8)));
    const esv::dist::Json rejected =
        await_frame(fd, esv::serve::FrameKind::kRejected);
    EXPECT_NE(rejected.string_or("reason", "").find("queue full"),
              std::string::npos);

    // Cancelling the queued job frees the slot...
    esv::dist::write_frame(fd, esv::serve::make_cancel(job2));
    const esv::dist::Json cancelled =
        await_frame(fd, esv::serve::FrameKind::kCancelled);
    EXPECT_EQ(cancelled.u64_or("job", 0), job2);

    // ...so the next submit is accepted again.
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", slow_config(8)));
    accepted = await_frame(fd, esv::serve::FrameKind::kAccepted);
    EXPECT_EQ(accepted.u64_or("job", 0), job2 + 1);

    // Cancelling an unknown job is rejected.
    esv::dist::write_frame(fd, esv::serve::make_cancel(77));
    const esv::dist::Json unknown =
        await_frame(fd, esv::serve::FrameKind::kRejected);
    EXPECT_NE(unknown.string_or("reason", "").find("unknown"),
              std::string::npos);
    ::close(fd);
  }

  // The fixture stopped the server mid-run: job 1 (running, cancelled by
  // the shutdown, not by a client) and the re-submitted job stay pending
  // in the journal for the next start; the client-cancelled job does not.
  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(options.journal_path);
  std::vector<std::uint64_t> pending;
  for (const auto& job : recovered.pending) pending.push_back(job.job);
  EXPECT_EQ(pending, (std::vector<std::uint64_t>{1, 3}));
  std::remove(options.journal_path.c_str());
}

TEST(ServeServerTest, ShutdownFrameStopsTheServer) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("shutdown.sock");
  esv::serve::Server server(options);
  std::thread thread([&server] { server.run(); });

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);
  esv::dist::write_frame(fd, esv::serve::make_shutdown_request());
  await_frame(fd, esv::serve::FrameKind::kShutdownAck);
  thread.join();  // run() returned because of the frame, not request_stop
  ::close(fd);
}

TEST(ServeServerTest, TerminalJobsLeaveTheInMemoryMap) {
  // A long-lived daemon's footprint must be bounded by the queue, not its
  // history: every job whose terminal frame went out is dropped from the
  // in-memory map (the journal and cache keep what replay needs).
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("retention.sock");
  options.concurrency = 2;
  esv::serve::Server server(options);
  std::thread thread([&server] { server.run(); });

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);
  for (std::uint64_t hi = 2; hi <= 4; ++hi) {
    CampaignConfig config = sample_config();
    config.seed_hi = hi;  // distinct keys: three real runs, no cache hits
    esv::dist::write_frame(fd, esv::serve::make_submit("t", config));
    await_frame(fd, esv::serve::FrameKind::kAccepted);
    const esv::dist::Json report =
        await_frame(fd, esv::serve::FrameKind::kReport);
    EXPECT_TRUE(report.bool_or("durable", true));
  }
  esv::dist::write_frame(fd, esv::serve::make_shutdown_request());
  await_frame(fd, esv::serve::FrameKind::kShutdownAck);
  thread.join();
  ::close(fd);

  EXPECT_EQ(server.jobs_tracked(), 0u);
  EXPECT_FALSE(server.journal_degraded());
  EXPECT_EQ(server.cache_size(), 3u);  // results outlive their Job records
}

TEST(ServeServerTest, ConnectionChurnKeepsFrameRoutingAligned) {
  // Regression driver for the event-loop walk: closes punch fd=-1 holes
  // into conns_ mid-iteration and fresh accepts land in (and beyond) those
  // holes, so the walk must route each pollfd's revents by the snapshot it
  // polled, never by conns_'s live order. Misrouting strands a request
  // (await_frame hangs); the old positional walk also read past the end
  // of the pollfd list.
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("churn.sock");
  ServerFixture fixture(options);

  std::vector<int> fds;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      const int fd = connect_client(options.socket_path);
      ASSERT_GE(fd, 0);
      fds.push_back(fd);
    }
    // Every live client has a request in flight while the new accepts are
    // being absorbed...
    for (const int fd : fds) {
      esv::dist::write_frame(fd, esv::serve::make_status_request());
    }
    for (const int fd : fds) {
      await_frame(fd, esv::serve::FrameKind::kStatusReply);
    }
    // ...and the two oldest drop, leaving holes for the next round.
    for (int i = 0; i < 2; ++i) {
      ::close(fds.front());
      fds.erase(fds.begin());
    }
  }
  for (const int fd : fds) ::close(fd);
}

TEST(ServeServerTest, FailedCompletionAppendIsSurfacedNotSwallowed) {
  // Serve journal records: 1 header, 2 accepted, 3 completed. Failing
  // exactly the third write voids the durability contract for job 1: the
  // report must stream with durable:false, must NOT enter the cache (a
  // restart could never replay those bytes), and the status frame must
  // latch the degradation.
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("degraded.sock");
  options.journal_path = temp_path("degraded.esvj");
  std::remove(options.journal_path.c_str());

  esv::chaos::ChaosEngine engine(
      esv::chaos::parse_plan("journal.write enospc nth 3"), /*seed=*/1);
  esv::chaos::ChaosEngine::install(&engine);

  {
    esv::serve::Server server(options);
    std::thread thread([&server] { server.run(); });
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);

    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", sample_config()));
    await_frame(fd, esv::serve::FrameKind::kAccepted);
    esv::dist::Json report = await_frame(fd, esv::serve::FrameKind::kReport);
    EXPECT_FALSE(report.bool_or("durable", true));
    EXPECT_EQ(report.u64_or("exit", 99), 0u);

    // Not cached: the identical resubmission runs again — and this one
    // journals cleanly, so it is durable (no flag) and earns the cache
    // entry the first completion was denied.
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", sample_config()));
    const esv::dist::Json accepted =
        await_frame(fd, esv::serve::FrameKind::kAccepted);
    EXPECT_FALSE(accepted.bool_or("cached", true));
    report = await_frame(fd, esv::serve::FrameKind::kReport);
    EXPECT_TRUE(report.bool_or("durable", true));

    esv::dist::write_frame(fd, esv::serve::make_status_request());
    const esv::dist::Json status =
        await_frame(fd, esv::serve::FrameKind::kStatusReply);
    EXPECT_TRUE(status.bool_or("journal_degraded", false));
    EXPECT_EQ(status.u64_or("journal_errors", 0), 1u);

    esv::dist::write_frame(fd, esv::serve::make_shutdown_request());
    await_frame(fd, esv::serve::FrameKind::kShutdownAck);
    thread.join();
    ::close(fd);
    EXPECT_TRUE(server.journal_degraded());
    EXPECT_EQ(server.cache_size(), 1u);
  }
  esv::chaos::ChaosEngine::install(nullptr);
  std::remove(options.journal_path.c_str());
}

// --- disk-budget governance ----------------------------------------------

/// Installs a chaos plan for one test scope and uninstalls it on exit.
struct ScopedChaos {
  explicit ScopedChaos(const std::string& plan)
      : engine(esv::chaos::parse_plan(plan), /*seed=*/1) {
    esv::chaos::ChaosEngine::install(&engine);
  }
  ~ScopedChaos() { esv::chaos::ChaosEngine::install(nullptr); }
  esv::chaos::ChaosEngine engine;
};

void remove_journal_files(const std::string& path) {
  std::remove(path.c_str());
  std::remove(esv::serve::snapshot_path_for(path).c_str());
  std::remove((esv::serve::snapshot_path_for(path) + ".tmp").c_str());
}

TEST(ServeCacheTest, LruBoundEvictsTheColdestEntry) {
  esv::serve::ResultCache cache;
  cache.set_max_entries(2);
  cache.insert("a", {"ra", 0, 1});
  cache.insert("b", {"rb", 0, 2});
  EXPECT_TRUE(cache.lookup("a").has_value());  // touch: "b" is now coldest
  cache.insert("c", {"rc", 0, 3});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
}

TEST(ServePersistTest, CompactionRoundTripsThroughRecovery) {
  const std::string path = temp_path("compact.esvj");
  remove_journal_files(path);
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    journal.append_accepted(1, "a", "key-1", sample_config());
    journal.append_accepted(2, "a", "key-2", sample_config());
    journal.append_accepted(3, "b", "key-3", sample_config());
    journal.append_completed(1, "key-1", true, 0, "{\"r\":1}");
    journal.append_cancelled(2);

    esv::serve::CompactionState live;
    live.next_job_id = 4;
    live.pending.push_back({3, "b", "key-3", sample_config()});
    live.completed.push_back({1, "key-1", true, 0, "{\"r\":1}"});
    const std::uint64_t tail_before = journal.tail_bytes();
    journal.compact(live);
    EXPECT_LT(journal.tail_bytes(), tail_before);
    EXPECT_GT(journal.snapshot_bytes(), 0u);
    // The rotated tail stays appendable.
    journal.append_accepted(4, "c", "key-4", sample_config());
    journal.close();
  }
  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_TRUE(recovered.header_valid);
  EXPECT_TRUE(recovered.snapshot_valid);
  ASSERT_EQ(recovered.pending.size(), 2u);
  EXPECT_EQ(recovered.pending[0].job, 3u);
  EXPECT_EQ(recovered.pending[1].job, 4u);
  ASSERT_EQ(recovered.completed.size(), 1u);
  EXPECT_EQ(recovered.completed[0].job, 1u);
  EXPECT_TRUE(recovered.completed[0].cacheable);
  EXPECT_EQ(recovered.completed[0].report_json, "{\"r\":1}");
  EXPECT_EQ(recovered.next_job_id, 5u);
  remove_journal_files(path);
}

TEST(ServePersistTest, CrashBetweenRenameAndTruncateDeduplicates) {
  // The crash window between compaction's two visible steps: the snapshot
  // rename landed but the tail was never truncated, so every snapshotted
  // record still sits in the tail too. Recovery must collapse them.
  const std::string path = temp_path("renamecrash.esvj");
  remove_journal_files(path);
  std::string old_tail;
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    journal.append_accepted(1, "a", "key-1", sample_config());
    journal.append_accepted(2, "a", "key-2", sample_config());
    journal.append_completed(1, "key-1", true, 0, "{\"r\":1}");
    old_tail = read_file(path);
    esv::serve::CompactionState live;
    live.next_job_id = 3;
    live.pending.push_back({2, "a", "key-2", sample_config()});
    live.completed.push_back({1, "key-1", true, 0, "{\"r\":1}"});
    journal.compact(live);
    journal.close();
  }
  write_file(path, old_tail);  // resurrect the pre-truncation tail

  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_TRUE(recovered.header_valid);
  EXPECT_TRUE(recovered.snapshot_valid);
  ASSERT_EQ(recovered.pending.size(), 1u);
  EXPECT_EQ(recovered.pending[0].job, 2u);
  ASSERT_EQ(recovered.completed.size(), 1u);
  EXPECT_EQ(recovered.completed[0].job, 1u);
  EXPECT_EQ(recovered.completed[0].report_json, "{\"r\":1}");
  EXPECT_EQ(recovered.next_job_id, 3u);
  remove_journal_files(path);
}

TEST(ServePersistTest, EveryTailCutKeepsTheSnapshotState) {
  // A torn tail — cut at every possible byte length — must never erode the
  // fsynced snapshot: the snapshot's pending job and completed report
  // survive every cut, bit-exact.
  const std::string path = temp_path("tailcut.esvj");
  remove_journal_files(path);
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    journal.append_accepted(1, "a", "key-1", sample_config());
    journal.append_accepted(2, "a", "key-2", sample_config());
    journal.append_completed(1, "key-1", true, 0, "{\"r\":1}");
    esv::serve::CompactionState live;
    live.next_job_id = 3;
    live.pending.push_back({2, "a", "key-2", sample_config()});
    live.completed.push_back({1, "key-1", true, 0, "{\"r\":1}"});
    journal.compact(live);
    journal.append_accepted(3, "c", "key-3", sample_config());
    journal.close();
  }
  const std::string tail = read_file(path);
  const std::string snap =
      read_file(esv::serve::snapshot_path_for(path));
  ASSERT_FALSE(tail.empty());
  ASSERT_FALSE(snap.empty());

  const std::string cut = temp_path("tailcut_cut.esvj");
  write_file(esv::serve::snapshot_path_for(cut), snap);
  for (std::size_t length = tail.size() + 1; length-- > 0;) {
    write_file(cut, tail.substr(0, length));
    const esv::serve::RecoveredServe recovered =
        esv::serve::recover_serve(cut);  // must never throw
    EXPECT_TRUE(recovered.snapshot_valid);
    EXPECT_TRUE(recovered.header_valid);
    EXPECT_LE(recovered.valid_bytes, length);
    ASSERT_EQ(recovered.completed.size(), 1u) << "cut at " << length;
    EXPECT_EQ(recovered.completed[0].report_json, "{\"r\":1}");
    ASSERT_GE(recovered.pending.size(), 1u);
    EXPECT_EQ(recovered.pending[0].job, 2u);
    EXPECT_LE(recovered.pending.size(), 2u);
    EXPECT_GE(recovered.next_job_id, 3u);
  }
  remove_journal_files(path);
  remove_journal_files(cut);
}

TEST(ServePersistTest, EverySnapshotCutKeepsTheTailState) {
  // The mirror image: a corrupt snapshot — cut at every length — degrades
  // to whatever prefix survives, and the intact tail's records always
  // recover. No cut may throw or invent state.
  const std::string path = temp_path("snapcut.esvj");
  remove_journal_files(path);
  {
    esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
    journal.append_accepted(1, "a", "key-1", sample_config());
    journal.append_accepted(2, "a", "key-2", sample_config());
    journal.append_completed(1, "key-1", true, 0, "{\"r\":1}");
    esv::serve::CompactionState live;
    live.next_job_id = 3;
    live.pending.push_back({2, "a", "key-2", sample_config()});
    live.completed.push_back({1, "key-1", true, 0, "{\"r\":1}"});
    journal.compact(live);
    journal.append_accepted(3, "c", "key-3", sample_config());
    journal.close();
  }
  const std::string tail = read_file(path);
  const std::string snap =
      read_file(esv::serve::snapshot_path_for(path));

  const std::string cut = temp_path("snapcut_cut.esvj");
  write_file(cut, tail);
  for (std::size_t length = snap.size() + 1; length-- > 0;) {
    write_file(esv::serve::snapshot_path_for(cut), snap.substr(0, length));
    const esv::serve::RecoveredServe recovered =
        esv::serve::recover_serve(cut);  // must never throw
    EXPECT_TRUE(recovered.header_valid);  // the tail header always scans
    ASSERT_GE(recovered.pending.size(), 1u) << "cut at " << length;
    EXPECT_EQ(recovered.pending.back().job, 3u);
    EXPECT_LE(recovered.completed.size(), 1u);
    for (const auto& done : recovered.completed) {
      EXPECT_EQ(done.report_json, "{\"r\":1}")
          << "a torn snapshot corrupted a completed report";
    }
    EXPECT_GE(recovered.next_job_id, 4u);
  }
  remove_journal_files(path);
  remove_journal_files(cut);
}

TEST(ServePersistTest, FailedSnapshotSwapLeavesBothSegmentsServing) {
  // ENOSPC during the snapshot write is the benign failure: both segments
  // are untouched, the tail keeps accepting appends, and recovery sees
  // exactly the pre-compaction state.
  const std::string path = temp_path("swapfail.esvj");
  remove_journal_files(path);
  ScopedChaos chaos("journal.snapshot enospc nth 1");

  esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
  journal.append_accepted(1, "a", "key-1", sample_config());
  esv::serve::CompactionState live;
  live.next_job_id = 2;
  live.pending.push_back({1, "a", "key-1", sample_config()});
  EXPECT_THROW(journal.compact(live), esv::journal::JournalError);
  EXPECT_FALSE(journal.append_disabled());
  EXPECT_EQ(journal.snapshot_bytes(), 0u);
  journal.append_accepted(2, "a", "key-2", sample_config());
  journal.close();

  EXPECT_TRUE(read_file(esv::serve::snapshot_path_for(path)).empty());
  EXPECT_TRUE(
      read_file(esv::serve::snapshot_path_for(path) + ".tmp").empty());
  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_TRUE(recovered.header_valid);
  EXPECT_FALSE(recovered.snapshot_valid);
  ASSERT_EQ(recovered.pending.size(), 2u);
  EXPECT_EQ(recovered.pending[0].job, 1u);
  EXPECT_EQ(recovered.pending[1].job, 2u);
  remove_journal_files(path);
}

TEST(ServePersistTest, FailedTailRestartDisablesAppendsTruthfully) {
  // The one compaction failure that cannot keep appending: the snapshot
  // swap landed but rewriting the truncated tail's header failed, so the
  // tail is indeterminate. Appends must be refused loudly — and recovery
  // still has everything, from the snapshot.
  const std::string path = temp_path("restartfail.esvj");
  remove_journal_files(path);
  // Writes: #1 tail header, #2-#3 accepted, #4 the post-truncate header.
  ScopedChaos chaos("journal.write enospc nth 4");

  esv::serve::ServeJournal journal(path, esv::journal::SyncPolicy::kNone);
  journal.append_accepted(1, "a", "key-1", sample_config());
  journal.append_accepted(2, "a", "key-2", sample_config());
  esv::serve::CompactionState live;
  live.next_job_id = 3;
  live.pending.push_back({1, "a", "key-1", sample_config()});
  live.pending.push_back({2, "a", "key-2", sample_config()});
  EXPECT_THROW(journal.compact(live), esv::journal::JournalError);
  EXPECT_TRUE(journal.append_disabled());
  try {
    journal.append_accepted(3, "a", "key-3", sample_config());
    FAIL() << "appends must be refused once the tail is indeterminate";
  } catch (const esv::journal::JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("indeterminate"),
              std::string::npos)
        << e.what();
  }
  journal.close();

  const esv::serve::RecoveredServe recovered =
      esv::serve::recover_serve(path);
  EXPECT_TRUE(recovered.snapshot_valid);
  EXPECT_TRUE(recovered.header_valid);  // via the snapshot
  EXPECT_EQ(recovered.valid_bytes, 0u);
  ASSERT_EQ(recovered.pending.size(), 2u);
  EXPECT_EQ(recovered.pending[0].job, 1u);
  EXPECT_EQ(recovered.pending[1].job, 2u);
  EXPECT_EQ(recovered.next_job_id, 3u);
  remove_journal_files(path);
}

TEST(ServeServerTest, CompactionBoundsTheTailAcrossRestart) {
  // Churn distinct jobs through a small disk budget: the daemon must
  // compact (visibly, in the status frame), and a restart must still serve
  // the freshest result from the warm cache, byte-identically.
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("compactsrv.sock");
  options.journal_path = temp_path("compactsrv.esvj");
  options.journal_max_bytes = 4096;
  options.cache_max_entries = 4;
  options.concurrency = 1;
  remove_journal_files(options.journal_path);

  CampaignConfig last_config;
  std::string last_report;
  {
    ServerFixture fixture(options);
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < 8; ++i) {
      CampaignConfig config = sample_config();
      config.max_steps = 1'000'000 + static_cast<std::uint64_t>(i);
      esv::dist::write_frame(fd, esv::serve::make_submit("t", config));
      await_frame(fd, esv::serve::FrameKind::kAccepted);
      const esv::dist::Json report =
          await_frame(fd, esv::serve::FrameKind::kReport);
      EXPECT_EQ(report.u64_or("exit", 99), 0u);
      last_config = config;
      last_report = report.string_or("report", "");
    }
    esv::dist::write_frame(fd, esv::serve::make_status_request());
    const esv::dist::Json status =
        await_frame(fd, esv::serve::FrameKind::kStatusReply);
    EXPECT_GE(status.u64_or("compactions", 0), 1u);
    EXPECT_GT(status.u64_or("journal_snapshot_bytes", 0), 0u);
    EXPECT_FALSE(status.bool_or("journal_degraded", true));
    ::close(fd);
  }

  // Restart over the rotated pair: the freshest result is warm.
  {
    ServerFixture fixture(options);
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", last_config));
    const esv::dist::Json accepted =
        await_frame(fd, esv::serve::FrameKind::kAccepted);
    EXPECT_TRUE(accepted.bool_or("cached", false));
    const esv::dist::Json report =
        await_frame(fd, esv::serve::FrameKind::kReport);
    EXPECT_EQ(report.string_or("report", ""), last_report)
        << "restart after compaction must serve byte-identical reports";
    ::close(fd);
  }
  remove_journal_files(options.journal_path);
}

TEST(ServeServerTest, CompactionChaosDegradesButKeepsServing) {
  // The first compaction attempt dies on ENOSPC. The daemon must keep
  // serving, surface the degradation in status, retry once the tail has
  // grown further — and a clean restart must still answer warm.
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("compactchaos.sock");
  options.journal_path = temp_path("compactchaos.esvj");
  options.journal_max_bytes = 4096;
  options.cache_max_entries = 4;
  remove_journal_files(options.journal_path);

  CampaignConfig last_config;
  std::string last_report;
  {
    ScopedChaos chaos("journal.snapshot enospc nth 1");
    ServerFixture fixture(options);
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < 10; ++i) {
      CampaignConfig config = sample_config();
      config.max_steps = 2'000'000 + static_cast<std::uint64_t>(i);
      esv::dist::write_frame(fd, esv::serve::make_submit("t", config));
      await_frame(fd, esv::serve::FrameKind::kAccepted);
      const esv::dist::Json report =
          await_frame(fd, esv::serve::FrameKind::kReport);
      EXPECT_EQ(report.u64_or("exit", 99), 0u);
      last_config = config;
      last_report = report.string_or("report", "");
    }
    esv::dist::write_frame(fd, esv::serve::make_status_request());
    const esv::dist::Json status =
        await_frame(fd, esv::serve::FrameKind::kStatusReply);
    EXPECT_GE(status.u64_or("journal_errors", 0), 1u)
        << "the failed compaction must be surfaced";
    EXPECT_GE(status.u64_or("compactions", 0), 1u)
        << "a later attempt must have succeeded";
    ::close(fd);
  }

  {
    ServerFixture fixture(options);
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);
    esv::dist::write_frame(fd,
                           esv::serve::make_submit("t", last_config));
    const esv::dist::Json accepted =
        await_frame(fd, esv::serve::FrameKind::kAccepted);
    EXPECT_TRUE(accepted.bool_or("cached", false));
    const esv::dist::Json report =
        await_frame(fd, esv::serve::FrameKind::kReport);
    EXPECT_EQ(report.string_or("report", ""), last_report);
    ::close(fd);
  }
  remove_journal_files(options.journal_path);
}

// --- overload quotas -----------------------------------------------------

TEST(ServeServerTest, TenantQueueQuotaRejectsExplicitly) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("tenantquota.sock");
  options.concurrency = 1;
  options.tenant_max_queued = 1;
  ServerFixture fixture(options);

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);

  // Job 1 occupies the executor, job 2 fills tenant a's queue quota.
  esv::dist::write_frame(fd, esv::serve::make_submit("a", slow_config(6)));
  await_frame(fd, esv::serve::FrameKind::kAccepted);
  esv::dist::write_frame(fd, esv::serve::make_submit("a", slow_config(7)));
  await_frame(fd, esv::serve::FrameKind::kAccepted);

  // Job 3 breaches the per-tenant quota: rejected, naming the tenant.
  esv::dist::write_frame(fd, esv::serve::make_submit("a", slow_config(8)));
  const esv::dist::Json rejected =
      await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_NE(rejected.string_or("reason", "").find("tenant \"a\""),
            std::string::npos)
      << rejected.string_or("reason", "");

  // Another tenant is unaffected — the quota is per-tenant, not global.
  esv::dist::write_frame(fd, esv::serve::make_submit("b", slow_config(8)));
  await_frame(fd, esv::serve::FrameKind::kAccepted);
  ::close(fd);
}

TEST(ServeServerTest, TenantInflightCapSkipsNotRejects) {
  // With two executors and a per-tenant inflight cap of one, a tenant's
  // second job is held back (never observed running alongside the first)
  // but keeps its queue position and still completes — skipped, not
  // rejected.
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("inflight.sock");
  options.concurrency = 2;
  options.tenant_max_inflight = 1;
  ServerFixture fixture(options);

  const int fd_a = connect_client(options.socket_path);
  const int fd_b = connect_client(options.socket_path);
  ASSERT_GE(fd_a, 0);
  ASSERT_GE(fd_b, 0);

  esv::dist::write_frame(fd_a,
                         esv::serve::make_submit("a", slow_config(4)));
  await_frame(fd_a, esv::serve::FrameKind::kAccepted);
  esv::dist::write_frame(fd_a,
                         esv::serve::make_submit("a", slow_config(5)));
  await_frame(fd_a, esv::serve::FrameKind::kAccepted);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool both_done = false;
  while (std::chrono::steady_clock::now() < deadline) {
    esv::dist::write_frame(fd_b, esv::serve::make_status_request());
    const esv::dist::Json status =
        await_frame(fd_b, esv::serve::FrameKind::kStatusReply);
    std::size_t running = 0;
    for (const auto& job : status.at("jobs").items()) {
      if (job.string_or("state", "") == "running") ++running;
    }
    EXPECT_LE(running, 1u) << "tenant inflight cap breached";
    if (status.u64_or("completed", 0) >= 2) {
      both_done = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(both_done) << "the capped job must still complete";
  await_frame(fd_a, esv::serve::FrameKind::kReport);
  await_frame(fd_a, esv::serve::FrameKind::kReport);
  ::close(fd_a);
  ::close(fd_b);
}

TEST(ServeServerTest, OversizedRequestIsRejectedAtTheHeader) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("oversize.sock");
  options.max_request_bytes = 1024;
  ServerFixture fixture(options);

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);
  // Not even JSON: the rejection happens at the frame header, before the
  // payload is buffered or parsed.
  esv::dist::write_frame(fd, std::string(2048, 'x'));
  const esv::dist::Json rejected =
      await_frame(fd, esv::serve::FrameKind::kRejected);
  EXPECT_NE(rejected.string_or("reason", "").find("request limit"),
            std::string::npos)
      << rejected.string_or("reason", "");
  // The rejection is terminal for this connection.
  EXPECT_FALSE(esv::dist::read_frame(fd).has_value());
  ::close(fd);

  // The daemon itself is fine.
  const int fd2 = connect_client(options.socket_path);
  ASSERT_GE(fd2, 0);
  esv::dist::write_frame(fd2, esv::serve::make_status_request());
  await_frame(fd2, esv::serve::FrameKind::kStatusReply);
  ::close(fd2);
}

TEST(ServeServerTest, CorruptFrameClosesOnlyThatConnection) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("corrupt.sock");
  ServerFixture fixture(options);

  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);
  // A frame whose CRC does not match its payload: stream corruption.
  const char bad[] = {2, 0, 0, 0, 0, 0, 0, 0, '{', '}'};
  ASSERT_EQ(::send(fd, bad, sizeof(bad), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(bad)));
  bool closed = false;
  try {
    closed = !esv::dist::read_frame(fd).has_value();
  } catch (const esv::dist::WireError&) {
    closed = true;
  }
  EXPECT_TRUE(closed) << "a corrupt frame must close the connection";
  ::close(fd);

  const int fd2 = connect_client(options.socket_path);
  ASSERT_GE(fd2, 0);
  esv::dist::write_frame(fd2, esv::serve::make_status_request());
  await_frame(fd2, esv::serve::FrameKind::kStatusReply);
  ::close(fd2);
}

TEST(ServeServerTest, SlowReaderIsDisconnectedNotWedging) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("slowreader.sock");
  options.write_timeout_ms = 200;
  esv::serve::Server server(options);
  std::thread thread([&server] { server.run(); });

  const int slow = connect_client(options.socket_path);
  ASSERT_GE(slow, 0);
  // Flood requests without reading a reply: once the socket buffers fill,
  // replies pile into the per-connection outbox. Then stay silent past the
  // write timeout — the outbox makes no progress, and the server must cut
  // the connection rather than hold the buffered frames forever.
  try {
    for (int i = 0; i < 4000; ++i) {
      esv::dist::write_frame(slow, esv::serve::make_status_request());
    }
  } catch (const esv::dist::WireError&) {
    // The server may cut us off mid-flood — that is the point.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  bool closed = false;
  try {
    while (esv::dist::read_frame(slow).has_value()) {
    }
    closed = true;
  } catch (const esv::dist::WireError&) {
    closed = true;  // the cut can land mid-frame
  }
  EXPECT_TRUE(closed);
  ::close(slow);

  // The daemon never wedged and other clients are unaffected.
  const int fd = connect_client(options.socket_path);
  ASSERT_GE(fd, 0);
  esv::dist::write_frame(fd, esv::serve::make_status_request());
  await_frame(fd, esv::serve::FrameKind::kStatusReply);
  esv::dist::write_frame(fd, esv::serve::make_shutdown_request());
  await_frame(fd, esv::serve::FrameKind::kShutdownAck);
  thread.join();
  ::close(fd);
  EXPECT_GE(server.metrics_snapshot().counters.at("serve.disconnects_slow"),
            1u);
}

TEST(ServeServerTest, IdleConnectionsTimeOutActiveOnesSurvive) {
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("idle.sock");
  options.idle_timeout_ms = 150;
  esv::serve::Server server(options);
  std::thread thread([&server] { server.run(); });

  const int idle = connect_client(options.socket_path);
  const int active = connect_client(options.socket_path);
  ASSERT_GE(idle, 0);
  ASSERT_GE(active, 0);
  // The active client keeps talking well past the idle window; each
  // request resets its idle clock.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    esv::dist::write_frame(active, esv::serve::make_status_request());
    await_frame(active, esv::serve::FrameKind::kStatusReply);
  }
  // ~360ms elapsed: the silent connection is gone, the talkative one
  // never noticed.
  EXPECT_FALSE(esv::dist::read_frame(idle).has_value());
  ::close(idle);

  esv::dist::write_frame(active, esv::serve::make_shutdown_request());
  await_frame(active, esv::serve::FrameKind::kShutdownAck);
  thread.join();
  ::close(active);
  EXPECT_GE(server.metrics_snapshot().counters.at("serve.disconnects_idle"),
            1u);
}

TEST(ServeServerTest, SoakKeepsDiskFootprintBounded) {
  // 500 distinct jobs through a 16 KiB tail budget and an 8-entry cache:
  // the disk footprint must stay proportional to live state, never to
  // service history.
  esv::serve::ServerOptions options;
  options.socket_path = temp_path("soak.sock");
  options.journal_path = temp_path("soak.esvj");
  options.journal_max_bytes = 16 * 1024;
  options.cache_max_entries = 8;
  options.concurrency = 1;
  remove_journal_files(options.journal_path);

  std::uint64_t max_tail = 0;
  std::uint64_t max_snapshot = 0;
  {
    ServerFixture fixture(options);
    const int fd = connect_client(options.socket_path);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < 500; ++i) {
      CampaignConfig config = sample_config();
      config.max_steps = 3'000'000 + static_cast<std::uint64_t>(i);
      esv::dist::write_frame(fd, esv::serve::make_submit("t", config));
      await_frame(fd, esv::serve::FrameKind::kAccepted);
      await_frame(fd, esv::serve::FrameKind::kReport);
      if (i % 25 != 0) continue;
      esv::dist::write_frame(fd, esv::serve::make_status_request());
      const esv::dist::Json status =
          await_frame(fd, esv::serve::FrameKind::kStatusReply);
      max_tail = std::max(max_tail, status.u64_or("journal_bytes", 0));
      max_snapshot = std::max(max_snapshot,
                              status.u64_or("journal_snapshot_bytes", 0));
      EXPECT_LE(status.at("cache").u64_or("entries", 99), 8u);
    }
    esv::dist::write_frame(fd, esv::serve::make_status_request());
    const esv::dist::Json status =
        await_frame(fd, esv::serve::FrameKind::kStatusReply);
    EXPECT_GE(status.u64_or("compactions", 0), 5u);
    EXPECT_FALSE(status.bool_or("journal_degraded", true));
    max_tail = std::max(max_tail, status.u64_or("journal_bytes", 0));
    max_snapshot = std::max(max_snapshot,
                            status.u64_or("journal_snapshot_bytes", 0));
    ::close(fd);
  }
  // The tail may overshoot the budget by at most the records of the one
  // in-flight job between compaction checks; the snapshot is bounded by
  // the cache bound plus pending jobs.
  EXPECT_LT(max_tail, options.journal_max_bytes + 16 * 1024)
      << "tail segment not bounded by the disk budget";
  EXPECT_LT(max_snapshot, static_cast<std::uint64_t>(64 * 1024))
      << "snapshot segment not bounded by live state";
  remove_journal_files(options.journal_path);
}

}  // namespace
