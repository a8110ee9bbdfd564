// End-to-end crash-safety tests for the campaign journal (docs/JOURNAL.md):
// kill -9 the orchestrator mid-campaign, then --resume, and demand a final
// --report byte-identical to an uninterrupted run — under both the
// in-process runner (--jobs) and the distributed broker (--workers). Plus
// the CLI validation surface (--journal/--resume/--journal-sync/
// --seed-mem-limit usage errors exit 2) and the per-seed memory ceiling.
// The binary paths and sample data directory are injected by CMake.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli_runner.hpp"
#include "journal/journal.hpp"

#ifndef ESV_VERIFY_BIN
#error "ESV_VERIFY_BIN must be defined by the build"
#endif
#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ESV_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ESV_ASAN_BUILD 1
#endif
#endif

namespace {

using esv::cli::RunResult;
using esv::cli::read_file;
using esv::cli::write_file;

RunResult run_cli(const std::string& args) {
  return esv::cli::run_command(std::string(ESV_VERIFY_BIN) + " " + args);
}

std::string blinker_c() { return std::string(ESV_DATA_DIR) + "/blinker.c"; }
std::string blinker_esv() { return std::string(ESV_DATA_DIR) + "/blinker.esv"; }
std::string sample_args() { return blinker_c() + " " + blinker_esv(); }

std::string temp_path(const std::string& name) {
  return esv::cli::temp_path("esv_jcli_", name);
}

/// A blinker slowed to ~thousands of statements per seed, so a campaign over
/// a few dozen seeds stays alive long enough to be killed mid-flight.
const char* kSlowBlinker = R"(
enum { LED_OFF = 0, LED_ON = 1 };

int led;
int cycles;

void update(int enable) {
  if (enable == 1) {
    if (led == LED_OFF) {
      led = LED_ON;
    } else {
      led = LED_OFF;
    }
  } else {
    led = LED_OFF;
  }
}

void main(void) {
  led = LED_OFF;
  while (cycles < 4000) {
    int enable = __in(enable);
    update(enable);
    cycles = cycles + 1;
  }
}
)";

const char* kSlowBlinkerSpec = R"(
input enable 0 1

prop led_on    = led == LED_ON
prop led_off   = led == LED_OFF
prop finished  = cycles >= 4000

check legal: G (led_on || led_off)
check terminates: F finished
)";

struct SlowSample {
  std::string program;
  std::string spec;
  std::string args() const { return program + " " + spec; }
};

SlowSample write_slow_sample(const std::string& tag) {
  SlowSample sample;
  sample.program = temp_path(tag + "_slow.c");
  sample.spec = temp_path(tag + "_slow.esv");
  write_file(sample.program, kSlowBlinker);
  write_file(sample.spec, kSlowBlinkerSpec);
  return sample;
}

/// fork/execs esv-verify so the test can SIGKILL it mid-campaign (popen
/// offers no pid). stdout/stderr go to /dev/null.
pid_t spawn_cli(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  FILE* sink = std::freopen("/dev/null", "w", stdout);
  (void)sink;
  sink = std::freopen("/dev/null", "w", stderr);
  (void)sink;
  std::vector<char*> argv;
  std::string binary = ESV_VERIFY_BIN;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(ESV_VERIFY_BIN, argv.data());
  _exit(127);
}

/// Runs the slow-blinker campaign with a journal, SIGKILLs it once at least
/// `min_records` seeds hit the journal, and returns how many seed records
/// the journal held at kill time (0 if the run finished first — still a
/// valid resume test, just not an interrupted one).
std::size_t kill_mid_campaign(const SlowSample& sample,
                              const std::string& journal,
                              const std::vector<std::string>& extra_args,
                              std::size_t min_records) {
  // --report matters even though the killed run never writes it: requesting
  // a report turns metrics collection on, which is part of the config
  // digest, and the resume run will ask for a report.
  std::vector<std::string> args = {sample.program,
                                   sample.spec,
                                   "--campaign=1..24",
                                   "--journal=" + journal,
                                   "--journal-sync=record",
                                   "--report=" + journal + ".killed.json",
                                   "--quiet"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = spawn_cli(args);
  EXPECT_GT(pid, 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::size_t at_kill = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    // A finished child means the campaign outran the poll; resume still
    // has to reproduce the report, so carry on.
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return 0;
    const esv::journal::RecoveredJournal snapshot =
        esv::journal::recover(journal);
    if (snapshot.results.size() >= min_records) {
      at_kill = snapshot.results.size();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return at_kill;
}

/// The tentpole acceptance check: reference run, killed run, resumed run;
/// the resumed report must be byte-identical to the reference report.
void expect_resume_byte_identical(const std::string& tag,
                                  const std::vector<std::string>& extra_args,
                                  const std::string& extra_cli) {
  const SlowSample sample = write_slow_sample(tag);
  const std::string journal = temp_path(tag + ".journal");
  const std::string reference_report = temp_path(tag + "_ref.json");
  const std::string resumed_report = temp_path(tag + "_resumed.json");
  std::remove(journal.c_str());

  const RunResult reference =
      run_cli(sample.args() + " --campaign=1..24 --quiet " + extra_cli +
              " --report=" + reference_report + " --report-timing=off");
  ASSERT_EQ(reference.exit_code, 0) << reference.output;

  const std::size_t at_kill =
      kill_mid_campaign(sample, journal, extra_args, /*min_records=*/3);
  // Not a hard assert: on a heavily loaded machine the campaign can finish
  // before the poll sees 3 records, and resume must still be correct.
  EXPECT_LT(at_kill, 24u) << "campaign was not interrupted mid-flight";

  const RunResult resumed =
      run_cli(sample.args() + " --campaign=1..24 " + extra_cli +
              " --journal=" + journal + " --resume" +
              " --report=" + resumed_report + " --report-timing=off");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("journal: resumed"), std::string::npos)
      << resumed.output;

  const std::string reference_bytes = read_file(reference_report);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(read_file(resumed_report), reference_bytes)
      << "resumed report differs from the uninterrupted run";

  std::remove(sample.program.c_str());
  std::remove(sample.spec.c_str());
  std::remove((journal + ".killed.json").c_str());
  std::remove(journal.c_str());
  std::remove(reference_report.c_str());
  std::remove(resumed_report.c_str());
}

TEST(JournalCliTest, KillNineThenResumeIsByteIdenticalInProcess) {
  expect_resume_byte_identical("jobs", {"--jobs=8"}, "--jobs=8");
}

TEST(JournalCliTest, KillNineThenResumeIsByteIdenticalDistributed) {
  expect_resume_byte_identical("workers", {"--workers=2", "--jobs=2"},
                               "--workers=2 --jobs=2");
}

TEST(JournalCliTest, ResumeDropsACorruptTailAndReproducesTheReport) {
  const std::string journal = temp_path("tail.journal");
  const std::string reference_report = temp_path("tail_ref.json");
  const std::string resumed_report = temp_path("tail_resumed.json");
  std::remove(journal.c_str());

  const RunResult reference =
      run_cli(sample_args() + " --campaign=1..10 --jobs=2 --quiet" +
              " --report=" + reference_report + " --report-timing=off");
  ASSERT_EQ(reference.exit_code, 0) << reference.output;

  // The journaled run requests a report too: metrics collection rides on
  // --report and is covered by the config digest the resume run checks.
  const std::string journaled_report = temp_path("tail_journaled.json");
  const RunResult journaled =
      run_cli(sample_args() + " --campaign=1..10 --jobs=2 --quiet" +
              " --journal=" + journal + " --report=" + journaled_report +
              " --report-timing=off");
  ASSERT_EQ(journaled.exit_code, 0) << journaled.output;
  std::remove(journaled_report.c_str());

  // Tear the journal mid-record, as a crash during a write would.
  const std::string bytes = read_file(journal);
  ASSERT_GT(bytes.size(), 200u);
  write_file(journal, bytes.substr(0, bytes.size() - 137));

  const RunResult resumed =
      run_cli(sample_args() + " --campaign=1..10 --jobs=2" +
              " --journal=" + journal + " --resume" +
              " --report=" + resumed_report + " --report-timing=off");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("corrupt tail dropped"), std::string::npos)
      << resumed.output;
  EXPECT_EQ(read_file(resumed_report), read_file(reference_report));

  std::remove(journal.c_str());
  std::remove(reference_report.c_str());
  std::remove(resumed_report.c_str());
}

TEST(JournalCliTest, ResumeRejectsAForeignJournalWithExitTwo) {
  const std::string journal = temp_path("foreign.journal");
  std::remove(journal.c_str());
  const RunResult first = run_cli(sample_args() +
                                  " --campaign=1..6 --quiet --journal=" +
                                  journal);
  ASSERT_EQ(first.exit_code, 0) << first.output;

  // Same inputs, different seed range: splicing those results would yield a
  // report no single campaign ever computed.
  const RunResult mismatch = run_cli(sample_args() +
                                     " --campaign=1..7 --journal=" + journal +
                                     " --resume");
  EXPECT_EQ(mismatch.exit_code, 2) << mismatch.output;
  EXPECT_NE(mismatch.output.find("different campaign configuration"),
            std::string::npos)
      << mismatch.output;
  std::remove(journal.c_str());
}

TEST(JournalCliTest, ResumeRejectsAnOlderFormatVersionByName) {
  // A v1 journal (pre-digest-fix build). Its digests can never match this
  // build's, so --resume must refuse with a message naming the real cause
  // — an older format version — and must leave the file untouched (it is
  // the user's data; only a non-resume run may truncate it).
  const std::string journal = temp_path("oldversion.journal");
  const std::string header =
      "{\"type\":\"header\",\"version\":1,"
      "\"config_digest\":\"00112233445566aa\",\"seed_lo\":1,\"seed_hi\":6}";
  std::string bytes;
  const std::uint32_t length = static_cast<std::uint32_t>(header.size());
  const std::uint32_t crc =
      esv::journal::crc32(header.data(), header.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  bytes += header;
  bytes.push_back('\n');
  write_file(journal, bytes);

  const RunResult stale = run_cli(sample_args() +
                                  " --campaign=1..6 --journal=" + journal +
                                  " --resume");
  EXPECT_EQ(stale.exit_code, 2) << stale.output;
  EXPECT_NE(stale.output.find("older esv version"), std::string::npos)
      << stale.output;
  EXPECT_NE(stale.output.find("journal format v1"), std::string::npos)
      << stale.output;
  EXPECT_EQ(read_file(journal), bytes) << "refusal must not touch the file";
  std::remove(journal.c_str());
}

TEST(JournalCliTest, ResumeOfAMissingJournalStartsFresh) {
  const std::string journal = temp_path("fresh.journal");
  const std::string reference_report = temp_path("fresh_ref.json");
  const std::string resumed_report = temp_path("fresh_resumed.json");
  std::remove(journal.c_str());

  const RunResult reference =
      run_cli(sample_args() + " --campaign=1..6 --quiet" +
              " --report=" + reference_report + " --report-timing=off");
  ASSERT_EQ(reference.exit_code, 0) << reference.output;

  // --resume against a journal that never got written (the orchestrator
  // died before the header landed) is a fresh start, not an error.
  const RunResult resumed =
      run_cli(sample_args() + " --campaign=1..6" + " --journal=" + journal +
              " --resume --report=" + resumed_report + " --report-timing=off");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("journal: resumed 0 of 6"), std::string::npos)
      << resumed.output;
  EXPECT_EQ(read_file(resumed_report), read_file(reference_report));

  std::remove(journal.c_str());
  std::remove(reference_report.c_str());
  std::remove(resumed_report.c_str());
}

TEST(JournalCliTest, MonitorErrorsAreReplayedNotRerunOnResume) {
  // --resume x --monitor-mode=both: a journaled "monitor"-kind error capture
  // (compiled monitor diverged from the interpreted oracle) must be replayed
  // from the journal, never re-run. The ESV_CAMPAIGN_TEST_DIVERGE_SEED hook
  // forces the divergence only in the first run; if resume re-ran the seed
  // it would now come back clean and the reports would differ.
  const std::string journal = temp_path("monitor.journal");
  const std::string first_report = temp_path("monitor_first.json");
  const std::string resumed_report = temp_path("monitor_resumed.json");
  std::remove(journal.c_str());

  ::setenv("ESV_CAMPAIGN_TEST_DIVERGE_SEED", "5", 1);
  const RunResult first =
      run_cli(sample_args() +
              " --campaign=1..12 --jobs=2 --monitor-mode=both --quiet" +
              " --journal=" + journal + " --report=" + first_report +
              " --report-timing=off");
  ::unsetenv("ESV_CAMPAIGN_TEST_DIVERGE_SEED");
  ASSERT_EQ(first.exit_code, 1) << first.output;
  const std::string first_json = read_file(first_report);
  ASSERT_NE(first_json.find("\"error_kind\": \"monitor\""), std::string::npos)
      << first_json;
  ASSERT_NE(first_json.find("monitor divergence"), std::string::npos);

  const RunResult resumed =
      run_cli(sample_args() +
              " --campaign=1..12 --jobs=2 --monitor-mode=both" +
              " --journal=" + journal + " --resume --report=" +
              resumed_report + " --report-timing=off");
  EXPECT_EQ(resumed.exit_code, 1) << resumed.output;
  EXPECT_NE(resumed.output.find("journal: resumed 12 of 12"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(read_file(resumed_report), first_json);

  std::remove(journal.c_str());
  std::remove(first_report.c_str());
  std::remove(resumed_report.c_str());
}

TEST(JournalCliTest, JournalFlagValidationExitsTwo) {
  struct Case {
    const char* flags;
    const char* message;
  };
  const Case cases[] = {
      {"--journal=/tmp/j.bin", "--journal is only available in campaign"},
      {"--campaign=1..4 --resume", "--resume requires --journal"},
      {"--campaign=1..4 --journal-sync=batch",
       "--journal-sync requires --journal"},
      {"--campaign=1..4 --journal=/tmp/j.bin --journal-sync=eventually",
       "--journal-sync must be record, batch, or none"},
      {"--campaign=1..4 --journal=", "--journal expects a file path"},
      {"--campaign=1..4 --seed-mem-limit=64", "--seed-mem-limit requires"},
      {"--campaign=1..4 --workers=2 --seed-mem-limit=0",
       "--seed-mem-limit must be a positive"},
      {"--report-timing=sometimes", "--report-timing must be on or off"},
  };
  for (const Case& test_case : cases) {
    const RunResult r = run_cli(sample_args() + " " + test_case.flags);
    EXPECT_EQ(r.exit_code, 2) << test_case.flags << "\n" << r.output;
    EXPECT_NE(r.output.find(test_case.message), std::string::npos)
        << test_case.flags << "\n"
        << r.output;
  }
}

TEST(JournalCliTest, UnwritableJournalPathExitsTwo) {
  const RunResult r =
      run_cli(sample_args() +
              " --campaign=1..4 --journal=/nonexistent/dir/j.bin --quiet");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("journal"), std::string::npos) << r.output;
}

/// A program whose globals demand a ~128 MiB address space per seed run.
const char* kHungryProgram = R"(
int buf[33554432];
int led;
int cycles;

void main(void) {
  led = 0;
  while (cycles < 5) {
    int enable = __in(enable);
    if (enable == 1) { led = 1; } else { led = 0; }
    cycles = cycles + 1;
  }
}
)";

const char* kHungrySpec = R"(
input enable 0 1

prop on  = led == 1
prop off = led == 0

check legal: G (on || off)
)";

TEST(JournalCliTest, SeedMemLimitTurnsARunawaySeedIntoASutError) {
#ifdef ESV_ASAN_BUILD
  GTEST_SKIP() << "RLIMIT_AS ceiling is disabled under AddressSanitizer";
#else
  const std::string program = temp_path("hungry.c");
  const std::string spec = temp_path("hungry.esv");
  const std::string report = temp_path("hungry_report.json");
  write_file(program, kHungryProgram);
  write_file(spec, kHungrySpec);

  // Control: without a ceiling the 128 MiB program verifies cleanly, so any
  // failure below is the ceiling's doing, not the program's.
  const RunResult unlimited = run_cli(program + " " + spec +
                                      " --campaign=1..2 --workers=2 --quiet");
  ASSERT_EQ(unlimited.exit_code, 0) << unlimited.output;

  // With a 64 MiB ceiling every seed's allocation fails; the shard survives
  // and records a structured "sut" error capture instead of dying.
  const RunResult limited =
      run_cli(program + " " + spec +
              " --campaign=1..2 --workers=2 --seed-mem-limit=64 --quiet" +
              " --report=" + report + " --report-timing=off");
  EXPECT_EQ(limited.exit_code, 1) << limited.output;
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"error_kind\": \"sut\""), std::string::npos) << json;
  EXPECT_NE(json.find("memory ceiling"), std::string::npos) << json;

  std::remove(program.c_str());
  std::remove(spec.c_str());
  std::remove(report.c_str());
#endif
}

}  // namespace
