// End-to-end crash-safety tests of the esv-serve daemon (docs/SERVE.md):
// kill -9 the daemon mid-queue, restart it on the same journal, and demand
// that no accepted-and-acked job is lost and that completed jobs' reports
// come back byte-identical from the recovered cache. Plus the chaos points
// and the CLI validation surface of both binaries. Binary paths and the
// sample data directory are injected by CMake.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_runner.hpp"
#include "dist/wire.hpp"
#include "serve/persist.hpp"

#ifndef ESV_SERVE_BIN
#error "ESV_SERVE_BIN must be defined by the build"
#endif
#ifndef ESV_CLIENT_BIN
#error "ESV_CLIENT_BIN must be defined by the build"
#endif
#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif

namespace {

using esv::cli::run_command;
using esv::cli::RunResult;
using esv::cli::read_file;
using esv::cli::write_file;

RunResult run_client(const std::string& args) {
  return run_command(std::string(ESV_CLIENT_BIN) + " " + args);
}

RunResult run_serve(const std::string& args) {
  return run_command(std::string(ESV_SERVE_BIN) + " " + args);
}

std::string temp_path(const std::string& name) {
  return esv::cli::temp_path("esv_scli_", name);
}

std::string blinker_args() {
  return std::string(ESV_DATA_DIR) + "/blinker.c " + ESV_DATA_DIR +
         "/blinker.esv";
}

// The slow blinker from the journal CLI tests: thousands of statements per
// seed, so queued campaigns are still alive when the daemon is killed.
const char* kSlowBlinker = R"(
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

const char* kSlowSpec = R"(
input enable 0 1

prop led_on    = led == LED_ON
prop led_off   = led == LED_OFF

check legal: G (led_on || led_off)
)";

/// fork/execs esv-serve so the test can SIGKILL it (popen offers no pid).
pid_t spawn_serve(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  FILE* sink = std::freopen("/dev/null", "w", stdout);
  (void)sink;
  sink = std::freopen("/dev/null", "w", stderr);
  (void)sink;
  std::vector<char*> argv;
  std::string binary = ESV_SERVE_BIN;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(ESV_SERVE_BIN, argv.data());
  _exit(127);
}

/// Polls the daemon with status requests until it answers (or fails the
/// test after 30 s). Returns the last status reply JSON text.
std::string await_daemon(const std::string& socket_path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const RunResult status =
        run_client("--socket=" + socket_path + " status");
    if (status.exit_code == 0) return status.output;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "daemon on " << socket_path << " never came up";
  return "{}";
}

esv::dist::Json parse_status(const std::string& output) {
  const std::size_t open = output.find('{');
  const std::size_t close = output.rfind('}');
  if (open == std::string::npos || close == std::string::npos) {
    ADD_FAILURE() << "no JSON in status output: " << output;
    return esv::dist::Json::parse("{}");
  }
  return esv::dist::Json::parse(output.substr(open, close - open + 1));
}

/// Polls until the daemon reports an idle scheduler (nothing queued or
/// running). Returns the final status reply.
esv::dist::Json await_idle(const std::string& socket_path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    const RunResult status =
        run_client("--socket=" + socket_path + " status");
    if (status.exit_code == 0) {
      const esv::dist::Json json = parse_status(status.output);
      if (json.u64_or("queue_depth", 1) == 0 &&
          json.u64_or("running", 1) == 0) {
        return json;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ADD_FAILURE() << "daemon on " << socket_path << " never went idle";
  return esv::dist::Json::parse("{}");
}

TEST(ServeCliTest, KillNineMidQueueThenRestartLosesNothing) {
  const std::string socket_path = temp_path("kill.sock");
  const std::string journal_path = temp_path("kill.esvj");
  const std::string slow_c = temp_path("kill_slow.c");
  const std::string slow_esv = temp_path("kill_slow.esv");
  const std::string first_report = temp_path("kill_first.json");
  const std::string second_report = temp_path("kill_second.json");
  std::remove(journal_path.c_str());
  write_file(slow_c, kSlowBlinker);
  write_file(slow_esv, kSlowSpec);

  const pid_t first = spawn_serve({"--socket=" + socket_path,
                                   "--journal=" + journal_path,
                                   "--journal-sync=record", "--quiet"});
  ASSERT_GT(first, 0);
  await_daemon(socket_path);

  // One job completes before the kill; its report is the byte-identity
  // reference.
  const RunResult completed = run_client(
      "--socket=" + socket_path + " submit " + blinker_args() +
      " --campaign=1..4 --report=" + first_report);
  ASSERT_EQ(completed.exit_code, 0) << completed.output;
  ASSERT_FALSE(read_file(first_report).empty());

  // Two slow campaigns are accepted-and-acked (exit 0 means the accepted
  // frame arrived, which the daemon only sends after journaling), then the
  // daemon is SIGKILLed with them still in flight.
  const RunResult queued1 = run_client(
      "--socket=" + socket_path + " submit " + slow_c + " " + slow_esv +
      " --campaign=1..6 --no-wait --quiet");
  ASSERT_EQ(queued1.exit_code, 0) << queued1.output;
  const RunResult queued2 = run_client(
      "--socket=" + socket_path + " submit " + slow_c + " " + slow_esv +
      " --campaign=1..7 --tenant=other --no-wait --quiet");
  ASSERT_EQ(queued2.exit_code, 0) << queued2.output;

  ::kill(first, SIGKILL);
  ::waitpid(first, nullptr, 0);

  // The journal must already hold all three accepted jobs and the first
  // completion.
  const esv::serve::RecoveredServe at_kill =
      esv::serve::recover_serve(journal_path);
  EXPECT_TRUE(at_kill.header_valid);
  EXPECT_GE(at_kill.completed.size(), 1u);
  EXPECT_GE(at_kill.pending.size() + at_kill.completed.size(), 3u);

  // Restart on the same journal: the accepted jobs re-run to completion.
  const pid_t second = spawn_serve({"--socket=" + socket_path,
                                    "--journal=" + journal_path,
                                    "--journal-sync=record", "--quiet"});
  ASSERT_GT(second, 0);
  await_daemon(socket_path);
  await_idle(socket_path);

  const esv::serve::RecoveredServe drained =
      esv::serve::recover_serve(journal_path);
  EXPECT_TRUE(drained.pending.empty())
      << "an accepted-and-acked job was lost across the restart";
  EXPECT_GE(drained.completed.size(), 3u);

  // A resubmission of the pre-kill job is served from the recovered cache,
  // byte-identical.
  const RunResult warm = run_client(
      "--socket=" + socket_path + " submit " + blinker_args() +
      " --campaign=1..4 --report=" + second_report);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("(cached)"), std::string::npos) << warm.output;
  EXPECT_EQ(read_file(second_report), read_file(first_report))
      << "restarted daemon served a different report for completed content";

  const RunResult shutdown =
      run_client("--socket=" + socket_path + " shutdown --quiet");
  EXPECT_EQ(shutdown.exit_code, 0) << shutdown.output;
  ::waitpid(second, nullptr, 0);

  for (const std::string& path : {journal_path, slow_c, slow_esv,
                                  first_report, second_report}) {
    std::remove(path.c_str());
  }
}

TEST(ServeCliTest, ChaosAcceptDropShedsTheFirstConnection) {
  const std::string socket_path = temp_path("chaos.sock");
  const pid_t daemon = spawn_serve({"--socket=" + socket_path,
                                    "--chaos=serve.accept drop nth 1",
                                    "--quiet"});
  ASSERT_GT(daemon, 0);

  // The first accepted connection is dropped on arrival: depending on who
  // wins the race, the client sees EOF ("connection closed"), its write
  // fails ("Broken pipe"), or — when its frame was already queued on the
  // server side at close time — its read fails ("Connection reset").
  // Either way exit 3. Later connections are untouched. ("cannot connect"
  // just means the daemon isn't up yet.)
  const auto dropped = [](const RunResult& r) {
    return r.output.find("connection closed") != std::string::npos ||
           r.output.find("Broken pipe") != std::string::npos ||
           r.output.find("Connection reset") != std::string::npos;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  RunResult first;
  do {
    first = run_client("--socket=" + socket_path + " status");
    if (dropped(first)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(first.exit_code, 3) << first.output;
  EXPECT_TRUE(dropped(first)) << first.output;

  const RunResult second =
      run_client("--socket=" + socket_path + " status");
  EXPECT_EQ(second.exit_code, 0) << second.output;

  const RunResult shutdown =
      run_client("--socket=" + socket_path + " shutdown --quiet");
  EXPECT_EQ(shutdown.exit_code, 0) << shutdown.output;
  ::waitpid(daemon, nullptr, 0);
}

TEST(ServeCliTest, UsageErrorsExitTwo) {
  struct Case {
    std::string args;
    std::string expect;
  };
  const std::vector<Case> serve_cases = {
      {"", "--socket is required"},
      {"--socket=/tmp/x.sock --journal-sync=always", "--journal-sync"},
      {"--socket=/tmp/x.sock --concurrency=0", "--concurrency"},
      {"--socket=/tmp/x.sock --queue-limit=none", "--queue-limit"},
      {"--socket=/tmp/x.sock --chaos-seed=7", "--chaos-seed requires"},
      {"--socket=/tmp/x.sock --journal-max-bytes=4096",
       "--journal-max-bytes requires --journal"},
      {"--socket=/tmp/x.sock --write-timeout-ms=0", "--write-timeout-ms"},
      {"--socket=/tmp/x.sock --max-request-bytes=nope",
       "--max-request-bytes"},
      {"--socket=/tmp/x.sock --frobnicate", "unknown argument"},
  };
  for (const Case& test_case : serve_cases) {
    const RunResult result = run_serve(test_case.args);
    EXPECT_EQ(result.exit_code, 2) << test_case.args << "\n" << result.output;
    EXPECT_NE(result.output.find(test_case.expect), std::string::npos)
        << test_case.args << "\n" << result.output;
  }

  const std::vector<Case> client_cases = {
      {"status", "--socket is required"},
      {"--socket=/tmp/x.sock", "expected a command"},
      {"--socket=/tmp/x.sock frobnicate", "unknown command"},
      {"--socket=/tmp/x.sock submit onlyone.c", "submit expects"},
      {"--socket=/tmp/x.sock cancel", "cancel expects"},
      {"--socket=/tmp/x.sock submit a.c b.esv --campaign=5..2",
       "--campaign expects"},
      {"--socket=/tmp/x.sock --retry-budget=0 status", "--retry-budget"},
  };
  for (const Case& test_case : client_cases) {
    const RunResult result = run_client(test_case.args);
    EXPECT_EQ(result.exit_code, 2) << test_case.args << "\n" << result.output;
    EXPECT_NE(result.output.find(test_case.expect), std::string::npos)
        << test_case.args << "\n" << result.output;
  }

  // A dead socket exhausts the connect-retry budget (4, self-healing gave
  // up); --no-retry turns it into a fast single-shot connection failure
  // (3).
  const RunResult dead = run_client(
      "--socket=/tmp/esv_scli_no_such.sock --retry-budget=2 status");
  EXPECT_EQ(dead.exit_code, 4) << dead.output;
  EXPECT_NE(dead.output.find("retry budget"), std::string::npos)
      << dead.output;
  const RunResult dead_fast = run_client(
      "--socket=/tmp/esv_scli_no_such.sock --no-retry status");
  EXPECT_EQ(dead_fast.exit_code, 3) << dead_fast.output;
  EXPECT_NE(dead_fast.output.find("cannot connect"), std::string::npos)
      << dead_fast.output;
}

// Numeric values are strict. Each of these was misread before (read as a
// prefix, wrapped, or taken with its sign) and must now fail at parse time
// with the flag's own message. The daemon runs under `timeout` so a build
// that accepts the value cannot hang the test.
TEST(ServeCliTest, MisreadNumbersExitTwoWithTheFlagsMessage) {
  const std::string socket = "--socket=" + temp_path("misread.sock");
  const std::vector<std::pair<std::string, std::string>> serve_cases = {
      {"--concurrency=4x", "--concurrency must be a positive integer"},
      {"--queue-limit=8x", "--queue-limit must be a positive integer"},
      {"--journal-max-bytes=0x10",
       "--journal-max-bytes must be a non-negative integer"},
      {"\"--cache-max-entries= 5\"",
       "--cache-max-entries must be a non-negative integer"},
      {"--tenant-max-queued=2x",
       "--tenant-max-queued must be a non-negative integer"},
      {"--tenant-max-inflight=-0",
       "--tenant-max-inflight must be a non-negative integer"},
      {"--max-request-bytes=1.5",
       "--max-request-bytes must be a non-negative integer"},
      {"--write-timeout-ms=+100",
       "--write-timeout-ms must be a positive integer"},
      {"--idle-timeout-ms=5ms",
       "--idle-timeout-ms must be a non-negative integer"},
      {"\"--chaos=serve.rx delay 1 nth 1000\" --chaos-seed=-1",
       "--chaos-seed must be an integer"},
  };
  for (const auto& [args, message] : serve_cases) {
    const RunResult result = run_command("timeout 5 " +
                                         std::string(ESV_SERVE_BIN) + " " +
                                         socket + " --quiet " + args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find(message), std::string::npos)
        << args << "\n" << result.output;
  }

  const std::string client = "--socket=" + temp_path("no_daemon.sock") +
                             " --no-retry ";
  const std::vector<std::pair<std::string, std::string>> client_cases = {
      {"--jobs=-1 submit a.c b.esv", "--jobs must be an integer"},
      {"--workers=-1 submit a.c b.esv", "--workers must be an integer"},
      {"--max-steps=1x submit a.c b.esv", "--max-steps must be an integer"},
      {"--retry-budget=2x status", "--retry-budget must be a positive integer"},
      {"cancel 7x", "cancel expects a numeric job id"},
      {"cancel -1", "cancel expects a numeric job id"},
  };
  for (const auto& [args, message] : client_cases) {
    const RunResult result = run_client(client + args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find(message), std::string::npos)
        << args << "\n" << result.output;
  }
}

// --- disk-budget governance drills ---------------------------------------

TEST(ServeCliTest, KillNineAtEveryCompactionStepRecoversByteIdentical) {
  // The three crash points of the snapshot-then-swap sequence: before the
  // snapshot image is written, before the rename makes it live, and before
  // the old tail truncates. At every one, kill -9 the daemon mid-compaction
  // and demand a chaos-free restart that loses no acked job and serves
  // every pre-crash report byte-identically.
  const std::vector<std::string> crash_points = {
      "journal.snapshot crash nth 1",
      "journal.rename crash nth 1",
      "journal.truncate crash nth 1",
  };
  for (const std::string& directive : crash_points) {
    SCOPED_TRACE(directive);
    const std::string tag = std::to_string(&directive - &crash_points[0]);
    const std::string socket_path = temp_path("drill" + tag + ".sock");
    const std::string journal_path = temp_path("drill" + tag + ".esvj");
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".snap").c_str());
    std::remove((journal_path + ".snap.tmp").c_str());

    const pid_t first = spawn_serve(
        {"--socket=" + socket_path, "--journal=" + journal_path,
         "--journal-sync=record", "--journal-max-bytes=4096",
         "--chaos=" + directive, "--quiet"});
    ASSERT_GT(first, 0);
    await_daemon(socket_path);

    // Distinct submissions grow the tail toward the 4 KiB budget; the
    // first compaction attempt hits the armed crash point and the daemon
    // SIGKILLs itself mid-swap. Reports captured before that are the
    // byte-identity references.
    std::vector<std::pair<std::string, std::string>> verified;  // args, file
    bool died = false;
    for (int i = 0; i < 15 && !died; ++i) {
      const std::string campaign =
          "--campaign=1.." + std::to_string(2 + i);
      const std::string report =
          temp_path("drill" + tag + "_r" + std::to_string(i) + ".json");
      const RunResult submit = run_client(
          "--socket=" + socket_path + " submit " + blinker_args() + " " +
          campaign + " --report=" + report + " --no-retry --quiet");
      if (submit.exit_code == 0 && !read_file(report).empty()) {
        verified.emplace_back(campaign, report);
      }
      int status = 0;
      if (::waitpid(first, &status, WNOHANG) == first) {
        died = true;
        EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
            << "the daemon must die by its own SIGKILL, status " << status;
      }
    }
    EXPECT_TRUE(died) << "the armed crash point never fired";
    ASSERT_FALSE(verified.empty());

    // Recovery must parse whatever segment pair the crash left behind
    // without throwing, and hold every report the clients were acked.
    const esv::serve::RecoveredServe at_kill =
        esv::serve::recover_serve(journal_path);
    EXPECT_TRUE(at_kill.header_valid);
    EXPECT_GE(at_kill.completed.size(), verified.size());

    // Chaos-free restart on the surviving segments.
    const pid_t second = spawn_serve(
        {"--socket=" + socket_path, "--journal=" + journal_path,
         "--journal-sync=record", "--journal-max-bytes=4096", "--quiet"});
    ASSERT_GT(second, 0);
    await_daemon(socket_path);
    await_idle(socket_path);

    for (const auto& [campaign, report] : verified) {
      const std::string again = report + ".again";
      const RunResult warm = run_client(
          "--socket=" + socket_path + " submit " + blinker_args() + " " +
          campaign + " --report=" + again);
      EXPECT_EQ(warm.exit_code, 0) << warm.output;
      EXPECT_NE(warm.output.find("(cached)"), std::string::npos)
          << campaign << " was not served from the recovered cache:\n"
          << warm.output;
      EXPECT_EQ(read_file(again), read_file(report))
          << campaign << " came back different after the crash";
      std::remove(again.c_str());
      std::remove(report.c_str());
    }

    const RunResult shutdown =
        run_client("--socket=" + socket_path + " shutdown --quiet");
    EXPECT_EQ(shutdown.exit_code, 0) << shutdown.output;
    ::waitpid(second, nullptr, 0);
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".snap").c_str());
    std::remove((journal_path + ".snap.tmp").c_str());
  }
}

TEST(ServeCliTest, ClientConnectRetryRidesOutAStartupWindow) {
  // The daemon comes up 400 ms after the client starts knocking: the
  // client's backoff schedule must carry it across the gap instead of
  // failing on the first refused connect.
  const std::string socket_path = temp_path("retrywin.sock");
  std::remove(socket_path.c_str());
  pid_t daemon = -1;
  std::thread starter([&daemon, &socket_path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    daemon = spawn_serve({"--socket=" + socket_path, "--quiet"});
  });
  const RunResult status = run_client("--socket=" + socket_path + " status");
  starter.join();
  EXPECT_EQ(status.exit_code, 0) << status.output;
  EXPECT_NE(status.output.find("retrying"), std::string::npos)
      << "the retry path never engaged:\n"
      << status.output;
  ASSERT_GT(daemon, 0);
  const RunResult shutdown =
      run_client("--socket=" + socket_path + " shutdown --quiet");
  EXPECT_EQ(shutdown.exit_code, 0) << shutdown.output;
  ::waitpid(daemon, nullptr, 0);
}

}  // namespace
