// esv-client — command-line client of the esv-serve daemon (docs/SERVE.md).
//
// Usage:
//   esv-client --socket=PATH submit PROGRAM.c SPEC.esv [options]
//   esv-client --socket=PATH status
//   esv-client --socket=PATH cancel JOB
//   esv-client --socket=PATH shutdown
//
// Submit options:
//   --campaign=LO..HI    seed range (default 1..1, a single-seed job)
//   --tenant=NAME        fairness bucket (default "default")
//   --jobs=N             worker threads inside the campaign (default 1)
//   --workers=N          worker processes (distributed run; default 0)
//   --max-steps=N        per-seed statement/cycle budget
//   --approach=1|2       microprocessor model / derived model (default 2)
//   --report=FILE        write the report JSON to FILE instead of stdout
//   --no-wait            exit 0 after the accepted frame (job keeps running;
//                        its report lands in the daemon's journal and cache)
//   --quiet              suppress progress lines
//
// Self-healing (all commands): a refused connection is retried with
// bounded exponential backoff + deterministic jitter (the broker's
// dist::BackoffSchedule — base 50 ms, cap 1 s), so a client that races a
// daemon restart rides it out instead of failing:
//   --retry-budget=N     connect attempts before giving up (default 8)
//   --no-retry           fail on the first refused connection (exit 3)
//
// Numeric values, and cancel's JOB, are strict (src/common/flags.hpp):
// digits only, so a sign, whitespace, trailing bytes, an empty value or an
// overflow is refused with the flag's message rather than misread. The
// daemon refuses jobs, workers or workers x jobs above 1024 as a setup
// error.
//
// Exit codes: the server-reported job exit code (0 clean, 1 violation or
// errored seeds, 2 job setup error, 3 deadline) for submit; 0 for
// status/cancel/shutdown; 2 usage errors; 3 connection/protocol failures;
// 4 the server rejected the request (backpressure or malformed submit) or
// the retry budget ran out with the daemon still unreachable.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "dist/broker.hpp"
#include "dist/wire.hpp"
#include "serve/protocol.hpp"

namespace {

struct Options {
  std::string socket_path;
  std::string command;
  std::string program_path;
  std::string spec_path;
  std::string tenant = "default";
  std::string report_path;
  esv::campaign::CampaignConfig config;
  std::uint64_t cancel_job = 0;
  bool no_wait = false;
  bool quiet = false;
  unsigned retry_budget = 8;
  bool no_retry = false;
};

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  esv::campaign::CampaignConfig& config = options.config;
  esv::common::FlagTable flags(
      [](const std::string& arg) { return "unknown argument: " + arg; });
  flags.text("--socket", options.socket_path).required();
  flags.range("--campaign", config.seed_lo, config.seed_hi,
              "--campaign expects LO..HI with 1 <= LO <= HI", /*min_lo=*/1);
  flags.text("--tenant", options.tenant);
  flags.number("--jobs", config.jobs, "--jobs must be an integer");
  flags.number("--workers", config.workers, "--workers must be an integer");
  flags.number("--max-steps", config.max_steps,
               "--max-steps must be an integer");
  flags.choice<int>(
      "--approach", config.approach,
      [](std::string_view value) -> std::optional<int> {
        if (value == "1" || value == "2") return value == "1" ? 1 : 2;
        return std::nullopt;
      },
      "--approach must be 1 or 2");
  flags.text("--report", options.report_path);
  flags.number("--retry-budget", options.retry_budget,
               "--retry-budget must be a positive integer", 1);
  flags.toggle("--no-retry", options.no_retry);
  flags.toggle("--no-wait", options.no_wait);
  flags.toggle("--quiet", options.quiet);

  std::vector<std::string> positional;
  if (!flags.parse(argc, argv, &positional, error) || !flags.check(error)) {
    return false;
  }
  if (positional.empty()) {
    error = "expected a command: submit | status | cancel | shutdown";
    return false;
  }
  options.command = positional[0];
  if (options.command == "submit") {
    if (positional.size() != 3) {
      error = "submit expects PROGRAM.c SPEC.esv";
      return false;
    }
    options.program_path = positional[1];
    options.spec_path = positional[2];
  } else if (options.command == "cancel") {
    if (positional.size() != 2) {
      error = "cancel expects a job id";
      return false;
    }
    const std::optional<std::uint64_t> job =
        esv::common::parse_u64(positional[1]);
    if (!job) {
      error = "cancel expects a numeric job id";
      return false;
    }
    options.cancel_job = *job;
  } else if (options.command == "status" || options.command == "shutdown") {
    if (positional.size() != 1) {
      error = options.command + " takes no positional arguments";
      return false;
    }
  } else {
    error = "unknown command: " + options.command;
    return false;
  }
  return true;
}

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Connect with bounded exponential backoff: a client that races a daemon
/// restart (socket not yet bound, stale socket file) rides the window out.
/// The jitter seed is fixed, so the delay sequence is identical run to run.
int connect_with_retry(const Options& options) {
  if (options.no_retry) return connect_to(options.socket_path);
  esv::dist::BackoffSchedule backoff(0.05, 1.0, /*seed=*/0xE5C11E47);
  for (unsigned attempt = 0;; ++attempt) {
    const int fd = connect_to(options.socket_path);
    if (fd >= 0) return fd;
    if (attempt + 1 >= options.retry_budget) return -1;
    const double delay = backoff.delay_seconds(attempt);
    if (!options.quiet) {
      std::cerr << "esv-client: cannot connect to " << options.socket_path
                << " (" << std::strerror(errno) << "), retrying (attempt "
                << attempt + 2 << "/" << options.retry_budget << ")\n";
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long long>(delay * 1e6)));
  }
}

/// Streams submit frames until the terminal one; returns the process exit.
int run_submit(int fd, const Options& options) {
  for (;;) {
    const auto payload = esv::dist::read_frame(fd);
    if (!payload) {
      std::cerr << "esv-client: connection closed by server\n";
      return 3;
    }
    const esv::dist::Json json = esv::dist::Json::parse(*payload);
    switch (esv::serve::frame_kind(json)) {
      case esv::serve::FrameKind::kRejected:
        std::cerr << "esv-client: rejected: "
                  << json.string_or("reason", "(no reason)")
                  << " (queue depth " << json.u64_or("queue_depth", 0)
                  << ")\n";
        return 4;
      case esv::serve::FrameKind::kAccepted:
        if (!options.quiet) {
          std::cerr << "esv-client: accepted job " << json.u64_or("job", 0)
                    << (json.bool_or("cached", false) ? " (cached)" : "")
                    << ", key " << json.string_or("key", "") << "\n";
        }
        if (options.no_wait && !json.bool_or("cached", false)) return 0;
        break;
      case esv::serve::FrameKind::kProgress:
        if (!options.quiet) {
          std::cerr << "esv-client: job " << json.u64_or("job", 0) << ": "
                    << json.u64_or("done", 0) << "/"
                    << json.u64_or("total", 0) << " seeds\n";
        }
        break;
      case esv::serve::FrameKind::kCancelled:
        if (!options.quiet) {
          std::cerr << "esv-client: job " << json.u64_or("job", 0)
                    << " cancelled\n";
        }
        return 0;
      case esv::serve::FrameKind::kReport: {
        if (!json.bool_or("durable", true)) {
          std::cerr << "esv-client: warning: the server could not journal "
                       "this result (journal degraded) — it was not cached "
                       "and a daemon restart will re-run the job\n";
        }
        const std::string report = json.string_or("report", "{}");
        if (options.report_path.empty()) {
          std::cout << report << "\n";
        } else {
          std::ofstream out(options.report_path, std::ios::binary);
          if (!out) {
            std::cerr << "esv-client: cannot write " << options.report_path
                      << "\n";
            return 3;
          }
          out << report << "\n";
        }
        return static_cast<int>(json.u64_or("exit", 0));
      }
      default:
        std::cerr << "esv-client: unexpected frame: " << *payload << "\n";
        return 3;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << "esv-client: " << error << "\n"
              << "usage: esv-client --socket=PATH [--retry-budget=N] "
                 "[--no-retry] submit PROGRAM.c SPEC.esv [options] | "
                 "status | cancel JOB | shutdown\n";
    return 2;
  }

  if (options.command == "submit") {
    for (const auto& [path, text] :
         {std::pair{&options.program_path, &options.config.program_source},
          std::pair{&options.spec_path, &options.config.spec_text}}) {
      std::optional<std::string> read = esv::common::read_file(*path);
      if (!read) {
        std::cerr << "esv-client: cannot read " << *path << "\n";
        return 2;
      }
      *text = std::move(*read);
    }
  }

  const int fd = connect_with_retry(options);
  if (fd < 0) {
    std::cerr << "esv-client: cannot connect to " << options.socket_path
              << ": " << std::strerror(errno) << "\n";
    if (!options.no_retry) {
      std::cerr << "esv-client: retry budget (" << options.retry_budget
                << " attempts) exhausted\n";
      return 4;
    }
    return 3;
  }

  int exit_code = 0;
  try {
    if (options.command == "submit") {
      esv::dist::write_frame(
          fd, esv::serve::make_submit(options.tenant, options.config));
      exit_code = run_submit(fd, options);
    } else if (options.command == "status") {
      esv::dist::write_frame(fd, esv::serve::make_status_request());
      const auto payload = esv::dist::read_frame(fd);
      if (!payload) {
        std::cerr << "esv-client: connection closed by server\n";
        exit_code = 3;
      } else {
        std::cout << *payload << "\n";
      }
    } else if (options.command == "cancel") {
      esv::dist::write_frame(fd, esv::serve::make_cancel(options.cancel_job));
      const auto payload = esv::dist::read_frame(fd);
      if (!payload) {
        std::cerr << "esv-client: connection closed by server\n";
        exit_code = 3;
      } else {
        const esv::dist::Json json = esv::dist::Json::parse(*payload);
        if (esv::serve::frame_kind(json) ==
            esv::serve::FrameKind::kRejected) {
          std::cerr << "esv-client: rejected: "
                    << json.string_or("reason", "(no reason)") << "\n";
          exit_code = 4;
        } else if (!options.quiet) {
          std::cerr << "esv-client: job " << json.u64_or("job", 0)
                    << " cancelled\n";
        }
      }
    } else {  // shutdown
      esv::dist::write_frame(fd, esv::serve::make_shutdown_request());
      const auto payload = esv::dist::read_frame(fd);
      if (!payload) {
        std::cerr << "esv-client: connection closed by server\n";
        exit_code = 3;
      } else if (!options.quiet) {
        std::cerr << "esv-client: server stopping\n";
      }
    }
  } catch (const esv::dist::WireError& e) {
    std::cerr << "esv-client: " << e.what() << "\n";
    exit_code = 3;
  }
  ::close(fd);
  return exit_code;
}
