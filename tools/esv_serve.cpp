// esv-serve — the long-lived verification service (docs/SERVE.md).
//
// Usage:
//   esv-serve --socket=PATH [options]
//
//   --socket=PATH        Unix-domain socket to listen on (required)
//   --journal=FILE       serve journal; restart recovers queue + cache
//   --journal-sync=MODE  record | batch (default) | none
//   --concurrency=N      jobs executed concurrently (default 1)
//   --queue-limit=N      bound on queued jobs; past it submits are
//                        rejected explicitly (default 64)
//   --journal-max-bytes=N  tail-segment disk budget: reaching it compacts
//                        the journal (snapshot-then-swap, docs/JOURNAL.md);
//                        0 (default) never compacts. Requires --journal.
//   --cache-max-entries=N  LRU bound on cached results (default 0 =
//                        unbounded); with compaction armed this also
//                        bounds the snapshot segment
//   --tenant-max-queued=N    per-tenant queued-job quota (default 0 = only
//                        the global --queue-limit applies)
//   --tenant-max-inflight=N  per-tenant running-job cap; a tenant at the
//                        cap is skipped by the dispatcher, not rejected
//                        (default 0 = unbounded)
//   --max-request-bytes=N  reject a request frame whose declared payload
//                        exceeds N bytes, before buffering it (default
//                        8388608; 0 disables)
//   --write-timeout-ms=N close a connection whose outbound buffer makes no
//                        progress for N ms (default 5000)
//   --idle-timeout-ms=N  close a connection idle (no bytes, no buffered
//                        output, no job) for N ms (default 0 = never)
//   --chaos=PLAN         self-chaos plan file or inline directives
//                        (serve.accept / serve.rx / journal.snapshot /
//                        journal.rename / journal.truncate;
//                        docs/RESILIENCE.md)
//   --chaos-seed=N       salt for the chaos schedule (default 1)
//   --quiet              suppress the startup/shutdown banner
//
// Numeric values are strict (src/common/flags.hpp): digits only, so a sign,
// whitespace, trailing bytes, an empty value or an overflow is refused with
// the flag's message rather than misread.
//
// SIGINT/SIGTERM stop the daemon gracefully: running jobs are cancelled
// cooperatively and stay pending in the journal for the next start.
//
// Exit codes: 0 clean shutdown, 2 usage/config error, 3 runtime failure.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "chaos/chaos.hpp"
#include "common/flags.hpp"
#include "journal/journal.hpp"
#include "serve/server.hpp"

namespace {

esv::serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

struct Options {
  esv::serve::ServerOptions server;
  std::string chaos_spec;
  std::uint64_t chaos_seed = 1;
  bool quiet = false;
};

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  esv::serve::ServerOptions& server = options.server;
  esv::common::FlagTable flags(
      [](const std::string& arg) { return "unknown argument: " + arg; });
  // Entries with rules come first, in the order their rules are checked.
  flags.text("--socket", server.socket_path).required();
  flags.text("--chaos", options.chaos_spec,
             "--chaos expects a plan file or inline directives");
  flags.number("--chaos-seed", options.chaos_seed,
               "--chaos-seed must be an integer")
      .needs("--chaos");
  flags.number("--journal-max-bytes", server.journal_max_bytes,
               "--journal-max-bytes must be a non-negative integer")
      .zero_means_off()
      .needs("--journal");
  flags.text("--journal", server.journal_path);
  flags.choice("--journal-sync", server.journal_sync,
               esv::journal::parse_sync_policy,
               "--journal-sync must be record, batch, or none");
  flags.number("--concurrency", server.concurrency,
               "--concurrency must be a positive integer", 1);
  flags.number("--queue-limit", server.queue_limit,
               "--queue-limit must be a positive integer", 1);
  flags.number("--cache-max-entries", server.cache_max_entries,
               "--cache-max-entries must be a non-negative integer");
  flags.number("--tenant-max-queued", server.tenant_max_queued,
               "--tenant-max-queued must be a non-negative integer");
  flags.number("--tenant-max-inflight", server.tenant_max_inflight,
               "--tenant-max-inflight must be a non-negative integer");
  flags.number("--max-request-bytes", server.max_request_bytes,
               "--max-request-bytes must be a non-negative integer");
  flags.number("--write-timeout-ms", server.write_timeout_ms,
               "--write-timeout-ms must be a positive integer", 1);
  flags.number("--idle-timeout-ms", server.idle_timeout_ms,
               "--idle-timeout-ms must be a non-negative integer");
  flags.toggle("--quiet", options.quiet);
  return flags.parse(argc, argv, nullptr, error) && flags.check(error);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << "esv-serve: " << error << "\n"
              << "usage: esv-serve --socket=PATH [--journal=FILE] "
                 "[--journal-sync=record|batch|none] [--concurrency=N] "
                 "[--queue-limit=N] [--journal-max-bytes=N] "
                 "[--cache-max-entries=N] [--tenant-max-queued=N] "
                 "[--tenant-max-inflight=N] [--max-request-bytes=N] "
                 "[--write-timeout-ms=N] [--idle-timeout-ms=N] "
                 "[--chaos=PLAN] [--chaos-seed=N] [--quiet]\n";
    return 2;
  }

  // Self-chaos: --chaos=PLAN names a plan file, or carries the directives
  // inline (same convention as esv-verify).
  std::unique_ptr<esv::chaos::ChaosEngine> chaos_engine;
  if (!options.chaos_spec.empty()) {
    try {
      esv::chaos::ChaosPlan plan = esv::chaos::parse_plan(
          esv::common::file_or_inline(options.chaos_spec));
      chaos_engine = std::make_unique<esv::chaos::ChaosEngine>(
          std::move(plan), options.chaos_seed, esv::chaos::Role::kBroker);
      esv::chaos::ChaosEngine::install(chaos_engine.get());
    } catch (const std::exception& e) {
      std::cerr << "esv-serve: --chaos: " << e.what() << "\n";
      return 2;
    }
  }

  try {
    esv::serve::Server server(options.server);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // Clients vanishing mid-stream must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    if (!options.quiet) {
      std::cout << "esv-serve: listening on " << server.socket_path()
                << (options.server.journal_path.empty()
                        ? " (no journal)"
                        : " (journal " + options.server.journal_path + ")")
                << "\n"
                << std::flush;
    }
    server.run();
    g_server = nullptr;
    if (!options.quiet) std::cout << "esv-serve: stopped\n";
  } catch (const std::exception& e) {
    std::cerr << "esv-serve: " << e.what() << "\n";
    esv::chaos::ChaosEngine::install(nullptr);
    return 3;
  }
  esv::chaos::ChaosEngine::install(nullptr);
  return 0;
}
