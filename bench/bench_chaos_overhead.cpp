// Self-chaos probe overhead (docs/RESILIENCE.md): what an armed-but-idle
// chaos engine costs a campaign, and what a single chaos::at() probe costs
// at a fault point.
//
// The acceptance bar is < 1% campaign slowdown with an engine installed and
// every fault point armed but never firing — chaos must be cheap enough
// that shipping the probes in production builds is a non-decision. Two
// levels guarantee that:
//
//   micro: chaos::at() with no engine installed is one atomic load and a
//   branch (sub-nanosecond); with an engine installed but the directive
//   already spent, it is one mutex round-trip plus a plan scan — paid only
//   per *infrastructure operation* (frame sent, journal record, seed
//   dispatched), never per simulation step.
//
//   macro: an in-process campaign's compute path contains no fault points
//   at all, so an installed engine must not move seeds/s beyond noise.
//
//   bench_chaos_overhead [--seeds=N] [--reps=R] [--gate-overhead=PCT]
//                        [--json=FILE]
//
//   --seeds=N           campaign seeds per measured run (default 8)
//   --reps=R            interleaved pairs of runs, one per variant each
//                       (default 3)
//   --gate-overhead=P   exit 1 if the median per-pair time ratio says the
//                       installed-engine campaign is more than P percent
//                       slower (the recorded bar is 1; BENCH_chaos.json)
//   --json=FILE         also write the result object to FILE
//
// The gate makes the binary usable as an opt-in CTest perf check:
//   ctest -C perf -L perf        (or: cmake --build build --target check-perf)
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "chaos/chaos.hpp"

namespace {

using namespace esv;

const char* kProgram = R"(
enum { LED_OFF = 0, LED_ON = 1 };
int led;
int ticks_on;
int cycles;
void update(int enable) {
  if (enable == 1) {
    if (led == LED_OFF) { led = LED_ON; } else { led = LED_OFF; }
  } else {
    led = LED_OFF;
  }
  if (led == LED_ON) { ticks_on = ticks_on + 1; }
}
void main(void) {
  led = LED_OFF;
  while (cycles < 2000) {
    int enable = __in(enable);
    update(enable);
    cycles = cycles + 1;
  }
}
)";

const char* kSpec = R"(
input enable 0 1
prop led_on   = led == LED_ON
prop led_off  = led == LED_OFF
prop finished = cycles >= 2000
check legal: G (led_on || led_off)
check terminates: F finished
)";

/// One fully armed directive per fault point; every one either fires once
/// and is spent (count 1 default) or can never fire in-process — the
/// steady state a long chaos campaign's probe sites live in.
const char* kArmedPlan =
    "wire.tx drop nth 1\n"
    "worker.seed crash nth 1\n"
    "worker.heartbeat delay 100 nth 1\n"
    "journal.write failwrite nth 1\n"
    "journal.fsync failsync nth 1\n";

double campaign_seconds(std::uint64_t seeds) {
  campaign::CampaignConfig config;
  config.program_source = kProgram;
  config.spec_text = kSpec;
  config.seed_lo = 1;
  config.seed_hi = seeds;
  const auto started = std::chrono::steady_clock::now();
  const campaign::CampaignReport report = campaign::run(config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  if (report.error_seeds != 0) {
    std::cerr << "campaign errored during measurement\n";
    std::exit(2);
  }
  return elapsed;
}

/// ns per chaos::at() probe over `iters` calls; `sink` defeats dead-code
/// elimination.
double probe_ns(std::uint64_t iters, std::uint64_t& sink) {
  const auto started = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (chaos::at(chaos::Point::kWireTx)) ++sink;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return seconds * 1e9 / static_cast<double>(iters);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && out > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 8;
  std::uint64_t reps = 3;
  double gate_overhead = 0.0;  // percent; 0 = no gate
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix, std::string& out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      out = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    if (value_of("--seeds=", value)) {
      if (!parse_u64(value, seeds) || seeds == 0) {
        std::cerr << "--seeds must be a positive integer\n";
        return 2;
      }
    } else if (value_of("--reps=", value)) {
      if (!parse_u64(value, reps) || reps == 0) {
        std::cerr << "--reps must be a positive integer\n";
        return 2;
      }
    } else if (value_of("--gate-overhead=", value)) {
      if (!parse_double(value, gate_overhead)) {
        std::cerr << "--gate-overhead must be a positive percentage\n";
        return 2;
      }
    } else if (value_of("--json=", value)) {
      json_path = value;
    } else {
      std::cerr << "usage: bench_chaos_overhead [--seeds=N] [--reps=R]"
                   " [--gate-overhead=PCT] [--json=FILE]\n";
      return 2;
    }
  }

  // --- micro: the probe itself ------------------------------------------
  constexpr std::uint64_t kProbeIters = 20'000'000;
  std::uint64_t sink = 0;

  const double ns_uninstalled = probe_ns(kProbeIters, sink);

  chaos::ChaosEngine engine(chaos::parse_plan(kArmedPlan), 1);
  chaos::ChaosEngine::install(&engine);
  (void)chaos::at(chaos::Point::kWireTx);  // spend the wire.tx directive
  const double ns_installed_miss = probe_ns(kProbeIters, sink);
  chaos::ChaosEngine::install(nullptr);

  // --- macro: a real campaign, engine off vs armed-but-idle -------------
  // The variants run interleaved, one pair per rep, with the order
  // alternating (a fixed order hands whichever variant runs first the
  // residual turbo headroom). Both runs of a pair see nearly the same host
  // load, so their time ratio cancels most of a shared host's drift, and
  // the gate reads the median ratio over many short pairs. A best-of-N
  // time per variant cancels none of it: two identical variants read -10%
  // to +16% apart, and even 40 pairs of 16-seed runs read -3% to +2%.
  campaign_seconds(seeds);  // warm-up: page caches, allocator, factories
  const auto armed_campaign_seconds = [&] {
    chaos::ChaosEngine::install(&engine);
    const double seconds = campaign_seconds(seeds);
    chaos::ChaosEngine::install(nullptr);
    return seconds;
  };
  std::vector<double> off_runs;
  std::vector<double> armed_runs;
  std::vector<double> ratios;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    double off = 0.0;
    double armed = 0.0;
    if (rep % 2 == 0) {
      off = campaign_seconds(seeds);
      armed = armed_campaign_seconds();
    } else {
      armed = armed_campaign_seconds();
      off = campaign_seconds(seeds);
    }
    off_runs.push_back(off);
    armed_runs.push_back(armed);
    ratios.push_back(armed / off);
  }
  const double off_sps = static_cast<double>(seeds) / median(off_runs);
  const double armed_sps = static_cast<double>(seeds) / median(armed_runs);
  const double overhead_percent = (median(ratios) - 1.0) * 100.0;

  std::ostringstream json;
  json << "{\n";
  json << "  \"seeds_per_rep\": " << seeds << ",\n";
  json << "  \"reps\": " << reps << ",\n";
  json << "  \"probe_ns_no_engine\": "
       << static_cast<std::uint64_t>(ns_uninstalled * 1000.0) / 1000.0
       << ",\n";
  json << "  \"probe_ns_engine_installed_miss\": "
       << static_cast<std::uint64_t>(ns_installed_miss * 1000.0) / 1000.0
       << ",\n";
  json << "  \"campaign_seeds_per_second_no_engine\": "
       << static_cast<std::uint64_t>(off_sps * 100.0) / 100.0 << ",\n";
  json << "  \"campaign_seeds_per_second_engine_armed\": "
       << static_cast<std::uint64_t>(armed_sps * 100.0) / 100.0 << ",\n";
  json << "  \"campaign_overhead_percent\": "
       << static_cast<std::int64_t>(overhead_percent * 1000.0) / 1000.0
       << "\n";
  json << "}\n";

  std::cout << json.str();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out << json.str();
  }

  if (gate_overhead > 0.0 && overhead_percent > gate_overhead) {
    std::cerr << "GATE FAILED: armed chaos engine costs " << overhead_percent
              << "% campaign throughput, gate is " << gate_overhead << "%\n";
    return 1;
  }
  return 0;
}
