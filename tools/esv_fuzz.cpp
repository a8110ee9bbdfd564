// esv-fuzz: the standing differential soak.
//
// Generates seeded property-annotated mini-C programs (src/gen) and runs
// every one through the full differential matrix — approach 1 vs approach 2
// crossed with every monitor mode. Any cross-backend disagreement is a
// toolchain bug: the offender is delta-shrunk to a minimal reproducer and
// written to --repro-dir, keyed by seed + generator-config digest, so the
// exact failure regenerates from two numbers.
//
//   esv-fuzz --seeds=1000                     # seeds 0..999
//   esv-fuzz --seeds=500..600 --jobs=8
//   esv-fuzz --seeds=50 --repro-dir=repros
//   esv-fuzz --reproduce=repros/seed7-gencfg-...   # re-derive, byte-compare
//
// Exit codes: 0 all seeds agree (or a --reproduce matched byte-for-byte),
// 1 disagreements found (or a --reproduce drifted), 2 usage error,
// 3 internal error.
//
// Numeric values are strict (src/common/flags.hpp): digits only, so a sign,
// whitespace, trailing bytes, an empty value or an overflow is refused
// (exit 2) rather than misread.
//
// --corrupt-seed=K is a test hook: it plants a compiled-monitor corruption
// for seed K, so the detect → shrink → reproduce pipeline can be exercised
// end to end (docs/FUZZING.md).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/seed_runner.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "gen/differential.hpp"
#include "gen/generator.hpp"
#include "gen/shrink.hpp"

namespace {

struct Options {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 99;  // inclusive
  unsigned jobs = 1;
  std::string repro_dir;
  std::string reproduce_dir;
  std::optional<std::uint64_t> corrupt_seed;  // plant a corruption here
  int corrupt_property = 0;  // which property the hook corrupts
  bool no_approach1 = false;
  bool quiet = false;
};

struct Failure {
  std::uint64_t seed = 0;
  std::vector<std::string> disagreements;
  std::string error;  // generation itself failed (internal error)
};

int usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "esv-fuzz: " << error << "\n\n";
  std::cerr <<
      "usage: esv-fuzz [options]\n"
      "  --seeds=N | --seeds=LO..HI   seed range (default 100: seeds 0..99)\n"
      "  --jobs=N                     worker threads (default 1, at most\n"
      "                               1024; results are independent of N)\n"
      "  --repro-dir=DIR              shrink failures and write reproducers\n"
      "  --reproduce=DIR              re-derive a reproducer from its\n"
      "                               repro.json and byte-compare program.c\n"
      "  --corrupt-seed=K             test hook: plant a compiled-monitor\n"
      "                               corruption for seed K\n"
      "  --corrupt-property=I         property index the hook corrupts (0)\n"
      "  --no-approach1               approach-2 cells only (faster)\n"
      "  --quiet                      summary line only\n";
  return error.empty() ? 0 : 2;
}

std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  if (std::optional<std::string> text = esv::common::read_file(path)) {
    return *text;
  }
  throw std::runtime_error("cannot read " + path.string());
}

esv::gen::DifferentialOptions differential_options(const Options& options,
                                                   std::uint64_t seed) {
  esv::gen::DifferentialOptions diff;
  diff.run_approach1 = !options.no_approach1;
  if (options.corrupt_seed == seed) {
    diff.corrupt_property = options.corrupt_property;
  }
  return diff;
}

/// Shrinks one failing seed and writes its reproducer directory. Returns the
/// directory path.
std::filesystem::path write_repro(const Options& options,
                                  const esv::gen::GeneratedProgram& program,
                                  const Failure& failure) {
  const esv::gen::DifferentialOptions diff =
      differential_options(options, failure.seed);
  esv::gen::ShrinkOptions shrink_options;
  shrink_options.differential = diff;
  const esv::gen::ShrinkResult shrunk = esv::gen::shrink(program,
                                                         shrink_options);

  const std::filesystem::path dir =
      std::filesystem::path(options.repro_dir) /
      ("seed" + std::to_string(failure.seed) + "-" + program.config_digest);
  std::filesystem::create_directories(dir);

  write_file(dir / "original.c", program.source);
  write_file(dir / "program.c", shrunk.program.source);
  write_file(dir / "props.esv", shrunk.program.spec_text());
  if (!shrunk.program.fault_plan.empty()) {
    write_file(dir / "faults.flt", shrunk.program.fault_plan);
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"seed\": " << failure.seed << ",\n"
       << "  \"config\": \"" << program.config_digest << "\",\n"
       << "  \"corrupt_property\": "
       << (diff.corrupt_property >= 0 ? diff.corrupt_property : -1) << ",\n"
       << "  \"approach1\": " << (diff.run_approach1 ? "true" : "false")
       << ",\n"
       << "  \"original_lines\": " << line_count(program.source) << ",\n"
       << "  \"shrunk_lines\": " << line_count(shrunk.program.source) << ",\n"
       << "  \"shrink_attempts\": " << shrunk.attempts << ",\n"
       << "  \"disagreements\": [\n";
  for (std::size_t i = 0; i < shrunk.disagreements.size(); ++i) {
    json << "    " << esv::common::json_string(shrunk.disagreements[i])
         << (i + 1 < shrunk.disagreements.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  write_file(dir / "repro.json", json.str());
  return dir;
}

/// Pulls one JSON field out of repro.json. The file is machine-written by
/// write_repro, so a string scan is all the parsing this needs.
bool json_field(const std::string& json, const std::string& key,
                std::string& out) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return false;
  std::size_t from = json.find_first_not_of(" \t\n", at + key.size() + 3);
  if (from == std::string::npos) return false;
  std::size_t to = json.find_first_of(",\n", from);
  if (to == std::string::npos) to = json.size();
  out = json.substr(from, to - from);
  while (!out.empty() && (out.back() == ' ' || out.back() == '"')) {
    out.pop_back();
  }
  if (!out.empty() && out.front() == '"') out.erase(out.begin());
  return true;
}

int reproduce(const Options& options) {
  const std::filesystem::path dir(options.reproduce_dir);
  const std::string json = read_file(dir / "repro.json");
  std::string seed_text;
  std::string config_text;
  std::string corrupt_text;
  std::string approach1_text;
  if (!json_field(json, "seed", seed_text) ||
      !json_field(json, "config", config_text)) {
    std::cerr << "esv-fuzz: " << (dir / "repro.json").string()
              << ": missing seed/config fields\n";
    return 2;
  }
  json_field(json, "corrupt_property", corrupt_text);
  json_field(json, "approach1", approach1_text);

  const std::optional<std::uint64_t> parsed_seed =
      esv::common::parse_u64(seed_text);
  if (!parsed_seed) {
    std::cerr << "esv-fuzz: bad seed '" << seed_text << "' in repro.json\n";
    return 2;
  }
  const std::uint64_t seed = *parsed_seed;

  const esv::gen::Generator generator;
  if (generator.config().digest() != config_text) {
    std::cerr << "esv-fuzz: reproducer was recorded under config "
              << config_text << " but the current generator is "
              << generator.config().digest()
              << "; the generated program would differ\n";
    return 2;
  }

  esv::gen::DifferentialOptions diff;
  diff.run_approach1 = approach1_text != "false";
  if (!corrupt_text.empty() && corrupt_text != "-1") {
    const std::optional<std::uint64_t> corrupt =
        esv::common::parse_u64(corrupt_text);
    if (!corrupt) {
      std::cerr << "esv-fuzz: bad corrupt_property in repro.json\n";
      return 2;
    }
    diff.corrupt_property = static_cast<int>(*corrupt);
  }

  const esv::gen::GeneratedProgram program = generator.generate(seed);
  if (!esv::gen::still_fails(program, diff)) {
    std::cout << "esv-fuzz: seed " << seed
              << " no longer fails the differential matrix (fixed?)\n";
    return 1;
  }
  esv::gen::ShrinkOptions shrink_options;
  shrink_options.differential = diff;
  const esv::gen::ShrinkResult shrunk =
      esv::gen::shrink(program, shrink_options);

  const std::string recorded = read_file(dir / "program.c");
  if (shrunk.program.source != recorded) {
    std::cout << "esv-fuzz: reproducer DRIFTED for seed " << seed
              << ": re-shrunk program.c differs from the recorded one\n";
    return 1;
  }
  std::cout << "esv-fuzz: seed " << seed << " reproduced byte-identically ("
            << line_count(shrunk.program.source) << " lines, "
            << shrunk.disagreements.size() << " disagreement(s))\n";
  for (const std::string& d : shrunk.disagreements) {
    std::cout << "  " << d << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::uint64_t corrupt_seed = 0;
  esv::common::FlagTable flags(
      [](const std::string& arg) { return "unknown option '" + arg + "'"; });
  flags.range("--seeds", options.seed_lo, options.seed_hi, "", /*min_lo=*/0,
              /*bare_count=*/true);
  flags.number("--jobs", options.jobs, "", 0,
               esv::campaign::kMaxParallelism);
  flags.text("--repro-dir", options.repro_dir);
  flags.text("--reproduce", options.reproduce_dir);
  flags.number("--corrupt-seed", corrupt_seed, "");
  flags.number("--corrupt-property", options.corrupt_property, "");
  flags.toggle("--no-approach1", options.no_approach1);
  flags.toggle("--quiet", options.quiet);

  // --help answers before anything after it is read.
  int read = 1;
  while (read < argc && std::string_view(argv[read]) != "--help" &&
         std::string_view(argv[read]) != "-h") {
    ++read;
  }
  std::string error;
  if (!flags.parse(read, argv, nullptr, error)) return usage(error);
  if (read < argc) return usage();
  options.jobs = std::max(1u, options.jobs);
  if (flags.given("--corrupt-seed")) options.corrupt_seed = corrupt_seed;

  try {
    if (!options.reproduce_dir.empty()) return reproduce(options);

    const esv::gen::Generator generator;
    const std::uint64_t total = options.seed_hi - options.seed_lo + 1;

    std::atomic<std::uint64_t> next{options.seed_lo};
    std::atomic<std::uint64_t> properties_checked{0};
    std::mutex failures_mutex;
    std::vector<Failure> failures;

    const auto worker = [&] {
      for (;;) {
        const std::uint64_t seed = next.fetch_add(1);
        if (seed > options.seed_hi) return;
        Failure failure;
        failure.seed = seed;
        try {
          const esv::gen::GeneratedProgram program = generator.generate(seed);
          properties_checked += program.properties.size();
          const esv::gen::DifferentialResult result =
              esv::gen::run_differential(
                  program, differential_options(options, seed));
          if (result.agreed()) continue;
          failure.disagreements = result.disagreements;
        } catch (const std::exception& e) {
          failure.error = e.what();
        }
        const std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(std::move(failure));
      }
    };

    const std::uint64_t jobs = std::min<std::uint64_t>(options.jobs, total);
    std::vector<std::thread> threads;
    for (std::uint64_t i = 1; i < jobs; ++i) threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads) t.join();

    // Deterministic output and shrink order, independent of --jobs.
    std::sort(failures.begin(), failures.end(),
              [](const Failure& a, const Failure& b) { return a.seed < b.seed; });

    int internal_errors = 0;
    for (const Failure& failure : failures) {
      if (!failure.error.empty()) {
        ++internal_errors;
        std::cerr << "esv-fuzz: seed " << failure.seed
                  << ": internal error: " << failure.error << "\n";
        continue;
      }
      std::cout << "esv-fuzz: seed " << failure.seed << " DISAGREES ("
                << failure.disagreements.size() << " issue(s))\n";
      if (!options.quiet) {
        for (const std::string& d : failure.disagreements) {
          std::cout << "  " << d << "\n";
        }
      }
      if (!options.repro_dir.empty()) {
        const esv::gen::GeneratedProgram program =
            generator.generate(failure.seed);
        const std::filesystem::path dir =
            write_repro(options, program, failure);
        std::cout << "  reproducer: " << dir.string() << "\n";
      }
    }

    const std::size_t disagreed = failures.size() -
                                  static_cast<std::size_t>(internal_errors);
    std::cout << "esv-fuzz: " << total << " seed(s) ["
              << options.seed_lo << ".." << options.seed_hi << "], "
              << properties_checked.load() << " properties, config "
              << generator.config().digest() << ": " << disagreed
              << " disagreement(s), " << internal_errors << " error(s)\n";
    if (internal_errors != 0) return 3;
    return disagreed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "esv-fuzz: " << e.what() << "\n";
    return 3;
  }
}
