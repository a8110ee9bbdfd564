#include "chaos/chaos.hpp"

#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esv::chaos {

namespace {

// splitmix64 finalizer: mixes the chaos seed with a directive index and a
// hit counter (and, in the constructor, with process identity) so every
// draw is independent and a pure function of its coordinates.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a;
  x ^= b * 0x9E3779B97F4A7C15ULL;
  x ^= c * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// A plan number that fits T; otherwise a ChaosPlanError naming `what`.
template <typename T>
T number(const std::string& token, const char* what, int line) {
  if (token.empty()) throw ChaosPlanError(std::string(what) + " missing", line);
  T value = 0;
  if (!common::parse_uint(token, value)) {
    throw ChaosPlanError("bad " + std::string(what) + " '" + token + "'",
                         line);
  }
  return value;
}

struct ActionRule {
  Point point;
  const char* name;
  Action action;
  bool needs_arg;  // milliseconds operand
};

constexpr ActionRule kActionRules[] = {
    {Point::kWireTx, "drop", Action::kDrop, false},
    {Point::kWireTx, "truncate", Action::kTruncate, false},
    {Point::kWireTx, "corrupt", Action::kCorrupt, false},
    {Point::kWireTx, "duplicate", Action::kDuplicate, false},
    {Point::kWireTx, "delay", Action::kDelay, true},
    {Point::kWireTx, "shortsend", Action::kShortSend, false},
    {Point::kWorkerSeed, "crash", Action::kCrash, false},
    {Point::kWorkerSeed, "stall", Action::kStall, true},
    {Point::kWorkerHeartbeat, "delay", Action::kDelay, true},
    {Point::kJournalWrite, "shortwrite", Action::kShortWrite, false},
    {Point::kJournalWrite, "failwrite", Action::kFailWrite, false},
    {Point::kJournalWrite, "enospc", Action::kEnospc, false},
    {Point::kJournalFsync, "failsync", Action::kFailSync, false},
    {Point::kJournalSnapshot, "crash", Action::kCrash, false},
    {Point::kJournalSnapshot, "enospc", Action::kEnospc, false},
    {Point::kJournalSnapshot, "failwrite", Action::kFailWrite, false},
    {Point::kJournalSnapshot, "failsync", Action::kFailSync, false},
    {Point::kJournalRename, "crash", Action::kCrash, false},
    {Point::kJournalRename, "failrename", Action::kFailRename, false},
    {Point::kJournalTruncate, "crash", Action::kCrash, false},
    {Point::kServeAccept, "drop", Action::kDrop, false},
    {Point::kServeAccept, "delay", Action::kDelay, true},
    {Point::kServeRx, "drop", Action::kDrop, false},
    {Point::kServeRx, "delay", Action::kDelay, true},
};

ChaosSpec parse_directive(std::string_view text, int line) {
  const std::vector<std::string> tokens = common::words(text);
  if (tokens.size() < 2) {
    throw ChaosPlanError("expected 'point action ...'", line);
  }

  ChaosSpec spec;
  spec.line = line;

  bool point_known = false;
  for (std::size_t p = 0; p < kPointCount; ++p) {
    if (tokens[0] == point_name(static_cast<Point>(p))) {
      spec.point = static_cast<Point>(p);
      point_known = true;
      break;
    }
  }
  if (!point_known) {
    throw ChaosPlanError("unknown fault point '" + tokens[0] + "'", line);
  }

  const ActionRule* rule = nullptr;
  for (const ActionRule& candidate : kActionRules) {
    if (candidate.point == spec.point && tokens[1] == candidate.name) {
      rule = &candidate;
      break;
    }
  }
  if (rule == nullptr) {
    throw ChaosPlanError("action '" + tokens[1] + "' does not apply to point " +
                             tokens[0],
                         line);
  }
  spec.action = rule->action;

  std::size_t i = 2;
  if (rule->needs_arg) {
    if (i >= tokens.size()) {
      throw ChaosPlanError(
          "action '" + tokens[1] + "' needs a milliseconds operand", line);
    }
    spec.arg = number<std::uint64_t>(tokens[i], "milliseconds", line);
    ++i;
  }

  bool selector_seen = false;
  for (; i < tokens.size(); ++i) {
    const std::string& option = tokens[i];
    auto next_token = [&](const char* what) -> const std::string& {
      if (i + 1 >= tokens.size()) {
        throw ChaosPlanError("'" + option + "' needs a " + what, line);
      }
      return tokens[++i];
    };
    if (option == "nth") {
      if (selector_seen) {
        throw ChaosPlanError("at most one of 'nth'/'prob' per directive",
                             line);
      }
      selector_seen = true;
      spec.nth = number<std::uint64_t>(next_token("hit number"), "nth", line);
      if (spec.nth == 0) throw ChaosPlanError("nth is 1-based", line);
    } else if (option == "prob") {
      if (selector_seen) {
        throw ChaosPlanError("at most one of 'nth'/'prob' per directive",
                             line);
      }
      selector_seen = true;
      const std::string& frac = next_token("fraction A/B");
      const std::size_t slash = frac.find('/');
      if (slash == std::string::npos) {
        throw ChaosPlanError("bad probability '" + frac + "' (want A/B)",
                             line);
      }
      spec.nth = 0;
      spec.prob_num = number<std::uint32_t>(frac.substr(0, slash),
                                            "probability numerator", line);
      spec.prob_den = number<std::uint32_t>(frac.substr(slash + 1),
                                            "probability denominator", line);
      if (spec.prob_den == 0) {
        throw ChaosPlanError("probability denominator must be > 0", line);
      }
    } else if (option == "count") {
      spec.count = number<std::uint64_t>(next_token("count"), "count", line);
    } else if (option == "role") {
      const std::string& role = next_token("role (broker|worker)");
      if (role == "broker") {
        spec.role = Role::kBroker;
      } else if (role == "worker") {
        spec.role = Role::kWorker;
      } else {
        throw ChaosPlanError("bad role '" + role + "' (want broker|worker)",
                             line);
      }
    } else if (option == "gen") {
      spec.has_generation = true;
      spec.generation =
          number<std::uint32_t>(next_token("generation"), "gen", line);
    } else {
      throw ChaosPlanError("unknown option '" + option + "'", line);
    }
  }
  return spec;
}

}  // namespace

const char* point_name(Point point) {
  switch (point) {
    case Point::kWireTx: return "wire.tx";
    case Point::kWorkerSeed: return "worker.seed";
    case Point::kWorkerHeartbeat: return "worker.heartbeat";
    case Point::kJournalWrite: return "journal.write";
    case Point::kJournalFsync: return "journal.fsync";
    case Point::kServeAccept: return "serve.accept";
    case Point::kServeRx: return "serve.rx";
    case Point::kJournalSnapshot: return "journal.snapshot";
    case Point::kJournalRename: return "journal.rename";
    case Point::kJournalTruncate: return "journal.truncate";
  }
  return "?";
}

const char* action_name(Action action) {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kDrop: return "drop";
    case Action::kTruncate: return "truncate";
    case Action::kCorrupt: return "corrupt";
    case Action::kDuplicate: return "duplicate";
    case Action::kDelay: return "delay";
    case Action::kShortSend: return "shortsend";
    case Action::kCrash: return "crash";
    case Action::kStall: return "stall";
    case Action::kShortWrite: return "shortwrite";
    case Action::kFailWrite: return "failwrite";
    case Action::kEnospc: return "enospc";
    case Action::kFailSync: return "failsync";
    case Action::kFailRename: return "failrename";
  }
  return "?";
}

std::string ChaosSpec::describe() const {
  std::ostringstream out;
  out << point_name(point) << ' ' << action_name(action);
  if (action == Action::kDelay || action == Action::kStall) out << ' ' << arg;
  if (nth != 0) {
    out << " nth " << nth;
  } else {
    out << " prob " << prob_num << '/' << prob_den;
  }
  out << " count " << count;
  if (role == Role::kBroker) out << " role broker";
  if (role == Role::kWorker) out << " role worker";
  if (has_generation) out << " gen " << generation;
  return out.str();
}

std::string ChaosPlan::digest() const {
  if (entries.empty()) return "";
  common::Fnv1a digest;
  for (const ChaosSpec& spec : entries) {
    digest.mix(spec.describe());
    digest.mix("\n");
  }
  return digest.hex();
}

ChaosPlan parse_plan(std::string_view text) {
  ChaosPlan plan;
  int line = 1;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const bool at_end = i == text.size();
    if (!at_end && text[i] != '\n' && text[i] != ';') continue;
    std::string_view piece = text.substr(start, i - start);
    if (const std::size_t hash = piece.find('#'); hash != std::string::npos) {
      piece = piece.substr(0, hash);
    }
    if (piece.find_first_not_of(" \t\r") != std::string_view::npos) {
      plan.entries.push_back(parse_directive(piece, line));
    }
    if (!at_end && text[i] == '\n') ++line;
    start = i + 1;
  }
  return plan;
}

std::atomic<ChaosEngine*> ChaosEngine::installed_{nullptr};

ChaosEngine::ChaosEngine(ChaosPlan plan, std::uint64_t seed, Role role,
                         std::uint32_t worker_id, std::uint32_t generation)
    : plan_(std::move(plan)),
      seed_(mix64(seed, role == Role::kWorker ? worker_id + 1u : 0u,
                  generation)),
      role_(role),
      generation_(generation),
      fired_(plan_.entries.size(), 0) {}

ChaosEngine::~ChaosEngine() {
  ChaosEngine* self = this;
  installed_.compare_exchange_strong(self, nullptr,
                                     std::memory_order_acq_rel);
}

void ChaosEngine::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  m_injected_ = metrics != nullptr ? &metrics->counter("chaos.injected")
                                   : nullptr;
}

void ChaosEngine::set_trace(obs::TraceWriter* trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_ = trace;
}

Injection ChaosEngine::decide(Point point, std::uint64_t extent) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t point_index = static_cast<std::size_t>(point);
  const std::uint64_t hit = ++hits_[point_index];

  for (std::size_t i = 0; i < plan_.entries.size(); ++i) {
    const ChaosSpec& spec = plan_.entries[i];
    if (spec.point != point) continue;
    if (spec.role != Role::kAny && spec.role != role_) continue;
    if (spec.has_generation && spec.generation != generation_) continue;
    if (spec.count != 0 && fired_[i] >= spec.count) continue;

    bool fire = false;
    if (spec.nth != 0) {
      fire = hit >= spec.nth;
    } else {
      common::Rng draw(mix64(seed_, i + 1, hit));
      fire = draw.next_chance(spec.prob_num, spec.prob_den);
    }
    if (!fire) continue;

    Injection injection{spec.action, spec.arg};
    std::string detail = spec.describe();
    if (spec.action == Action::kCorrupt) {
      if (extent == 0) continue;  // nothing to corrupt on this probe
      common::Rng draw(mix64(seed_ ^ 0xC04400FFULL, i + 1, hit));
      injection.arg = draw.next_below(extent);
      detail += " byte " + std::to_string(injection.arg);
    }

    ++fired_[i];
    ++injected_;
    log_.push_back(ChaosRecord{point, spec.action, hit, detail});
    if (m_injected_ != nullptr) {
      m_injected_->add();
      metrics_
          ->counter(std::string("chaos.") + point_name(point) + "." +
                    action_name(spec.action))
          .add();
    }
    if (trace_ != nullptr) {
      trace_->chaos_injected(point_name(point), action_name(spec.action), hit,
                             detail);
    }
    return injection;
  }
  return {};
}

std::uint64_t ChaosEngine::injected_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

std::uint64_t ChaosEngine::hit_count(Point point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_[static_cast<std::size_t>(point)];
}

std::vector<ChaosRecord> ChaosEngine::log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

void ChaosEngine::install(ChaosEngine* engine) {
  installed_.store(engine, std::memory_order_release);
}

ChaosEngine* install_from_env(std::uint32_t worker_id,
                              std::uint32_t generation) {
  const char* plan_text = std::getenv(kPlanEnv);
  if (plan_text == nullptr || plan_text[0] == '\0') return nullptr;
  const char* seed_text = std::getenv(kSeedEnv);
  std::uint64_t seed = 1;
  if (seed_text != nullptr && seed_text[0] != '\0' &&
      !common::parse_uint(seed_text, seed)) {
    return nullptr;  // refused as a malformed plan is
  }
  ChaosPlan plan;
  try {
    plan = parse_plan(plan_text);
  } catch (const ChaosPlanError&) {
    return nullptr;  // orchestrator-validated; skew is a harness bug
  }
  if (plan.empty()) return nullptr;
  static std::unique_ptr<ChaosEngine> owner;
  owner = std::make_unique<ChaosEngine>(std::move(plan), seed, Role::kWorker,
                                        worker_id, generation);
  ChaosEngine::install(owner.get());
  return owner.get();
}

}  // namespace esv::chaos
