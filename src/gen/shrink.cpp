#include "gen/shrink.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"
#include "minic/printer.hpp"

namespace esv::gen {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs in `text` with identifier boundaries on both
/// sides (so pruning "g1_eq_5" never matches inside "g1_eq_55").
bool contains_token(const std::string& text, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Drops propositions no remaining property mentions.
void prune_propositions(GeneratedProgram& program) {
  std::erase_if(program.propositions, [&](const GeneratedProposition& p) {
    return std::none_of(
        program.properties.begin(), program.properties.end(),
        [&](const GeneratedProperty& prop) {
          return contains_token(prop.text, p.name);
        });
  });
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

struct Shrinker {
  const ShrinkOptions& options;
  GeneratedProgram best;
  std::uint64_t step_budget = 0;
  ShrinkResult stats;

  /// Canonicalizes, re-annotates (rejecting non-terminating or otherwise
  /// broken candidates), and keeps the candidate only if the matrix still
  /// disagrees.
  bool try_accept(GeneratedProgram candidate) {
    ++stats.attempts;
    try {
      candidate.source = minic::canonicalize(candidate.source);
      reannotate(candidate, step_budget);
    } catch (const std::exception&) {
      return false;
    }
    // Strict progress only: canonicalization can undo an edit (deleting a
    // blank line the printer re-inserts), and accepting a byte-identical
    // candidate would loop forever.
    if (candidate.source == best.source &&
        candidate.properties.size() == best.properties.size()) {
      return false;
    }
    DifferentialOptions diff = options.differential;
    diff.max_statements = step_budget;
    if (run_differential(candidate, diff).agreed()) return false;
    best = std::move(candidate);
    ++stats.accepted;
    return true;
  }

  bool pass_remove_properties() {
    bool any = false;
    for (std::size_t i = best.properties.size(); i-- > 0;) {
      if (best.properties.size() <= 1) break;
      GeneratedProgram candidate = best;
      candidate.properties.erase(
          candidate.properties.begin() + static_cast<std::ptrdiff_t>(i));
      prune_propositions(candidate);
      any |= try_accept(std::move(candidate));
    }
    return any;
  }

  bool pass_remove_lines() {
    bool any = false;
    std::vector<std::string> lines = split_lines(best.source);
    for (std::size_t window = std::max<std::size_t>(lines.size() / 2, 1);
         window >= 1; window /= 2) {
      std::size_t at = 0;
      while (at < lines.size()) {
        const std::size_t take = std::min(window, lines.size() - at);
        GeneratedProgram candidate = best;
        std::vector<std::string> kept = lines;
        kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(at),
                   kept.begin() + static_cast<std::ptrdiff_t>(at + take));
        candidate.source = join_lines(kept);
        if (try_accept(std::move(candidate))) {
          any = true;
          lines = split_lines(best.source);  // stay at `at`: next window moved in
        } else {
          at += 1;
        }
      }
      if (window == 1) break;
    }
    return any;
  }

  bool pass_simplify_literals() {
    bool any = false;
    std::size_t pos = 0;
    while (pos < best.source.size()) {
      const std::string& text = best.source;
      if (!std::isdigit(static_cast<unsigned char>(text[pos])) ||
          (pos > 0 && is_ident_char(text[pos - 1]))) {
        ++pos;
        continue;
      }
      std::size_t end = pos;
      while (end < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      // Skip hex prefixes outright (the canonical printer emits decimal, but
      // case-study sources may carry 0x literals through a shrink).
      if (end < text.size() && (text[end] == 'x' || text[end] == 'X')) {
        pos = end + 1;
        continue;
      }
      // A literal past 64 bits reads as 0, so no replacement is tried.
      const std::uint64_t value =
          common::parse_u64(std::string_view(text).substr(pos, end - pos))
              .value_or(0);
      std::vector<std::string> replacements;
      if (value != 0) replacements.push_back("0");
      if (value > 1) replacements.push_back("1");
      if (value > 3) replacements.push_back(std::to_string(value / 2));
      bool replaced = false;
      for (const std::string& replacement : replacements) {
        GeneratedProgram candidate = best;
        candidate.source = text.substr(0, pos) + replacement +
                           text.substr(end);
        if (try_accept(std::move(candidate))) {
          any = true;
          replaced = true;
          pos += replacement.size();
          break;
        }
      }
      if (!replaced) pos = end;
    }
    return any;
  }
};

}  // namespace

bool still_fails(const GeneratedProgram& program,
                 const DifferentialOptions& options) {
  return !run_differential(program, options).agreed();
}

ShrinkResult shrink(const GeneratedProgram& program,
                    const ShrinkOptions& options) {
  if (!still_fails(program, options.differential)) {
    throw GenError("shrink: the program does not fail the differential "
                   "matrix under the given options");
  }

  Shrinker shrinker{options, program, 0, {}};
  // The termination budget scales with the *original* run: a shrink step may
  // never manufacture a (much) longer-running program, let alone an
  // infinite loop.
  const ObservedTrace trace = observe_reference_trace(
      program.source, options.differential.max_statements);
  shrinker.step_budget = trace.statements * 2 + 1024;

  for (int round = 0; round < options.max_rounds; ++round) {
    shrinker.stats.rounds = round + 1;
    bool any = false;
    any |= shrinker.pass_remove_properties();
    any |= shrinker.pass_remove_lines();
    any |= shrinker.pass_simplify_literals();
    if (!any) break;
  }

  DifferentialOptions diff = options.differential;
  diff.max_statements = shrinker.step_budget;
  shrinker.stats.disagreements =
      run_differential(shrinker.best, diff).disagreements;
  shrinker.stats.program = std::move(shrinker.best);
  return shrinker.stats;
}

}  // namespace esv::gen
