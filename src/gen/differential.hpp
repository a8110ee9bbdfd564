// The differential matrix: one generated program, every backend, one answer.
//
// A generated program is run through approach 1 (the microprocessor model,
// checker triggered per clock posedge) and approach 2 (the derived ESW model,
// checker triggered per statement), each crossed with every monitor mode
// (progression / compiled / both). Any disagreement
// is a first-class bug in the toolchain, never in the generated program:
//
//   - a cell's verdict differs from the generation-time expected verdict
//   - two cells take different monitor-transition sequences (step numbers
//     stripped: approach 1 steps per cycle, approach 2 per statement — only
//     the (property, verdict) content is comparable, and only for clock-free
//     properties across approaches)
//   - the kBoth lockstep oracle records a compiled-vs-interpreted divergence
//   - a cell errors out (trap, non-termination, monitor exception)
//
// Time-bounded properties (clock_free == false) run only in approach-2
// cells: they are not stutter-invariant, so per-cycle sampling legitimately
// yields different verdicts (docs/FUZZING.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "sctc/checker.hpp"

namespace esv::gen {

struct DifferentialOptions {
  /// Run the approach-1 (microprocessor) half of the matrix. Clock-free
  /// properties only; programs with none skip approach 1 entirely.
  bool run_approach1 = true;
  /// Test hook (esv-fuzz --corrupt-seed, shrinker tests): corrupts the
  /// compiled monitor of property (corrupt_property mod #properties) in
  /// every kCompiled/kBoth cell, planting a divergence the matrix must
  /// detect. -1 disables.
  int corrupt_property = -1;
  std::uint32_t corrupt_state = 1;
  /// Statement budget for approach-2 cells (defense against a shrink
  /// candidate that loops forever).
  std::uint64_t max_statements = 2'000'000;
};

/// One (approach, mode) cell of the matrix.
struct CellRun {
  int approach = 0;
  sctc::MonitorMode mode = sctc::MonitorMode::kProgression;
  bool ran = false;
  /// Final verdict per program property (program.properties order);
  /// nullopt when the property did not run in this cell (time-bounded
  /// property in an approach-1 cell).
  std::vector<std::optional<temporal::Verdict>> verdicts;
  /// Normalized monitor-transition events (step numbers stripped).
  std::vector<std::string> transitions;
  std::uint64_t divergence_count = 0;
  std::vector<std::string> divergences;
  std::string error;  // non-empty: the cell aborted with this message

  std::string label() const;
};

struct DifferentialResult {
  std::vector<CellRun> cells;
  /// Deterministic human-readable descriptions; empty means full agreement.
  std::vector<std::string> disagreements;

  bool agreed() const { return disagreements.empty(); }
};

/// Extracts monitor_transition events from a JSONL trace, dropping step
/// numbers (everything before the "property" key).
std::vector<std::string> transition_events(const std::string& jsonl);

/// Keeps only events whose property name is in `names`.
std::vector<std::string> filter_transitions(
    const std::vector<std::string>& events,
    const std::vector<std::string>& names);

/// Runs the full matrix on one annotated program.
DifferentialResult run_differential(const GeneratedProgram& program,
                                    const DifferentialOptions& options = {});

}  // namespace esv::gen
