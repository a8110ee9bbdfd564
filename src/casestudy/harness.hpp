// Experiment harness for the case study: runs one EEELib operation property
// under either verification approach and reports the paper's Fig. 8 metrics
// (verification time, test cases, return-value coverage).
//
// Approach 1 (run_with_microprocessor): the software is compiled and executed
// on the clocked microprocessor model inside the simulation kernel; the
// EswMonitor performs the flag handshake and the SCTC triggers on the
// processor clock. Verification time includes the full kernel overhead —
// that overhead *is* the paper's point of comparison.
//
// Approach 2 (run_with_esw_model): the same software goes through the
// C2SystemC derivation and runs statement-by-statement; the SCTC triggers on
// the program-counter event. No processor, no clock — hence the up-to-900x
// speedup the paper reports.
//
// In both approaches the reported verification time includes AR-automaton
// generation when the checker runs in synthesized-automaton mode (the
// paper's TB columns "include large AR-automaton generation time").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "casestudy/eeprom.hpp"
#include "sctc/checker.hpp"
#include "temporal/monitor.hpp"

namespace esv::casestudy {

struct ExperimentConfig {
  /// Stop after this many completed operations (the paper's T.C. budget:
  /// 10,000 for approach 1, 100,000 for approach 2).
  std::uint64_t max_test_cases = 10000;
  /// Safety budget: clock cycles (approach 1) or statements (approach 2).
  std::uint64_t max_steps = 200'000'000;
  /// Property time bound; empty = pure LTL (the No-TB columns).
  std::optional<std::uint32_t> time_bound;
  /// Monitor mode; kCompiled reproduces the AR-generation cost (synthesis
  /// plus the table compile).
  sctc::MonitorMode mode = sctc::MonitorMode::kProgression;
  /// Property shape (see eeprom.hpp).
  PropertyShape shape = PropertyShape::kGlobally;
  /// Stimulus seed and flash fault-injection rate.
  std::uint64_t seed = 1;
  std::uint32_t fault_permille = 10;
  /// Approach 2 only: run the derived model inside the simulation kernel
  /// (EswModel thread + esw_pc_event + checker method), exactly like the
  /// paper's SystemC setup, instead of the default kernel-free lockstep.
  /// Slower; the difference is the kernel's share of the cost.
  bool esw_in_kernel = false;
};

struct ExperimentResult {
  std::string operation;
  std::string property_text;
  /// Wall-clock verification time: AR generation + simulation (V.T.).
  double verification_seconds = 0.0;
  /// Of which: AR-automaton generation (0 in progression mode).
  double ar_generation_seconds = 0.0;
  std::uint64_t test_cases = 0;           // T.C.
  double coverage_percent = 0.0;          // C.(%)
  temporal::Verdict verdict = temporal::Verdict::kPending;
  std::uint64_t temporal_steps = 0;       // SCTC trigger count
  std::size_t automaton_states = 0;       // synthesized mode only
  std::uint64_t coverage_anomalies = 0;   // undocumented return values seen
  bool cpu_trapped = false;               // approach 1 only
};

/// Approach 1: verification using the microprocessor model.
ExperimentResult run_with_microprocessor(const OperationSpec& op,
                                         const ExperimentConfig& config);

/// Approach 2: verification on the derived SystemC ESW model.
ExperimentResult run_with_esw_model(const OperationSpec& op,
                                    const ExperimentConfig& config);

}  // namespace esv::casestudy
