// The automotive scenario corpus: every case study under examples/data/
// (<study>.c, <study>.esv, <study>.flt, the files esv-verify runs) compiles,
// and its spec and fault plan parse and resolve against the program. The
// data directory and the study list are injected by CMake.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "minic/printer.hpp"
#include "minic/sema.hpp"
#include "spec/specfile.hpp"

#ifndef ESV_DATA_DIR
#error "ESV_DATA_DIR must be defined by the build"
#endif
#ifndef ESV_CASE_STUDIES
#error "ESV_CASE_STUDIES must be defined by the build"
#endif

namespace esv {
namespace {

/// The build's comma-separated study list.
std::vector<std::string> studies() {
  std::vector<std::string> names;
  std::istringstream in(ESV_CASE_STUDIES);
  for (std::string name; std::getline(in, name, ',');) names.push_back(name);
  return names;
}

std::string read_study_file(const std::string& study, const char* extension) {
  const std::string path = std::string(ESV_DATA_DIR) + "/" + study + extension;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CasestudyCorpusTest, EveryEntryCompilesAndResolves) {
  ASSERT_FALSE(studies().empty());
  for (const std::string& study : studies()) {
    SCOPED_TRACE(study);

    minic::Program program = minic::compile(read_study_file(study, ".c"));
    EXPECT_FALSE(program.globals.empty());
    EXPECT_NE(program.find_function("main"), nullptr);

    // The spec parses and every proposition watches a real global.
    const spec::SpecFile spec_file =
        spec::parse_spec(read_study_file(study, ".esv"));
    EXPECT_GE(spec_file.properties.size(), 4u);
    for (const spec::PropositionSpec& prop : spec_file.propositions) {
      if (prop.global == "fname") continue;
      EXPECT_NE(program.find_global(prop.global), nullptr)
          << "proposition " << prop.name << " watches unknown global "
          << prop.global;
    }

    // The fault plan parses and every fault targets a real global.
    const fault::FaultPlan plan =
        fault::parse_plan(read_study_file(study, ".flt"));
    EXPECT_FALSE(plan.empty());
    for (const fault::FaultSpec& fault_spec : plan.entries) {
      EXPECT_NE(program.find_global(fault_spec.target), nullptr)
          << "fault targets unknown global " << fault_spec.target;
    }
  }
}

TEST(CasestudyCorpusTest, SourcesReachPrinterFixpoint) {
  // The hand-written sources are not in canonical form, but one
  // canonicalize step must land on the parse-print fixpoint.
  for (const std::string& study : studies()) {
    SCOPED_TRACE(study);
    const std::string once = minic::canonicalize(read_study_file(study, ".c"));
    EXPECT_EQ(minic::canonicalize(once), once);
  }
}

}  // namespace
}  // namespace esv
