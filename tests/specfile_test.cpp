// Tests for the ESV spec-file parser and its binding to programs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "mem/address_space.hpp"
#include "minic/sema.hpp"
#include "spec/specfile.hpp"

namespace esv::spec {
namespace {

TEST(SpecParseTest, FullFile) {
  const SpecFile spec = parse_spec(R"(
# a comment
input op 0 6
input fault chance 1 100

prop ready = state == 0
prop big   = counter >= 0x10
check inv: G ready
check resp psl: always (ready -> eventually! big)
check plain fltl: F big
)");
  ASSERT_EQ(spec.inputs.size(), 2u);
  EXPECT_EQ(spec.inputs[0].name, "op");
  EXPECT_EQ(spec.inputs[0].hi, 6);
  EXPECT_TRUE(spec.inputs[1].is_chance);
  EXPECT_EQ(spec.inputs[1].lo, 1);
  EXPECT_EQ(spec.inputs[1].hi, 100);

  ASSERT_EQ(spec.propositions.size(), 2u);
  EXPECT_EQ(spec.propositions[0].name, "ready");
  EXPECT_EQ(spec.propositions[0].op, sctc::Compare::kEq);
  EXPECT_EQ(spec.propositions[1].op, sctc::Compare::kGe);
  EXPECT_EQ(spec.propositions[1].value_text, "0x10");

  ASSERT_EQ(spec.properties.size(), 3u);
  EXPECT_EQ(spec.properties[0].text, "G ready");
  EXPECT_EQ(spec.properties[1].dialect, temporal::Dialect::kPsl);
  EXPECT_EQ(spec.properties[2].dialect, temporal::Dialect::kFltl);
}

TEST(SpecParseTest, Errors) {
  EXPECT_THROW(parse_spec("bogus directive"), SpecError);
  EXPECT_THROW(parse_spec("prop x state == 0"), SpecError);  // missing '='
  EXPECT_THROW(parse_spec("prop x = state ~~ 0"), SpecError);
  EXPECT_THROW(parse_spec("input x 1"), SpecError);
  EXPECT_THROW(parse_spec("input x 1 z"), SpecError);
  EXPECT_THROW(parse_spec("check noprop G x"), SpecError);  // missing ':'
  EXPECT_THROW(parse_spec("check p:"), SpecError);          // empty property
  EXPECT_THROW(parse_spec("check p weird: G x"), SpecError);
  // Error messages carry the line number.
  try {
    parse_spec("\n\nbogus");
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

// Every parse error must point at the offending 1-based source line, with
// the "spec line N:" prefix in what() — that string is what esv-verify
// prints, so both the accessor and the rendered message are pinned here.
TEST(SpecParseTest, ErrorsCarryExactLineLocation) {
  struct Case {
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"bogus", 1},
      {"input enable 0 1\nwat is this", 2},
      // Blank lines and comments still count toward the line number.
      {"# header comment\n\ninput x 0 1\n\nprop broken ~ x == 0", 5},
      {"prop a = x == 0\nprop b = y ==\ncheck p: G a", 2},
      {"input x 0 1\nprop a = x == 0\ncheck p G a", 3},
  };
  for (const Case& c : cases) {
    try {
      parse_spec(c.text);
      FAIL() << "no error for: " << c.text;
    } catch (const SpecError& e) {
      EXPECT_EQ(e.line(), c.line) << c.text;
      const std::string expected = "spec line " + std::to_string(c.line) + ":";
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

// A literal past int64 is refused with a message naming it; it used to wrap
// (signed overflow) into an arbitrary bound.
TEST(SpecParseTest, InputBoundPastInt64IsRefusedNamingIt) {
  const std::pair<const char*, const char*> cases[] = {
      {"input x 0 9223372036854775808", "9223372036854775808"},
      {"input x -9223372036854775809 0", "-9223372036854775809"},
      {"input x chance 1 18446744073709551617", "18446744073709551617"},
      {"input x 0 0x10000000000000000", "0x10000000000000000"},
  };
  for (const auto& [text, value] : cases) {
    try {
      parse_spec(text);
      FAIL() << "no error for: " << text;
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + value + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // The int64 edges, hex included, stay accepted; non-literals keep their
  // message.
  const SpecFile edges = parse_spec(
      "input x -9223372036854775808 9223372036854775807\n"
      "input y -0x10 0x7FFFFFFFFFFFFFFF");
  EXPECT_EQ(edges.inputs[0].lo, INT64_MIN);
  EXPECT_EQ(edges.inputs[0].hi, INT64_MAX);
  EXPECT_EQ(edges.inputs[1].lo, -16);
  EXPECT_EQ(edges.inputs[1].hi, INT64_MAX);
  try {
    parse_spec("input x 0 12abc");
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("malformed input range"),
              std::string::npos);
  }
}

class ApplyTest : public ::testing::Test {
 protected:
  ApplyTest()
      : program(minic::compile(R"(
          enum { READY = 0, RUN = 7 };
          int state;
          int counter;
          void work(void) { counter = counter + 1; }
          void main(void) { state = RUN; work(); state = READY; }
        )")),
        memory(0x2000),
        checker(sim, "sctc") {}

  minic::Program program;
  mem::AddressSpace memory;
  sim::Simulation sim;
  sctc::TemporalChecker checker;
};

TEST_F(ApplyTest, ResolvesEnumsAndFunctions) {
  const SpecFile spec = parse_spec(R"(
prop running  = state == RUN
prop in_work  = fname == work
check sees_run: F running
check sees_work: F in_work
)");
  apply_spec(spec, program, memory, checker);
  EXPECT_EQ(checker.properties().size(), 2u);

  // Drive the memory by hand and confirm the propositions read it.
  memory.write_word(program.find_global("state")->address, 7);
  checker.step_all();
  EXPECT_EQ(checker.properties()[0].verdict(),
            temporal::Verdict::kValidated);
  memory.write_word(program.fname_address, program.fname_id("work"));
  checker.step_all();
  EXPECT_EQ(checker.properties()[1].verdict(),
            temporal::Verdict::kValidated);
}

TEST_F(ApplyTest, RejectsUnknownNames) {
  EXPECT_THROW(apply_spec(parse_spec("prop x = missing == 0"), program,
                          memory, checker),
               SpecError);
  EXPECT_THROW(apply_spec(parse_spec("prop x = state == NO_SUCH_CONST"),
                          program, memory, checker),
               SpecError);
  EXPECT_THROW(apply_spec(parse_spec("prop x = fname == no_such_function"),
                          program, memory, checker),
               SpecError);
  // A malformed property reports the spec line, not just the parse error.
  try {
    apply_spec(parse_spec("prop ok = state == 0\ncheck bad: G (ok &&"),
               program, memory, checker);
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

// The watched word is 32 bits: a value outside its signed or unsigned
// reading is refused instead of truncated (4294967296 compared as 0).
TEST_F(ApplyTest, PropValueOutside32BitsIsRefusedNamingIt) {
  for (const char* value : {"4294967296", "-2147483649", "0x100000000",
                            "99999999999999999999"}) {
    try {
      apply_spec(parse_spec(std::string("prop big = state == ") + value),
                 program, memory, checker);
      FAIL() << "no error for: " << value;
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + value + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ApplyTest, PropValueEdgesKeepTheirWord) {
  const SpecFile spec = parse_spec(R"(
prop all_ones = state == 0xFFFFFFFF
prop minus_one = state == -1
prop top = state == 4294967295
prop low = counter == -2147483648
check a: F all_ones
check b: F minus_one
check c: F top
check d: F low
)");
  apply_spec(spec, program, memory, checker);
  memory.write_word(program.find_global("state")->address, 0xFFFFFFFFu);
  memory.write_word(program.find_global("counter")->address, 0x80000000u);
  checker.step_all();
  for (const auto& property : checker.properties()) {
    EXPECT_EQ(property.verdict(), temporal::Verdict::kValidated)
        << property.name;
  }
}

}  // namespace
}  // namespace esv::spec
