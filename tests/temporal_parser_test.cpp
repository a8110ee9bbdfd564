// Tests for the FLTL and PSL property parsers.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "temporal/formula.hpp"
#include "temporal/parser.hpp"

namespace esv::temporal {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  FormulaFactory f;
};

// --- FLTL -------------------------------------------------------------------

TEST_F(ParserTest, FltlAtoms) {
  EXPECT_EQ(parse_fltl("true", f), f.constant(true));
  EXPECT_EQ(parse_fltl("false", f), f.constant(false));
  EXPECT_EQ(parse_fltl("Read", f), f.prop("Read"));
  EXPECT_EQ(parse_fltl("\"var1 == 0\"", f), f.prop("var1 == 0"));
}

TEST_F(ParserTest, FltlBooleanLayer) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  FormulaRef c = f.prop("c");
  EXPECT_EQ(parse_fltl("!a", f), f.not_(a));
  EXPECT_EQ(parse_fltl("a && b", f), f.and_(a, b));
  EXPECT_EQ(parse_fltl("a || b", f), f.or_(a, b));
  EXPECT_EQ(parse_fltl("a & b | c", f), f.or_(f.and_(a, b), c));
  EXPECT_EQ(parse_fltl("a -> b", f), f.implies(a, b));
  EXPECT_EQ(parse_fltl("a <-> b", f), f.iff(a, b));
  EXPECT_EQ(parse_fltl("a and b or c", f), f.or_(f.and_(a, b), c));
  EXPECT_EQ(parse_fltl("not a", f), f.not_(a));
}

TEST_F(ParserTest, FltlPrecedence) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  FormulaRef c = f.prop("c");
  // -> binds weakest and is right-associative.
  EXPECT_EQ(parse_fltl("a -> b -> c", f), f.implies(a, f.implies(b, c)));
  // ! binds tighter than &&.
  EXPECT_EQ(parse_fltl("!a && b", f), f.and_(f.not_(a), b));
  // U binds tighter than &&.
  EXPECT_EQ(parse_fltl("a U b && c", f), f.and_(f.until(a, b), c));
}

TEST_F(ParserTest, FltlTemporalOperators) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  EXPECT_EQ(parse_fltl("X a", f), f.next(a));
  EXPECT_EQ(parse_fltl("X[3] a", f), f.next(a, 3));
  EXPECT_EQ(parse_fltl("F a", f), f.eventually(a));
  EXPECT_EQ(parse_fltl("F[10] a", f), f.eventually(a, 10));
  EXPECT_EQ(parse_fltl("G a", f), f.always(a));
  EXPECT_EQ(parse_fltl("G[5] a", f), f.always(a, 5));
  EXPECT_EQ(parse_fltl("a U b", f), f.until(a, b));
  EXPECT_EQ(parse_fltl("a U[7] b", f), f.until(a, b, 7));
  EXPECT_EQ(parse_fltl("a R b", f), f.release(a, b));
  EXPECT_EQ(parse_fltl("a W b", f), f.weak_until(a, b));
}

TEST_F(ParserTest, FltlPaperPropertyShape) {
  // The paper's property (A): F (Read -> F[b] (EEE_OK || ...)).
  FormulaRef got = parse_fltl("F (Read -> F[1000] (EEE_OK || EEE_ERR))", f);
  FormulaRef want = f.eventually(
      f.implies(f.prop("Read"),
                f.eventually(f.or_(f.prop("EEE_OK"), f.prop("EEE_ERR")), 1000)));
  EXPECT_EQ(got, want);
}

TEST_F(ParserTest, FltlNestedTemporal) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  EXPECT_EQ(parse_fltl("G (a -> X F b)", f),
            f.always(f.implies(a, f.next(f.eventually(b)))));
  EXPECT_EQ(parse_fltl("F G a", f), f.eventually(f.always(a)));
}

TEST_F(ParserTest, FltlErrors) {
  EXPECT_THROW(parse_fltl("", f), ParseError);
  EXPECT_THROW(parse_fltl("a &&", f), ParseError);
  EXPECT_THROW(parse_fltl("(a", f), ParseError);
  EXPECT_THROW(parse_fltl("a b", f), ParseError);
  EXPECT_THROW(parse_fltl("F[", f), ParseError);
  EXPECT_THROW(parse_fltl("F[x] a", f), ParseError);
  EXPECT_THROW(parse_fltl("G[3 a", f), ParseError);
  EXPECT_THROW(parse_fltl("\"unterminated", f), ParseError);
  EXPECT_THROW(parse_fltl("a # b", f), ParseError);
  // Operator letters cannot be propositions.
  EXPECT_THROW(parse_fltl("F", f), ParseError);
  EXPECT_THROW(parse_fltl("X && a", f), ParseError);
}

TEST_F(ParserTest, FltlErrorPositionIsReported) {
  try {
    parse_fltl("a && %", f);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position(), 5u);
  }
}

// --- PSL --------------------------------------------------------------------

TEST_F(ParserTest, PslBasicKeywords) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  EXPECT_EQ(parse_psl("always a", f), f.always(a));
  EXPECT_EQ(parse_psl("never a", f), f.always(f.not_(a)));
  EXPECT_EQ(parse_psl("eventually! a", f), f.eventually(a));
  EXPECT_EQ(parse_psl("next a", f), f.next(a));
  EXPECT_EQ(parse_psl("next[4] a", f), f.next(a, 4));
  EXPECT_EQ(parse_psl("a until! b", f), f.until(a, b));
  EXPECT_EQ(parse_psl("a until b", f), f.weak_until(a, b));
}

TEST_F(ParserTest, PslResponseProperty) {
  FormulaRef got = parse_psl("always (req -> eventually! ack)", f);
  FormulaRef want =
      f.always(f.implies(f.prop("req"), f.eventually(f.prop("ack"))));
  EXPECT_EQ(got, want);
}

TEST_F(ParserTest, PslImplicationRhsMayUseKeywords) {
  FormulaRef got = parse_psl("always (req -> next (ack until! done))", f);
  FormulaRef want = f.always(f.implies(
      f.prop("req"), f.next(f.until(f.prop("ack"), f.prop("done")))));
  EXPECT_EQ(got, want);
}

TEST_F(ParserTest, PslBefore) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  // a before! b == !b U (a && !b).
  EXPECT_EQ(parse_psl("a before! b", f),
            f.until(f.not_(b), f.and_(a, f.not_(b))));
  // weak before additionally allows b to never happen.
  EXPECT_EQ(parse_psl("a before b", f),
            f.or_(f.until(f.not_(b), f.and_(a, f.not_(b))),
                  f.always(f.not_(b))));
}

TEST_F(ParserTest, PslBoundedEventually) {
  EXPECT_EQ(parse_psl("eventually![100] ok", f),
            f.eventually(f.prop("ok"), 100));
}

TEST_F(ParserTest, PslWeakUntilWithBound) {
  FormulaRef a = f.prop("a");
  FormulaRef b = f.prop("b");
  EXPECT_EQ(parse_psl("a until[5] b", f),
            f.or_(f.until(a, b, 5), f.always(a, 5)));
}

TEST_F(ParserTest, PslErrors) {
  EXPECT_THROW(parse_psl("", f), ParseError);
  EXPECT_THROW(parse_psl("eventually a", f), ParseError);  // missing '!'
  EXPECT_THROW(parse_psl("always", f), ParseError);
  EXPECT_THROW(parse_psl("a until", f), ParseError);
}

// Property text arrives from spec files and serve submits: nesting past the
// parser's budget is a ParseError at the offending token, not a stack
// overflow.
TEST_F(ParserTest, DeepNestingIsAParseErrorInBothDialects) {
  // `times` copies of `unit`, then the proposition, then `close` copies of
  // `closer`.
  const auto nest = [](std::string_view unit, int times,
                       std::string_view closer = "", int close = 0) {
    std::string out;
    for (int i = 0; i < times; ++i) out.append(unit);
    out.append("p");
    for (int i = 0; i < close; ++i) out.append(closer);
    return out;
  };
  constexpr int kDeep = 100000;
  for (const Dialect dialect : {Dialect::kFltl, Dialect::kPsl}) {
    try {
      parse_property(nest("(", kDeep, ")", kDeep), dialect, f);
      FAIL() << "100000 nested parentheses must be refused";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting too deep (limit 256)"),
                std::string::npos)
          << e.what();
      EXPECT_EQ(e.position(), 256u);  // the first '(' past the budget
    }
  }
  // Chains of prefix operators and of right-associative operators.
  for (const std::string_view unit :
       {"! ", "X ", "F ", "G ", "p U ", "p -> "}) {
    EXPECT_THROW(parse_fltl(nest(unit, kDeep), f), ParseError) << unit;
  }
  for (const std::string_view unit :
       {"! ", "always ", "next ", "p until ", "p -> "}) {
    EXPECT_THROW(parse_psl(nest(unit, kDeep), f), ParseError) << unit;
  }
  // Anything a human writes stays far inside the budget.
  EXPECT_EQ(parse_fltl(nest("(", 100, ")", 100), f), f.prop("p"));
  EXPECT_EQ(parse_psl(nest("(", 100, ")", 100), f), f.prop("p"));
}

// A time bound is a 32-bit step count. Past it, or past 64 bits, the parse
// fails at the number instead of wrapping (F[4294967296] ran as F[0] and
// was violated at step 1), in both dialects.
TEST_F(ParserTest, TimeBoundPast32BitsIsAParseErrorInBothDialects) {
  struct Case {
    Dialect dialect;
    const char* text;
    const char* bound;
    std::size_t position;
  };
  const Case cases[] = {
      {Dialect::kFltl, "F[4294967296] p", "4294967296", 2},
      {Dialect::kFltl, "G (a -> F[123456789012345678901] b)",
       "123456789012345678901", 10},
      {Dialect::kFltl, "a U[4294967297] b", "4294967297", 4},
      {Dialect::kPsl, "eventually![4294967296] p", "4294967296", 12},
      {Dialect::kPsl, "always (a -> eventually![123456789012345678901] b)",
       "123456789012345678901", 25},
  };
  for (const Case& c : cases) {
    try {
      parse_property(c.text, c.dialect, f);
      FAIL() << "no error for: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.position(), c.position) << c.text;
      EXPECT_NE(std::string(e.what()).find(std::string("time bound ") +
                                            c.bound + " exceeds 4294967295"),
                std::string::npos)
          << e.what();
    }
  }
  FormulaRef p = f.prop("p");
  EXPECT_EQ(parse_fltl("F[4294967295] p", f), f.eventually(p, 4294967295u));
  EXPECT_EQ(parse_psl("eventually![4294967295] p", f),
            f.eventually(p, 4294967295u));
  EXPECT_EQ(parse_fltl("F[007] p", f), f.eventually(p, 7));
}

TEST_F(ParserTest, DialectDispatch) {
  EXPECT_EQ(parse_property("G a", Dialect::kFltl, f), f.always(f.prop("a")));
  EXPECT_EQ(parse_property("always a", Dialect::kPsl, f),
            f.always(f.prop("a")));
}

TEST_F(ParserTest, BothDialectsShareTheCore) {
  // The same property written in both dialects is the same formula object.
  FormulaRef fltl = parse_fltl("G (req -> F ack)", f);
  FormulaRef psl = parse_psl("always (req -> eventually! ack)", f);
  EXPECT_EQ(fltl, psl);
}

// Print/parse round trip: the canonical text form of any formula parses
// back to the identical hash-consed node.
TEST_F(ParserTest, PrintParseRoundTripOnRandomFormulas) {
  esv::common::Rng rng(0xF00D);
  f.prop("p0");
  f.prop("p1");
  const std::function<FormulaRef(int)> gen = [&](int depth) -> FormulaRef {
    if (depth == 0 || rng.next_chance(1, 4)) {
      return f.prop("p" + std::to_string(rng.next_below(2)));
    }
    const auto bound = [&]() -> std::optional<std::uint32_t> {
      if (rng.next_chance(1, 2)) return std::nullopt;
      return static_cast<std::uint32_t>(rng.next_below(20));
    };
    switch (rng.next_below(8)) {
      case 0: return f.not_(gen(depth - 1));
      case 1: return f.and_(gen(depth - 1), gen(depth - 1));
      case 2: return f.or_(gen(depth - 1), gen(depth - 1));
      case 3: return f.next(gen(depth - 1),
                            1 + static_cast<std::uint32_t>(rng.next_below(4)));
      case 4: return f.eventually(gen(depth - 1), bound());
      case 5: return f.always(gen(depth - 1), bound());
      case 6: return f.until(gen(depth - 1), gen(depth - 1), bound());
      default: return f.release(gen(depth - 1), gen(depth - 1), bound());
    }
  };
  for (int trial = 0; trial < 300; ++trial) {
    FormulaRef original = gen(4);
    FormulaRef reparsed = parse_fltl(original->to_string(), f);
    ASSERT_EQ(original, reparsed) << original->to_string();
  }
}

}  // namespace
}  // namespace esv::temporal
