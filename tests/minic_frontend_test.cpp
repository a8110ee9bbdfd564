// Tests for the mini-C lexer, parser, and semantic analysis.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"

namespace esv::minic {
namespace {

// --- lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesBasicProgram) {
  const auto toks = tokenize("int x = 42;");
  ASSERT_EQ(toks.size(), 6u);  // int x = 42 ; <end>
  EXPECT_EQ(toks[0].kind, Tok::kInt);
  EXPECT_EQ(toks[1].kind, Tok::kIdent);
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[2].kind, Tok::kAssign);
  EXPECT_EQ(toks[3].kind, Tok::kNumber);
  EXPECT_EQ(toks[3].number, 42);
  EXPECT_EQ(toks[4].kind, Tok::kSemi);
  EXPECT_EQ(toks[5].kind, Tok::kEnd);
}

TEST(LexerTest, HexLiterals) {
  const auto toks = tokenize("0xFF 0x1000");
  EXPECT_EQ(toks[0].number, 255);
  EXPECT_EQ(toks[1].number, 0x1000);
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto toks = tokenize("a // comment\nb /* multi\nline */ c");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].text, "c");
  EXPECT_EQ(toks[2].line, 3);  // line tracking across the block comment
}

TEST(LexerTest, TwoCharOperators) {
  const auto toks = tokenize("&& || << >> <= >= == != ++ -- += -=");
  EXPECT_EQ(toks[0].kind, Tok::kAmpAmp);
  EXPECT_EQ(toks[1].kind, Tok::kPipePipe);
  EXPECT_EQ(toks[2].kind, Tok::kShl);
  EXPECT_EQ(toks[3].kind, Tok::kShr);
  EXPECT_EQ(toks[4].kind, Tok::kLe);
  EXPECT_EQ(toks[5].kind, Tok::kGe);
  EXPECT_EQ(toks[6].kind, Tok::kEqEq);
  EXPECT_EQ(toks[7].kind, Tok::kNe);
  EXPECT_EQ(toks[8].kind, Tok::kPlusPlus);
  EXPECT_EQ(toks[9].kind, Tok::kMinusMinus);
  EXPECT_EQ(toks[10].kind, Tok::kPlusAssign);
  EXPECT_EQ(toks[11].kind, Tok::kMinusAssign);
}

TEST(LexerTest, Errors) {
  EXPECT_THROW(tokenize("@"), LexError);
  EXPECT_THROW(tokenize("0x"), LexError);
  EXPECT_THROW(tokenize("123abc"), LexError);
  EXPECT_THROW(tokenize("/* unterminated"), LexError);
}

// A literal past int64 is a LexError naming it (the digit loop overflowed a
// signed accumulator); the int64 edges keep their value.
TEST(LexerTest, LiteralPastInt64IsALexError) {
  for (const char* literal :
       {"99999999999999999999", "9223372036854775808", "0x8000000000000000",
        "0xFFFFFFFFFFFFFFFFF"}) {
    try {
      tokenize(std::string("int x = ") + literal + ";");
      FAIL() << "no error for: " << literal;
    } catch (const LexError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("number literal ") +
                                           literal +
                                           " exceeds 9223372036854775807"),
                std::string::npos)
          << e.what();
    }
  }
  const auto toks =
      tokenize("9223372036854775807 0x7FFFFFFFFFFFFFFF 0xffffffff 007 0X1f");
  EXPECT_EQ(toks[0].number, INT64_MAX);
  EXPECT_EQ(toks[1].number, INT64_MAX);
  EXPECT_EQ(toks[2].number, 0xFFFFFFFF);
  EXPECT_EQ(toks[3].number, 7);
  EXPECT_EQ(toks[4].number, 31);
}

// --- parser ------------------------------------------------------------------

TEST(ParserTest2, ParsesGlobalsAndEnums) {
  Program p = parse_program(R"(
    enum { OK = 0, BUSY = 5, ERROR };
    int counter;
    unsigned addr = 0x100;
    int table[4] = {1, 2, 3, 4};
    void main(void) {}
  )");
  ASSERT_EQ(p.globals.size(), 3u);
  EXPECT_EQ(p.globals[0].name, "counter");
  EXPECT_EQ(p.globals[1].init.at(0), 0x100);
  EXPECT_TRUE(p.globals[2].is_array);
  EXPECT_EQ(p.globals[2].words, 4u);
  ASSERT_EQ(p.enum_constants.size(), 3u);
  EXPECT_EQ(p.enum_constants[1].second, 5);
  EXPECT_EQ(p.enum_constants[2].second, 6);  // auto-increments after BUSY
}

TEST(ParserTest2, ParsesControlFlow) {
  Program p = parse_program(R"(
    void main(void) {
      int i;
      for (i = 0; i < 10; i++) {
        if (i == 5) break; else continue;
      }
      while (i > 0) { i--; }
      do { i += 2; } while (i < 4);
      switch (i) {
        case 0: i = 1; break;
        case 1:
        case 2: i = 3; break;
        default: i = 9;
      }
    }
  )");
  ASSERT_EQ(p.functions.size(), 1u);
  const auto& body = p.functions[0]->body;
  EXPECT_EQ(body[1]->kind, Stmt::Kind::kFor);
  EXPECT_EQ(body[2]->kind, Stmt::Kind::kWhile);
  EXPECT_EQ(body[3]->kind, Stmt::Kind::kDoWhile);
  EXPECT_EQ(body[4]->kind, Stmt::Kind::kSwitch);
  EXPECT_EQ(body[4]->cases.size(), 4u);
  EXPECT_TRUE(body[4]->cases[3].is_default);
  EXPECT_TRUE(body[4]->cases[1].body.empty());  // fallthrough label
}

TEST(ParserTest2, ParsesMemoryAccessAndInput) {
  Program p = parse_program(R"(
    unsigned status;
    void main(void) {
      status = *(0xF0000004);
      *(0xF0000000) = 1;
      status = __in(cmd);
    }
  )");
  const auto& body = p.functions[0]->body;
  EXPECT_EQ(body[0]->expr->kind, Expr::Kind::kMemRead);
  EXPECT_EQ(body[1]->target->kind, Expr::Kind::kMemRead);
  EXPECT_EQ(body[2]->expr->kind, Expr::Kind::kInput);
  EXPECT_EQ(body[2]->expr->name, "cmd");
}

TEST(ParserTest2, DesugarsCompoundAssignment) {
  Program p = parse_program("int x; void main(void) { x += 3; x++; }");
  const auto& body = p.functions[0]->body;
  ASSERT_EQ(body.size(), 2u);
  EXPECT_EQ(body[0]->kind, Stmt::Kind::kAssign);
  EXPECT_EQ(body[0]->expr->kind, Expr::Kind::kBinary);
  EXPECT_EQ(body[0]->expr->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(body[1]->expr->binary_op, BinaryOp::kAdd);
}

TEST(ParserTest2, OperatorPrecedence) {
  Program p = parse_program("int x; void main(void) { x = 1 + 2 * 3; }");
  const Expr& e = *p.functions[0]->body[0]->expr;
  EXPECT_EQ(e.binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e.children[1]->binary_op, BinaryOp::kMul);
}

TEST(ParserTest2, TernaryExpression) {
  Program p = parse_program("int x; void main(void) { x = x > 0 ? 1 : 2; }");
  EXPECT_EQ(p.functions[0]->body[0]->expr->kind, Expr::Kind::kTernary);
}

TEST(ParserTest2, Errors) {
  EXPECT_THROW(parse_program("int;"), ParseError);
  EXPECT_THROW(parse_program("void main(void) { 1 = 2; }"), ParseError);
  EXPECT_THROW(parse_program("void main(void) { if 1 {} }"), ParseError);
  EXPECT_THROW(parse_program("void main(void) { return 1 }"), ParseError);
  EXPECT_THROW(parse_program("int f(void x) {}"), ParseError);
  EXPECT_THROW(parse_program("int a[0];"), ParseError);
  EXPECT_THROW(parse_program("void main(void) { switch (1) { foo; } }"),
               ParseError);
  EXPECT_THROW(parse_program(
                   "void main(void) { switch (1) { default: break; default: break; } }"),
               ParseError);
}

// An array size is a 32-bit word count: past it the declaration is refused
// (int a[4294967297] compiled as a one-word array).
TEST(ParserTest2, ArraySizePast32BitsIsRefused) {
  try {
    parse_program("int a[4294967297]; void main(void) {}");
    FAIL() << "no error";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("array size 4294967297 exceeds"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_program("int a[4294967295];").globals[0].words,
            4294967295u);
}

// --- sema --------------------------------------------------------------------

TEST(SemaTest, LayoutAssignsAddresses) {
  Program p = compile(R"(
    int a;
    int arr[3];
    int b;
    void main(void) {}
  )");
  // fname is injected first at the globals base.
  EXPECT_EQ(p.fname_address, Program::kGlobalsBase);
  EXPECT_EQ(p.find_global("a")->address, Program::kGlobalsBase + 4);
  EXPECT_EQ(p.find_global("arr")->address, Program::kGlobalsBase + 8);
  EXPECT_EQ(p.find_global("b")->address, Program::kGlobalsBase + 20);
  EXPECT_EQ(p.data_segment_end(), Program::kGlobalsBase + 24);
}

// Globals are laid out in 64 bits: a data segment whose page-rounded end
// would pass the 32-bit address space is refused instead of wrapping onto
// the globals before it (or, in the last page, sizing the memory to 0). The
// largest layout that fits stays accepted. (Only the front end runs:
// nothing is allocated.)
TEST(SemaTest, LayoutPastThe32BitAddressSpaceIsRefused) {
  // fname takes the first word; `a` starts at kGlobalsBase + 4.
  constexpr std::uint64_t kFits =
      (0x100000000ull - 0x1000 - Program::kGlobalsBase) / 4 - 1;
  const auto array = [](std::uint64_t words) {
    return "int a[" + std::to_string(words) + "]; ";
  };
  const Program largest = compile(array(kFits) + "void main(void) {}");
  EXPECT_EQ(largest.data_segment_end(), 0xFFFFF000u);
  EXPECT_EQ(largest.memory_bytes(), 0xFFFFF000u);
  for (const std::string& source :
       {array(kFits + 1) + "void main(void) {}",
        array(1073741823) + "int b; void main(void) {}",
        array(536870912) + "int b[536870912]; void main(void) {}"}) {
    try {
      compile(source);
      FAIL() << "no error for: " << source;
    } catch (const SemaError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "does not fit the 32-bit address space"),
                std::string::npos)
          << e.what();
    }
  }
  // journal_cli_test's 128 MiB buffer still compiles.
  EXPECT_NO_THROW(compile(array(33554432) + "void main(void) {}"));
}

TEST(SemaTest, ResolvesReferences) {
  Program p = compile(R"(
    enum { LIMIT = 7 };
    int g;
    int add(int x, int y) { return x + y; }
    void main(void) {
      int local = LIMIT;
      g = add(local, g);
    }
  )");
  const auto& main_body = p.functions[1]->body;
  // local = LIMIT: init expr resolved as constant.
  EXPECT_EQ(main_body[0]->expr->ref, RefKind::kConst);
  EXPECT_EQ(main_body[0]->expr->value, 7);
  // g = add(local, g)
  EXPECT_EQ(main_body[1]->target->ref, RefKind::kGlobal);
  const Expr& call = *main_body[1]->expr;
  EXPECT_EQ(call.callee, p.find_function("add"));
  EXPECT_EQ(call.children[0]->ref, RefKind::kLocal);
  EXPECT_EQ(call.children[1]->ref, RefKind::kGlobal);
}

TEST(SemaTest, FunctionIndicesAndFnameIds) {
  Program p = compile(R"(
    void helper(void) {}
    void main(void) { helper(); }
  )");
  EXPECT_EQ(p.fname_id("helper"), 1u);
  EXPECT_EQ(p.fname_id("main"), 2u);
  EXPECT_EQ(p.fname_id("missing"), 0u);
}

TEST(SemaTest, InputIdsAreDense) {
  Program p = compile(R"(
    int a; int b;
    void main(void) { a = __in(x); b = __in(y); a = __in(x); }
  )");
  ASSERT_EQ(p.input_names.size(), 2u);
  EXPECT_EQ(p.input_names[0], "x");
  EXPECT_EQ(p.input_names[1], "y");
  EXPECT_EQ(p.functions[0]->body[2]->expr->input_id, 0);
}

TEST(SemaTest, ScopedLocalsReuseSlots) {
  Program p = compile(R"(
    void main(void) {
      { int a; a = 1; }
      { int b; b = 2; }
    }
  )");
  EXPECT_EQ(p.functions[0]->max_slots, 1);  // a and b share slot 0
}

TEST(SemaTest, ParamsGetSlots) {
  Program p = compile("int f(int a, int b) { int c; c = a; return b + c; } "
                      "void main(void) { f(1, 2); }");
  EXPECT_EQ(p.functions[0]->max_slots, 3);
}

TEST(SemaTest, Rejections) {
  EXPECT_THROW(compile("void main(void) { x = 1; }"), SemaError);
  EXPECT_THROW(compile("int x; int x; void main(void) {}"), SemaError);
  EXPECT_THROW(compile("void f(void) {} void f(void) {} void main(void) {}"),
               SemaError);
  EXPECT_THROW(compile("void main(void) { break; }"), SemaError);
  EXPECT_THROW(compile("void main(void) { continue; }"), SemaError);
  EXPECT_THROW(compile("int f(void) { return; } void main(void) {}"),
               SemaError);
  EXPECT_THROW(compile("void f(void) { return 1; } void main(void) {}"),
               SemaError);
  EXPECT_THROW(compile("void f(void) {} void main(void) { int x = f(); }"),
               SemaError);
  EXPECT_THROW(compile("void f(int a) {} void main(void) { f(); }"),
               SemaError);
  EXPECT_THROW(compile("int a[3]; void main(void) { a = 1; }"), SemaError);
  EXPECT_THROW(compile("int a; void main(void) { a[0] = 1; }"), SemaError);
  EXPECT_THROW(compile("int a[3]; void main(void) { int x = a; }"), SemaError);
  EXPECT_THROW(compile("enum { K = 1 }; void main(void) { K = 2; }"),
               SemaError);
  EXPECT_THROW(compile("enum { K = 1 }; int K; void main(void) {}"),
               SemaError);
  EXPECT_THROW(compile("int g;"), SemaError);                 // no main
  EXPECT_THROW(compile("void main(int x) {}"), SemaError);    // main params
  EXPECT_THROW(compile("void main(void) { int a; int a; }"), SemaError);
}

TEST(SemaTest, UserDeclaredFnameIsReused) {
  Program p = compile("int fname; void main(void) {}");
  EXPECT_EQ(p.find_global("fname")->address, p.fname_address);
  // No duplicate got injected.
  int count = 0;
  for (const auto& g : p.globals) {
    if (g.name == "fname") ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST(SemaTest, SwitchCaseWithEnumLabels) {
  Program p = compile(R"(
    enum { A = 10, B = 20 };
    int s;
    void main(void) {
      switch (s) {
        case A: s = 1; break;
        case B: s = 2; break;
      }
    }
  )");
  EXPECT_EQ(p.functions[0]->body[0]->cases[0].value, 10);
  EXPECT_EQ(p.functions[0]->body[0]->cases[1].value, 20);
}

// --- structured diagnostics --------------------------------------------------

TEST(SemaTest, ConstantZeroDivisorIsACompileError) {
  // Statically-visible hazards become SemaErrors with the offending line,
  // never a backend trap: the divisor is folded through arithmetic and
  // enum constants before the check.
  try {
    compile("int x;\nvoid main(void) {\n  x = x / (4 - 4);\n}\n");
    FAIL() << "expected SemaError";
  } catch (const SemaError& e) {
    EXPECT_NE(std::string(e.what()).find("division by constant zero"),
              std::string::npos);
    EXPECT_EQ(e.line(), 3);
  }
  EXPECT_THROW(compile("int x; void main(void) { x = x % 0; }"), SemaError);
  EXPECT_THROW(
      compile("enum { Z = 0 }; int x; void main(void) { x = x / Z; }"),
      SemaError);
  // Non-constant divisors stay a run-time concern.
  compile("int x; int y; void main(void) { x = x / (y | 1); }");
}

TEST(SemaTest, ShiftCountOutOfRangeIsACompileError) {
  try {
    compile("int x;\nvoid main(void) {\n  x = x << (16 * 2);\n}\n");
    FAIL() << "expected SemaError";
  } catch (const SemaError& e) {
    EXPECT_NE(std::string(e.what()).find("shift count 32 out of range"),
              std::string::npos);
    EXPECT_EQ(e.line(), 3);
  }
  EXPECT_THROW(compile("int x; void main(void) { x = x >> (0 - 1); }"),
               SemaError);
  // The boundary itself is fine, as is a non-constant count.
  compile("int x; void main(void) { x = x << 31; }");
  compile("int x; int n; void main(void) { x = x >> (n & 31); }");
}

TEST(ParserTest, DeeplyNestedInputIsRejectedNotOverflowed) {
  // The recursive-descent parser carries an explicit nesting budget; a
  // pathological input gets a structured ParseError instead of a stack
  // overflow. 300 parens exceed the 256-frame limit; 100 must still parse
  // (each paren costs two frames: the expression and its unary operand).
  const auto nested_expr = [](int depth) {
    std::string source = "int x;\nvoid main(void) {\n  x = ";
    source += std::string(static_cast<std::size_t>(depth), '(');
    source += "1";
    source += std::string(static_cast<std::size_t>(depth), ')');
    source += ";\n}\n";
    return source;
  };
  try {
    compile(nested_expr(300));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos);
  }
  compile(nested_expr(100));

  std::string statements = "int x;\nvoid main(void) {\n";
  for (int i = 0; i < 300; ++i) statements += "if (x) { ";
  statements += "x = 1;";
  for (int i = 0; i < 300; ++i) statements += " }";
  statements += "\n}\n";
  EXPECT_THROW(compile(statements), ParseError);
}

}  // namespace
}  // namespace esv::minic
