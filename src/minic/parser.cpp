#include "minic/parser.hpp"

#include <utility>

#include "minic/lexer.hpp"

namespace esv::minic {

namespace {

std::unique_ptr<Expr> make_expr(Expr::Kind kind, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->line = line;
  return e;
}

std::unique_ptr<Stmt> make_stmt(Stmt::Kind kind, int line) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->line = line;
  return s;
}

class Parser {
 public:
  explicit Parser(std::string_view source) : tokens_(tokenize(source)) {}

  Program parse() {
    Program program;
    while (!at(Tok::kEnd)) {
      parse_top_level(program);
    }
    return program;
  }

 private:
  // --- token helpers ---------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool at(Tok kind) const { return peek().kind == kind; }
  Token take() { return tokens_[pos_++]; }
  bool accept(Tok kind) {
    if (!at(kind)) return false;
    ++pos_;
    return true;
  }
  Token expect(Tok kind, const std::string& what) {
    if (!at(kind)) fail("expected " + what);
    return take();
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, peek().line);
  }
  int line() const { return peek().line; }

  /// Recursion guard: deeply nested statements/expressions must produce a
  /// structured diagnostic, not exhaust the parser's stack. The limit is far
  /// above anything a human (or the generator) writes.
  static constexpr int kMaxNesting = 256;
  struct NestingGuard {
    explicit NestingGuard(Parser& parser) : parser_(parser) {
      if (++parser_.nesting_ > kMaxNesting) {
        parser_.fail("nesting too deep (limit " + std::to_string(kMaxNesting) +
                     ")");
      }
    }
    ~NestingGuard() { --parser_.nesting_; }
    Parser& parser_;
  };

  bool at_type() const {
    return at(Tok::kInt) || at(Tok::kUnsigned) || at(Tok::kBool) ||
           at(Tok::kVoid);
  }

  /// Consumes a type keyword; returns true if it declares a value (non-void).
  bool take_type() {
    if (accept(Tok::kVoid)) return false;
    if (accept(Tok::kInt) || accept(Tok::kUnsigned) || accept(Tok::kBool)) {
      return true;
    }
    fail("expected a type");
  }

  // --- top level --------------------------------------------------------------
  void parse_top_level(Program& program) {
    if (at(Tok::kEnum)) {
      parse_enum(program);
      return;
    }
    if (!at_type()) fail("expected a declaration");
    const bool has_value = take_type();
    const Token name = expect(Tok::kIdent, "identifier");
    if (at(Tok::kLParen)) {
      parse_function(program, name, has_value);
    } else {
      parse_global(program, name);
    }
  }

  void parse_enum(Program& program) {
    expect(Tok::kEnum, "'enum'");
    if (at(Tok::kIdent)) take();  // optional tag, ignored
    expect(Tok::kLBrace, "'{'");
    std::int64_t next_value = 0;
    while (!at(Tok::kRBrace)) {
      const Token name = expect(Tok::kIdent, "enumerator name");
      if (accept(Tok::kAssign)) {
        next_value = parse_const_value();
      }
      enum_constants_.emplace_back(name.text, next_value);
      ++next_value;
      if (!accept(Tok::kComma)) break;
    }
    expect(Tok::kRBrace, "'}'");
    expect(Tok::kSemi, "';'");
    // Enum constants are recorded as zero-word pseudo-globals? No: they are
    // resolved by sema from this table, carried via the program's functions.
    // We stash them in the Program as synthetic const globals is wrong; sema
    // reads them from the parser through parse_program's return channel.
    (void)program;
  }

  /// Constant expression in enum initializers / global initializers:
  /// number, optionally negated, or a previously defined enum constant.
  std::int64_t parse_const_value() {
    bool negate = false;
    while (accept(Tok::kMinus)) negate = !negate;
    if (at(Tok::kNumber)) {
      const std::int64_t v = take().number;
      return negate ? -v : v;
    }
    if (at(Tok::kIdent)) {
      const Token t = take();
      for (const auto& [name, value] : enum_constants_) {
        if (name == t.text) return negate ? -value : value;
      }
      throw ParseError("unknown constant '" + t.text + "'", t.line);
    }
    fail("expected a constant");
  }

  void parse_global(Program& program, const Token& name) {
    GlobalVar var;
    var.name = name.text;
    var.line = name.line;
    if (accept(Tok::kLBracket)) {
      const Token size = expect(Tok::kNumber, "array size");
      if (size.number <= 0) {
        throw ParseError("array size must be positive", size.line);
      }
      if (size.number > std::int64_t{UINT32_MAX}) {
        throw ParseError("array size " + std::to_string(size.number) +
                             " exceeds 4294967295",
                         size.line);
      }
      var.words = static_cast<std::uint32_t>(size.number);
      var.is_array = true;
      expect(Tok::kRBracket, "']'");
    }
    if (accept(Tok::kAssign)) {
      if (accept(Tok::kLBrace)) {
        if (!var.is_array) {
          throw ParseError("brace initializer on a scalar", name.line);
        }
        while (!at(Tok::kRBrace)) {
          var.init.push_back(static_cast<std::int32_t>(parse_const_value()));
          if (!accept(Tok::kComma)) break;
        }
        expect(Tok::kRBrace, "'}'");
        if (var.init.size() > var.words) {
          throw ParseError("too many initializers", name.line);
        }
      } else {
        var.init.push_back(static_cast<std::int32_t>(parse_const_value()));
      }
    }
    expect(Tok::kSemi, "';'");
    program.globals.push_back(std::move(var));
  }

  void parse_function(Program& program, const Token& name, bool has_value) {
    auto fn = std::make_unique<Function>();
    fn->name = name.text;
    fn->returns_value = has_value;
    fn->line = name.line;
    expect(Tok::kLParen, "'('");
    if (!accept(Tok::kRParen)) {
      if (at(Tok::kVoid) && peek(1).kind == Tok::kRParen) {
        take();  // (void)
      } else {
        for (;;) {
          if (!at_type()) fail("expected parameter type");
          if (!take_type()) fail("void parameter");
          const Token param = expect(Tok::kIdent, "parameter name");
          fn->params.push_back(param.text);
          if (!accept(Tok::kComma)) break;
        }
      }
      expect(Tok::kRParen, "')'");
    }
    expect(Tok::kLBrace, "'{'");
    while (!at(Tok::kRBrace)) fn->body.push_back(parse_stmt());
    expect(Tok::kRBrace, "'}'");
    program.functions.push_back(std::move(fn));
  }

  // --- statements --------------------------------------------------------------
  std::unique_ptr<Stmt> parse_stmt() {
    NestingGuard guard(*this);
    const int ln = line();
    if (at(Tok::kLBrace)) {
      auto s = make_stmt(Stmt::Kind::kBlock, ln);
      take();
      while (!at(Tok::kRBrace)) s->body.push_back(parse_stmt());
      expect(Tok::kRBrace, "'}'");
      return s;
    }
    if (at(Tok::kIf)) return parse_if();
    if (at(Tok::kWhile)) return parse_while();
    if (at(Tok::kDo)) return parse_do_while();
    if (at(Tok::kFor)) return parse_for();
    if (at(Tok::kSwitch)) return parse_switch();
    if (accept(Tok::kBreak)) {
      expect(Tok::kSemi, "';'");
      return make_stmt(Stmt::Kind::kBreak, ln);
    }
    if (accept(Tok::kContinue)) {
      expect(Tok::kSemi, "';'");
      return make_stmt(Stmt::Kind::kContinue, ln);
    }
    if (accept(Tok::kReturn)) {
      auto s = make_stmt(Stmt::Kind::kReturn, ln);
      if (!at(Tok::kSemi)) s->expr = parse_expr();
      expect(Tok::kSemi, "';'");
      return s;
    }
    if (accept(Tok::kAssert)) {
      auto s = make_stmt(Stmt::Kind::kAssert, ln);
      expect(Tok::kLParen, "'('");
      s->expr = parse_expr();
      expect(Tok::kRParen, "')'");
      expect(Tok::kSemi, "';'");
      return s;
    }
    if (accept(Tok::kAssume)) {
      auto s = make_stmt(Stmt::Kind::kAssume, ln);
      expect(Tok::kLParen, "'('");
      s->expr = parse_expr();
      expect(Tok::kRParen, "')'");
      expect(Tok::kSemi, "';'");
      return s;
    }
    auto s = parse_simple_stmt();
    expect(Tok::kSemi, "';'");
    return s;
  }

  /// Declaration, assignment, or expression — without the trailing ';'
  /// (shared between plain statements and for-headers).
  std::unique_ptr<Stmt> parse_simple_stmt() {
    const int ln = line();
    if (at_type()) {
      if (!take_type()) fail("void local variable");
      const Token name = expect(Tok::kIdent, "variable name");
      auto s = make_stmt(Stmt::Kind::kLocalDecl, ln);
      s->name = name.text;
      if (accept(Tok::kAssign)) s->expr = parse_expr();
      return s;
    }
    auto lhs = parse_expr();
    const auto lvalue_ok = [&] {
      if (lhs->kind != Expr::Kind::kVarRef && lhs->kind != Expr::Kind::kIndex &&
          lhs->kind != Expr::Kind::kMemRead) {
        fail("assignment target must be a variable, array element, or *(addr)");
      }
    };
    const auto make_aug = [&](BinaryOp op, std::unique_ptr<Expr> rhs) {
      // x op= e  ==>  x = x op e (the target is re-evaluated; fine for our
      // side-effect-free lvalues).
      auto s = make_stmt(Stmt::Kind::kAssign, ln);
      auto value = make_expr(Expr::Kind::kBinary, ln);
      value->binary_op = op;
      value->children.push_back(clone_expr(*lhs));
      value->children.push_back(std::move(rhs));
      s->target = std::move(lhs);
      s->expr = std::move(value);
      return s;
    };
    if (accept(Tok::kAssign)) {
      lvalue_ok();
      auto s = make_stmt(Stmt::Kind::kAssign, ln);
      s->target = std::move(lhs);
      s->expr = parse_expr();
      return s;
    }
    if (accept(Tok::kPlusAssign)) {
      lvalue_ok();
      return make_aug(BinaryOp::kAdd, parse_expr());
    }
    if (accept(Tok::kMinusAssign)) {
      lvalue_ok();
      return make_aug(BinaryOp::kSub, parse_expr());
    }
    if (accept(Tok::kPlusPlus)) {
      lvalue_ok();
      auto one = make_expr(Expr::Kind::kIntLit, ln);
      one->value = 1;
      return make_aug(BinaryOp::kAdd, std::move(one));
    }
    if (accept(Tok::kMinusMinus)) {
      lvalue_ok();
      auto one = make_expr(Expr::Kind::kIntLit, ln);
      one->value = 1;
      return make_aug(BinaryOp::kSub, std::move(one));
    }
    auto s = make_stmt(Stmt::Kind::kExpr, ln);
    s->expr = std::move(lhs);
    return s;
  }

  std::unique_ptr<Stmt> parse_if() {
    const int ln = line();
    expect(Tok::kIf, "'if'");
    auto s = make_stmt(Stmt::Kind::kIf, ln);
    expect(Tok::kLParen, "'('");
    s->expr = parse_expr();
    expect(Tok::kRParen, "')'");
    s->body.push_back(parse_stmt());
    if (accept(Tok::kElse)) s->else_body.push_back(parse_stmt());
    return s;
  }

  std::unique_ptr<Stmt> parse_while() {
    const int ln = line();
    expect(Tok::kWhile, "'while'");
    auto s = make_stmt(Stmt::Kind::kWhile, ln);
    expect(Tok::kLParen, "'('");
    s->expr = parse_expr();
    expect(Tok::kRParen, "')'");
    s->body.push_back(parse_stmt());
    return s;
  }

  std::unique_ptr<Stmt> parse_do_while() {
    const int ln = line();
    expect(Tok::kDo, "'do'");
    auto s = make_stmt(Stmt::Kind::kDoWhile, ln);
    s->body.push_back(parse_stmt());
    expect(Tok::kWhile, "'while'");
    expect(Tok::kLParen, "'('");
    s->expr = parse_expr();
    expect(Tok::kRParen, "')'");
    expect(Tok::kSemi, "';'");
    return s;
  }

  std::unique_ptr<Stmt> parse_for() {
    const int ln = line();
    expect(Tok::kFor, "'for'");
    auto s = make_stmt(Stmt::Kind::kFor, ln);
    expect(Tok::kLParen, "'('");
    if (!at(Tok::kSemi)) s->init = parse_simple_stmt();
    expect(Tok::kSemi, "';'");
    if (!at(Tok::kSemi)) s->expr = parse_expr();
    expect(Tok::kSemi, "';'");
    if (!at(Tok::kRParen)) s->step = parse_simple_stmt();
    expect(Tok::kRParen, "')'");
    s->body.push_back(parse_stmt());
    return s;
  }

  std::unique_ptr<Stmt> parse_switch() {
    const int ln = line();
    expect(Tok::kSwitch, "'switch'");
    auto s = make_stmt(Stmt::Kind::kSwitch, ln);
    expect(Tok::kLParen, "'('");
    s->expr = parse_expr();
    expect(Tok::kRParen, "')'");
    expect(Tok::kLBrace, "'{'");
    bool saw_default = false;
    while (!at(Tok::kRBrace)) {
      Stmt::Case c;
      c.line = line();
      if (accept(Tok::kCase)) {
        c.value = parse_const_value();
      } else if (accept(Tok::kDefault)) {
        if (saw_default) fail("duplicate default label");
        saw_default = true;
        c.is_default = true;
      } else {
        fail("expected 'case' or 'default'");
      }
      expect(Tok::kColon, "':'");
      while (!at(Tok::kCase) && !at(Tok::kDefault) && !at(Tok::kRBrace)) {
        c.body.push_back(parse_stmt());
      }
      s->cases.push_back(std::move(c));
    }
    expect(Tok::kRBrace, "'}'");
    return s;
  }

  // --- expressions --------------------------------------------------------------
  std::unique_ptr<Expr> parse_expr() {
    NestingGuard guard(*this);
    return parse_ternary();
  }

  std::unique_ptr<Expr> parse_ternary() {
    auto cond = parse_binary(0);
    if (!accept(Tok::kQuestion)) return cond;
    const int ln = cond->line;
    auto e = make_expr(Expr::Kind::kTernary, ln);
    e->children.push_back(std::move(cond));
    e->children.push_back(parse_expr());
    expect(Tok::kColon, "':'");
    e->children.push_back(parse_expr());
    return e;
  }

  struct BinLevel {
    Tok token;
    BinaryOp op;
  };

  /// Precedence-climbing over C's binary operator table.
  std::unique_ptr<Expr> parse_binary(int level) {
    static const std::vector<std::vector<BinLevel>> kLevels = {
        {{Tok::kPipePipe, BinaryOp::kLogicalOr}},
        {{Tok::kAmpAmp, BinaryOp::kLogicalAnd}},
        {{Tok::kPipe, BinaryOp::kBitOr}},
        {{Tok::kCaret, BinaryOp::kBitXor}},
        {{Tok::kAmp, BinaryOp::kBitAnd}},
        {{Tok::kEqEq, BinaryOp::kEq}, {Tok::kNe, BinaryOp::kNe}},
        {{Tok::kLt, BinaryOp::kLt},
         {Tok::kLe, BinaryOp::kLe},
         {Tok::kGt, BinaryOp::kGt},
         {Tok::kGe, BinaryOp::kGe}},
        {{Tok::kShl, BinaryOp::kShl}, {Tok::kShr, BinaryOp::kShr}},
        {{Tok::kPlus, BinaryOp::kAdd}, {Tok::kMinus, BinaryOp::kSub}},
        {{Tok::kStar, BinaryOp::kMul},
         {Tok::kSlash, BinaryOp::kDiv},
         {Tok::kPercent, BinaryOp::kMod}},
    };
    if (level >= static_cast<int>(kLevels.size())) return parse_unary();
    auto lhs = parse_binary(level + 1);
    for (;;) {
      const BinLevel* match = nullptr;
      for (const BinLevel& candidate : kLevels[static_cast<std::size_t>(level)]) {
        if (at(candidate.token)) {
          match = &candidate;
          break;
        }
      }
      if (match == nullptr) return lhs;
      const int ln = line();
      take();
      auto e = make_expr(Expr::Kind::kBinary, ln);
      e->binary_op = match->op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(parse_binary(level + 1));
      lhs = std::move(e);
    }
  }

  std::unique_ptr<Expr> parse_unary() {
    NestingGuard guard(*this);
    const int ln = line();
    if (accept(Tok::kNot)) {
      auto e = make_expr(Expr::Kind::kUnary, ln);
      e->unary_op = UnaryOp::kNot;
      e->children.push_back(parse_unary());
      return e;
    }
    if (accept(Tok::kMinus)) {
      auto e = make_expr(Expr::Kind::kUnary, ln);
      e->unary_op = UnaryOp::kNeg;
      e->children.push_back(parse_unary());
      return e;
    }
    if (accept(Tok::kTilde)) {
      auto e = make_expr(Expr::Kind::kUnary, ln);
      e->unary_op = UnaryOp::kBitNot;
      e->children.push_back(parse_unary());
      return e;
    }
    if (accept(Tok::kStar)) {
      // Direct memory access *(addr); parenthesized address required, as in
      // the paper's examples.
      auto e = make_expr(Expr::Kind::kMemRead, ln);
      expect(Tok::kLParen, "'(' after '*'");
      e->children.push_back(parse_expr());
      expect(Tok::kRParen, "')'");
      return e;
    }
    return parse_postfix();
  }

  std::unique_ptr<Expr> parse_postfix() {
    auto e = parse_primary();
    for (;;) {
      if (at(Tok::kLBracket)) {
        if (e->kind != Expr::Kind::kVarRef) {
          fail("only named arrays can be indexed");
        }
        take();
        auto idx = make_expr(Expr::Kind::kIndex, e->line);
        idx->name = e->name;
        idx->children.push_back(parse_expr());
        expect(Tok::kRBracket, "']'");
        e = std::move(idx);
        continue;
      }
      if (at(Tok::kLParen)) {
        if (e->kind != Expr::Kind::kVarRef) fail("call of a non-function");
        take();
        auto call = make_expr(Expr::Kind::kCall, e->line);
        call->name = e->name;
        if (!at(Tok::kRParen)) {
          for (;;) {
            call->children.push_back(parse_expr());
            if (!accept(Tok::kComma)) break;
          }
        }
        expect(Tok::kRParen, "')'");
        e = std::move(call);
        continue;
      }
      return e;
    }
  }

  std::unique_ptr<Expr> parse_primary() {
    const int ln = line();
    if (at(Tok::kNumber)) {
      auto e = make_expr(Expr::Kind::kIntLit, ln);
      e->value = take().number;
      return e;
    }
    if (accept(Tok::kTrue)) {
      auto e = make_expr(Expr::Kind::kBoolLit, ln);
      e->value = 1;
      return e;
    }
    if (accept(Tok::kFalse)) {
      auto e = make_expr(Expr::Kind::kBoolLit, ln);
      e->value = 0;
      return e;
    }
    if (accept(Tok::kInput)) {
      expect(Tok::kLParen, "'('");
      const Token name = expect(Tok::kIdent, "input name");
      expect(Tok::kRParen, "')'");
      auto e = make_expr(Expr::Kind::kInput, ln);
      e->name = name.text;
      return e;
    }
    if (at(Tok::kIdent)) {
      auto e = make_expr(Expr::Kind::kVarRef, ln);
      e->name = take().text;
      return e;
    }
    if (accept(Tok::kLParen)) {
      auto e = parse_expr();
      expect(Tok::kRParen, "')'");
      return e;
    }
    fail("expected an expression");
  }

  /// Deep copy (needed to desugar `x += e` into `x = x + e`).
  static std::unique_ptr<Expr> clone_expr(const Expr& e) {
    auto copy = std::make_unique<Expr>();
    copy->kind = e.kind;
    copy->line = e.line;
    copy->value = e.value;
    copy->name = e.name;
    copy->unary_op = e.unary_op;
    copy->binary_op = e.binary_op;
    for (const auto& child : e.children) {
      copy->children.push_back(clone_expr(*child));
    }
    return copy;
  }

 public:
  /// Enum constants collected while parsing; consumed by sema.
  std::vector<std::pair<std::string, std::int64_t>> enum_constants_;

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int nesting_ = 0;
};

}  // namespace

Program parse_program(std::string_view source) {
  Parser parser(source);
  Program program = parser.parse();
  program.enum_constants = std::move(parser.enum_constants_);
  return program;
}

}  // namespace esv::minic
