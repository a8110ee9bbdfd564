#include "temporal/parser.hpp"

#include <cctype>
#include <optional>
#include <vector>

#include "common/strings.hpp"

namespace esv::temporal {

namespace {

enum class TokKind {
  kEnd,
  kIdent,    // identifiers and keywords
  kString,   // "quoted proposition name"
  kNumber,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kNot,      // !
  kAnd,      // && or &
  kOr,       // || or |
  kImplies,  // ->
  kIff,      // <->
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;  // identifier, string or digits
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    current_.position = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = TokKind::kEnd;
      return;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      current_.kind = TokKind::kIdent;
      current_.text = std::string(text_.substr(start, pos_ - start));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      current_.kind = TokKind::kNumber;
      current_.text = std::string(text_.substr(start, pos_ - start));
      return;
    }
    if (c == '"') {
      std::size_t start = ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ >= text_.size()) {
        throw ParseError("unterminated string", start - 1);
      }
      current_.kind = TokKind::kString;
      current_.text = std::string(text_.substr(start, pos_ - start));
      ++pos_;  // closing quote
      return;
    }
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < text_.size() && text_[pos_ + 1] == b;
    };
    if (two('&', '&')) { current_.kind = TokKind::kAnd; pos_ += 2; return; }
    if (two('|', '|')) { current_.kind = TokKind::kOr; pos_ += 2; return; }
    if (two('-', '>')) { current_.kind = TokKind::kImplies; pos_ += 2; return; }
    if (c == '<' && pos_ + 2 < text_.size() + 1 &&
        text_.substr(pos_, 3) == "<->") {
      current_.kind = TokKind::kIff;
      pos_ += 3;
      return;
    }
    switch (c) {
      case '(': current_.kind = TokKind::kLParen; ++pos_; return;
      case ')': current_.kind = TokKind::kRParen; ++pos_; return;
      case '[': current_.kind = TokKind::kLBracket; ++pos_; return;
      case ']': current_.kind = TokKind::kRBracket; ++pos_; return;
      case '!': current_.kind = TokKind::kNot; ++pos_; return;
      case '&': current_.kind = TokKind::kAnd; ++pos_; return;
      case '|': current_.kind = TokKind::kOr; ++pos_; return;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", pos_);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

// ---------------------------------------------------------------------------
// Shared parser machinery. The two dialects differ only in which identifiers
// act as temporal operators.

class ParserBase {
 public:
  ParserBase(std::string_view text, FormulaFactory& factory)
      : lexer_(text), factory_(factory) {}

 protected:
  [[noreturn]] void fail(const std::string& message) {
    throw ParseError(message, lexer_.peek().position);
  }

  bool at(TokKind kind) const { return lexer_.peek().kind == kind; }

  bool at_ident(std::string_view word) const {
    return at(TokKind::kIdent) && lexer_.peek().text == word;
  }

  Token expect(TokKind kind, const std::string& what) {
    if (!at(kind)) fail("expected " + what);
    return lexer_.take();
  }

  bool accept(TokKind kind) {
    if (!at(kind)) return false;
    lexer_.take();
    return true;
  }

  bool accept_ident(std::string_view word) {
    if (!at_ident(word)) return false;
    lexer_.take();
    return true;
  }

  /// Parses an optional "[n]" bound.
  std::optional<std::uint32_t> parse_bound() {
    if (!accept(TokKind::kLBracket)) return std::nullopt;
    const Token n = expect(TokKind::kNumber, "time bound");
    std::uint32_t bound = 0;
    if (!common::parse_uint(n.text, bound)) {
      throw ParseError("time bound " + n.text + " exceeds 4294967295",
                       n.position);
    }
    expect(TokKind::kRBracket, "']'");
    return bound;
  }

  void expect_end() {
    if (!at(TokKind::kEnd)) fail("unexpected trailing input");
  }

  /// Property text comes from outside (spec files, serve submits): a
  /// parenthesis, prefix operator or right-associative operator holds one
  /// level while its operand parses, and past the limit the parse fails
  /// instead of exhausting the stack.
  static constexpr int kMaxNesting = 256;
  struct NestingGuard {
    explicit NestingGuard(ParserBase& parser) : parser_(parser) {
      if (++parser_.nesting_ > kMaxNesting) {
        parser_.fail("nesting too deep (limit " +
                     std::to_string(kMaxNesting) + ")");
      }
    }
    ~NestingGuard() { --parser_.nesting_; }
    ParserBase& parser_;
  };

  Lexer lexer_;
  FormulaFactory& factory_;
  int nesting_ = 0;
};

// ---------------------------------------------------------------------------
// FLTL parser

class FltlParser : public ParserBase {
 public:
  using ParserBase::ParserBase;

  FormulaRef parse() {
    FormulaRef f = parse_iff();
    expect_end();
    return f;
  }

 private:
  FormulaRef parse_iff() {
    FormulaRef lhs = parse_implies();
    while (accept(TokKind::kIff)) lhs = factory_.iff(lhs, parse_implies());
    return lhs;
  }

  FormulaRef parse_implies() {
    FormulaRef lhs = parse_or();
    if (accept(TokKind::kImplies)) {
      NestingGuard guard(*this);
      return factory_.implies(lhs, parse_implies());  // right associative
    }
    return lhs;
  }

  FormulaRef parse_or() {
    FormulaRef lhs = parse_and();
    while (accept(TokKind::kOr) || accept_ident("or")) {
      lhs = factory_.or_(lhs, parse_and());
    }
    return lhs;
  }

  FormulaRef parse_and() {
    FormulaRef lhs = parse_until();
    while (accept(TokKind::kAnd) || accept_ident("and")) {
      lhs = factory_.and_(lhs, parse_until());
    }
    return lhs;
  }

  FormulaRef parse_until() {
    FormulaRef lhs = parse_unary();
    NestingGuard guard(*this);
    if (at_ident("U")) {
      lexer_.take();
      auto bound = parse_bound();
      return factory_.until(lhs, parse_until(), bound);  // right associative
    }
    if (at_ident("R")) {
      lexer_.take();
      auto bound = parse_bound();
      return factory_.release(lhs, parse_until(), bound);
    }
    if (at_ident("W")) {
      lexer_.take();
      return factory_.weak_until(lhs, parse_until());
    }
    return lhs;
  }

  FormulaRef parse_unary() {
    NestingGuard guard(*this);
    if (accept(TokKind::kNot) || accept_ident("not")) {
      return factory_.not_(parse_unary());
    }
    if (at_ident("X")) {
      lexer_.take();
      const auto bound = parse_bound();
      return factory_.next(parse_unary(), bound.value_or(1));
    }
    if (at_ident("F")) {
      lexer_.take();
      const auto bound = parse_bound();
      return factory_.eventually(parse_unary(), bound);
    }
    if (at_ident("G")) {
      lexer_.take();
      const auto bound = parse_bound();
      return factory_.always(parse_unary(), bound);
    }
    return parse_primary();
  }

  FormulaRef parse_primary() {
    if (accept(TokKind::kLParen)) {
      FormulaRef f = parse_iff();
      expect(TokKind::kRParen, "')'");
      return f;
    }
    if (at(TokKind::kString)) return factory_.prop(lexer_.take().text);
    if (at(TokKind::kIdent)) {
      const Token t = lexer_.take();
      if (t.text == "true") return factory_.constant(true);
      if (t.text == "false") return factory_.constant(false);
      if (t.text == "X" || t.text == "F" || t.text == "G" || t.text == "U" ||
          t.text == "R" || t.text == "W") {
        throw ParseError("'" + t.text + "' is a reserved FLTL operator",
                         t.position);
      }
      return factory_.prop(t.text);
    }
    fail("expected a formula");
  }
};

// ---------------------------------------------------------------------------
// PSL parser (simple subset of the foundation language)

class PslParser : public ParserBase {
 public:
  using ParserBase::ParserBase;

  FormulaRef parse() {
    FormulaRef f = parse_property();
    expect_end();
    return f;
  }

 private:
  FormulaRef parse_property() {
    NestingGuard guard(*this);
    if (accept_ident("always")) return factory_.always(parse_property());
    if (accept_ident("never")) {
      return factory_.always(factory_.not_(parse_property()));
    }
    if (accept_ident("eventually")) {
      expect(TokKind::kNot, "'!' (PSL eventually is strong: eventually!)");
      const auto bound = parse_bound();
      return factory_.eventually(parse_property(), bound);
    }
    if (accept_ident("next")) {
      const auto bound = parse_bound();
      return factory_.next(parse_property(), bound.value_or(1));
    }
    return parse_iff();
  }

  FormulaRef parse_iff() {
    FormulaRef lhs = parse_implies();
    while (accept(TokKind::kIff)) lhs = factory_.iff(lhs, parse_implies());
    return lhs;
  }

  FormulaRef parse_implies() {
    FormulaRef lhs = parse_or();
    if (accept(TokKind::kImplies)) {
      return factory_.implies(lhs, parse_property_tail());
    }
    return lhs;
  }

  /// The right-hand side of -> may again use the temporal keywords:
  /// "always (req -> eventually! ack)".
  FormulaRef parse_property_tail() { return parse_property(); }

  FormulaRef parse_or() {
    FormulaRef lhs = parse_and();
    while (accept(TokKind::kOr)) lhs = factory_.or_(lhs, parse_and());
    return lhs;
  }

  FormulaRef parse_and() {
    FormulaRef lhs = parse_until();
    while (accept(TokKind::kAnd)) lhs = factory_.and_(lhs, parse_until());
    return lhs;
  }

  FormulaRef parse_until() {
    FormulaRef lhs = parse_unary();
    NestingGuard guard(*this);
    if (at_ident("until")) {
      lexer_.take();
      const bool strong = accept(TokKind::kNot);  // until!
      const auto bound = parse_bound();
      FormulaRef rhs = parse_until();
      if (strong) return factory_.until(lhs, rhs, bound);
      if (bound) {
        // Weak bounded until: hold lhs up to the bound unless rhs releases.
        return factory_.or_(factory_.until(lhs, rhs, bound),
                            factory_.always(lhs, *bound));
      }
      return factory_.weak_until(lhs, rhs);
    }
    if (at_ident("before")) {
      lexer_.take();
      const bool strong = accept(TokKind::kNot);  // before!
      FormulaRef rhs = parse_until();
      // a before b: a occurs strictly before b does.
      FormulaRef core = factory_.until(factory_.not_(rhs),
                                       factory_.and_(lhs, factory_.not_(rhs)));
      if (strong) return core;
      return factory_.or_(core, factory_.always(factory_.not_(rhs)));
    }
    return lhs;
  }

  FormulaRef parse_unary() {
    if (accept(TokKind::kNot)) {
      NestingGuard guard(*this);
      return factory_.not_(parse_unary());
    }
    return parse_primary();
  }

  FormulaRef parse_primary() {
    if (accept(TokKind::kLParen)) {
      FormulaRef f = parse_property();
      expect(TokKind::kRParen, "')'");
      return f;
    }
    if (at(TokKind::kString)) return factory_.prop(lexer_.take().text);
    if (at(TokKind::kIdent)) {
      const Token t = lexer_.take();
      if (t.text == "true") return factory_.constant(true);
      if (t.text == "false") return factory_.constant(false);
      return factory_.prop(t.text);
    }
    fail("expected a property");
  }
};

}  // namespace

FormulaRef parse_fltl(std::string_view text, FormulaFactory& factory) {
  return FltlParser(text, factory).parse();
}

FormulaRef parse_psl(std::string_view text, FormulaFactory& factory) {
  return PslParser(text, factory).parse();
}

FormulaRef parse_property(std::string_view text, Dialect dialect,
                          FormulaFactory& factory) {
  return dialect == Dialect::kFltl ? parse_fltl(text, factory)
                                   : parse_psl(text, factory);
}

}  // namespace esv::temporal
