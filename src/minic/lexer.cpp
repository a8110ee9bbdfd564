#include "minic/lexer.hpp"

#include <cctype>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/strings.hpp"

namespace esv::minic {

namespace {

const std::unordered_map<std::string_view, Tok>& keywords() {
  static const std::unordered_map<std::string_view, Tok> kMap = {
      {"int", Tok::kInt},         {"unsigned", Tok::kUnsigned},
      {"bool", Tok::kBool},       {"void", Tok::kVoid},
      {"enum", Tok::kEnum},       {"if", Tok::kIf},
      {"else", Tok::kElse},       {"while", Tok::kWhile},
      {"do", Tok::kDo},           {"for", Tok::kFor},
      {"switch", Tok::kSwitch},   {"case", Tok::kCase},
      {"default", Tok::kDefault}, {"break", Tok::kBreak},
      {"continue", Tok::kContinue}, {"return", Tok::kReturn},
      {"true", Tok::kTrue},       {"false", Tok::kFalse},
      {"assert", Tok::kAssert},   {"__in", Tok::kInput},
      {"__assume", Tok::kAssume},
  };
  return kMap;
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1;
  int line_start = 0;

  const auto col = [&](std::size_t pos) {
    return static_cast<int>(pos) - line_start + 1;
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = static_cast<int>(i);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < src.size()) {
      if (src[i + 1] == '/') {
        while (i < src.size() && src[i] != '\n') ++i;
        continue;
      }
      if (src[i + 1] == '*') {
        i += 2;
        while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
          if (src[i] == '\n') {
            ++line;
            line_start = static_cast<int>(i) + 1;
          }
          ++i;
        }
        if (i + 1 >= src.size()) throw LexError("unterminated comment", line);
        i += 2;
        continue;
      }
    }

    Token t;
    t.line = line;
    t.column = col(i);

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < src.size() && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                                src[i] == '_')) {
        ++i;
      }
      const std::string_view word = src.substr(start, i - start);
      auto it = keywords().find(word);
      if (it != keywords().end()) {
        t.kind = it->second;
      } else {
        t.kind = Tok::kIdent;
        t.text = std::string(word);
      }
      out.push_back(std::move(t));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = i;
      int base = 10;
      if (c == '0' && i + 1 < src.size() &&
          (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        base = 16;
        i += 2;
        if (i >= src.size() ||
            !std::isxdigit(static_cast<unsigned char>(src[i]))) {
          throw LexError("malformed hex literal", line);
        }
      }
      const std::size_t digits = i;
      while (i < src.size() &&
             (base == 16 ? std::isxdigit(static_cast<unsigned char>(src[i]))
                         : std::isdigit(static_cast<unsigned char>(src[i])))) {
        ++i;
      }
      if (i < src.size() && (std::isalpha(static_cast<unsigned char>(src[i])) ||
                             src[i] == '_')) {
        throw LexError("malformed number literal", line);
      }
      const std::optional<std::uint64_t> value =
          common::parse_u64(src.substr(digits, i - digits), base);
      if (!value || *value > INT64_MAX) {
        throw LexError("number literal " +
                           std::string(src.substr(start, i - start)) +
                           " exceeds 9223372036854775807",
                       line);
      }
      t.kind = Tok::kNumber;
      t.number = static_cast<std::int64_t>(*value);
      out.push_back(std::move(t));
      continue;
    }

    const auto two = [&](char a, char b) {
      return c == a && i + 1 < src.size() && src[i + 1] == b;
    };
    const auto push2 = [&](Tok kind) {
      t.kind = kind;
      out.push_back(t);
      i += 2;
    };
    if (two('&', '&')) { push2(Tok::kAmpAmp); continue; }
    if (two('|', '|')) { push2(Tok::kPipePipe); continue; }
    if (two('<', '<')) { push2(Tok::kShl); continue; }
    if (two('>', '>')) { push2(Tok::kShr); continue; }
    if (two('<', '=')) { push2(Tok::kLe); continue; }
    if (two('>', '=')) { push2(Tok::kGe); continue; }
    if (two('=', '=')) { push2(Tok::kEqEq); continue; }
    if (two('!', '=')) { push2(Tok::kNe); continue; }
    if (two('+', '+')) { push2(Tok::kPlusPlus); continue; }
    if (two('-', '-')) { push2(Tok::kMinusMinus); continue; }
    if (two('+', '=')) { push2(Tok::kPlusAssign); continue; }
    if (two('-', '=')) { push2(Tok::kMinusAssign); continue; }

    const auto push1 = [&](Tok kind) {
      t.kind = kind;
      out.push_back(t);
      ++i;
    };
    switch (c) {
      case '(': push1(Tok::kLParen); continue;
      case ')': push1(Tok::kRParen); continue;
      case '{': push1(Tok::kLBrace); continue;
      case '}': push1(Tok::kRBrace); continue;
      case '[': push1(Tok::kLBracket); continue;
      case ']': push1(Tok::kRBracket); continue;
      case ';': push1(Tok::kSemi); continue;
      case ',': push1(Tok::kComma); continue;
      case ':': push1(Tok::kColon); continue;
      case '?': push1(Tok::kQuestion); continue;
      case '=': push1(Tok::kAssign); continue;
      case '+': push1(Tok::kPlus); continue;
      case '-': push1(Tok::kMinus); continue;
      case '*': push1(Tok::kStar); continue;
      case '/': push1(Tok::kSlash); continue;
      case '%': push1(Tok::kPercent); continue;
      case '&': push1(Tok::kAmp); continue;
      case '|': push1(Tok::kPipe); continue;
      case '^': push1(Tok::kCaret); continue;
      case '~': push1(Tok::kTilde); continue;
      case '!': push1(Tok::kNot); continue;
      case '<': push1(Tok::kLt); continue;
      case '>': push1(Tok::kGt); continue;
      default:
        throw LexError(std::string("unexpected character '") + c + "'", line);
    }
  }

  Token end;
  end.kind = Tok::kEnd;
  end.line = line;
  out.push_back(end);
  return out;
}

}  // namespace esv::minic
