#include "common/strings.hpp"

#include <cctype>
#include <charconv>

namespace esv::common {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> words(std::string_view line) {
  std::vector<std::string> out;
  line = line.substr(0, line.find('#'));
  std::size_t end = 0;
  while (end < line.size()) {
    const std::size_t start = line.find_first_not_of(" \t", end);
    if (start == std::string_view::npos) break;
    end = line.find_first_of(" \t", start);  // npos: the last word
    out.emplace_back(line.substr(start, end - start));
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
  // from_chars on an unsigned type takes digits only and reports overflow.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

void json_escape_into(std::string& out, std::string_view text) {
  static const char* kHex = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

std::string json_string(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  json_escape_into(out, text);
  out += '"';
  return out;
}

}  // namespace esv::common
