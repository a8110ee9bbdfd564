// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace esv::common {

/// Joins the elements of `parts` with `sep` between them.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` at every occurrence of `sep` (single character). Empty
/// fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// The words of one line of a plan or spec: split at spaces and tabs,
/// stopping at the first '#'.
std::vector<std::string> words(std::string_view line);

/// The one number reader of every input language (flags, spec files, fault
/// and chaos plans, time bounds, MiniC literals): digits of `base` (10 or
/// 16) that fit in 64 bits, nothing else — no sign, prefix, whitespace or
/// trailing bytes.
std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10);

/// parse_u64 into a narrower field: false, leaving `out` as it was, unless
/// `text` is a number that fits T.
template <typename T>
bool parse_uint(std::string_view text, T& out) {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value || *value > std::numeric_limits<T>::max()) return false;
  out = static_cast<T>(*value);
  return true;
}

/// Strips leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// The one JSON string escaper (reports, traces, wire frames, journals):
/// `"`, `\`, `\n`, `\r`, `\t` by name, other control characters as
/// `\u00XX`.
void json_escape_into(std::string& out, std::string_view text);
/// `"..."` — a complete escaped JSON string literal.
std::string json_string(std::string_view text);

}  // namespace esv::common
