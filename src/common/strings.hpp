// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace esv::common {

/// Joins the elements of `parts` with `sep` between them.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` at every occurrence of `sep` (single character). Empty
/// fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Renders a byte count / large integer with thousands separators ("12,345").
std::string with_thousands(std::uint64_t value);

/// The one JSON string escaper (reports, traces, wire frames, journals):
/// `"`, `\`, `\n`, `\r`, `\t` by name, other control characters as
/// `\u00XX`.
void json_escape_into(std::string& out, std::string_view text);
/// `"..."` — a complete escaped JSON string literal.
std::string json_string(std::string_view text);

}  // namespace esv::common
