#include "common/flags.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

namespace esv::common {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string file_or_inline(const std::string& value) {
  return read_file(value).value_or(value);
}

FlagTable::Entry& FlagTable::add(std::string name, std::string error,
                                 Apply apply) {
  Entry& entry = entries_.emplace_back();
  entry.name = std::move(name);
  entry.apply = std::move(apply);
  entry.error = std::move(error);
  return entry;
}

FlagTable::Entry& FlagTable::toggle(std::string name, bool& out) {
  Entry& entry =
      add(std::move(name), "", [&out](std::string_view, std::string&) {
        out = true;
        return std::optional<bool>(true);
      });
  entry.takes_value = false;
  return entry;
}

FlagTable::Entry& FlagTable::text(std::string name, std::string& out,
                                  std::string empty_error) {
  const bool refuse_empty = !empty_error.empty();
  return add(std::move(name), std::move(empty_error),
             [&out, refuse_empty](std::string_view text,
                                  std::string&) -> std::optional<bool> {
               if (refuse_empty && text.empty()) return {};
               out = text;
               return !text.empty();
             })
      .zero_means_off();
}

FlagTable::Entry& FlagTable::seconds(std::string name, double& out,
                                     std::string error) {
  return add(std::move(name), std::move(error),
             [&out](std::string_view text,
                    std::string&) -> std::optional<bool> {
               // A leading digit or '.' rules out a sign, whitespace, inf
               // and nan; from_chars reads no hex unless asked to.
               if (text.empty() ||
                   !(text[0] == '.' || (text[0] >= '0' && text[0] <= '9'))) {
                 return {};
               }
               double value = 0.0;
               const char* end = text.data() + text.size();
               const auto [ptr, ec] = std::from_chars(text.data(), end, value);
               if (ec != std::errc{} || ptr != end) return {};
               out = value;
               return value != 0.0;
             });
}

FlagTable::Entry& FlagTable::range(std::string name, std::uint64_t& lo,
                                   std::uint64_t& hi, std::string error,
                                   std::uint64_t min_lo, bool bare_count,
                                   std::string empty_error) {
  return add(std::move(name), std::move(error),
             [&lo, &hi, min_lo, bare_count, empty_error](
                 std::string_view text,
                 std::string& error) -> std::optional<bool> {
               const std::size_t dots = text.find("..");
               std::optional<std::uint64_t> first =
                   parse_u64(text.substr(0, dots));
               std::optional<std::uint64_t> last;
               if (dots != std::string_view::npos) {
                 last = parse_u64(text.substr(dots + 2));
               } else if (bare_count && first && *first != 0) {
                 last = *first - 1;
                 first = 0;
               }
               if (!first || !last || *first < min_lo) return {};
               if (*last < *first) {
                 if (!empty_error.empty()) error = empty_error;
                 return {};
               }
               lo = *first;
               hi = *last;
               return true;
             });
}

bool FlagTable::parse(int argc, char** argv,
                      std::vector<std::string>* positional,
                      std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t equals = arg.find('=');
    Entry* entry = nullptr;
    for (Entry& candidate : entries_) {
      if (candidate.name == arg.substr(0, equals) &&
          candidate.takes_value == (equals != std::string_view::npos)) {
        entry = &candidate;
        break;
      }
    }
    if (entry == nullptr) {
      if (positional == nullptr || arg.starts_with("--")) {
        error = unknown_(std::string(arg));
        return false;
      }
      positional->emplace_back(arg);
      continue;
    }
    const std::string_view value =
        entry->takes_value ? arg.substr(equals + 1) : "";
    std::string refusal = entry->error;
    const std::optional<bool> nonzero = entry->apply(value, refusal);
    if (!nonzero) {
      error = refusal.empty()
                  ? "bad " + entry->name + " value '" + std::string(value) + "'"
                  : refusal;
      return false;
    }
    entry->given = *nonzero || !entry->off_at_zero;
  }
  return true;
}

bool FlagTable::check(std::string& error) const {
  for (const Entry& entry : entries_) {
    for (const Entry::Rule& rule : entry.rules) {
      // required() names its own entry and applies whether or not it was
      // given; every other rule applies to a given entry only.
      if ((entry.given || rule.other == entry.name) &&
          given(rule.other) != rule.wanted) {
        error = rule.message;
        return false;
      }
    }
  }
  return true;
}

bool FlagTable::given(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.given;
  }
  return false;
}

}  // namespace esv::common
