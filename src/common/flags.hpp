// The command-line flag table of esv-verify, esv-serve, esv-client, esv-fuzz
// and esv-worker. Each entry is one `--name`, bound to the variable it fills:
//   toggle `--name`; text `--name=VALUE`; number `--name=N`, unsigned within
//   [min, max]; seconds `--name=S`, non-negative; choice `--name=WORD`, via a
//   parse function; range `--name=LO..HI` with LO <= HI.
// Numbers are strict: a sign, whitespace, trailing bytes, no digits or an
// overflow refuse the value with the entry's message instead of misreading
// it. Rules (campaign-only, needs another flag, required) are checked after
// the whole command line is read, over the flags the table recorded as given.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/strings.hpp"

namespace esv::common {

/// The file's bytes; nullopt when it cannot be read.
std::optional<std::string> read_file(const std::string& path);

/// The file named `value`, or `value` itself as inline text when no such
/// file exists (the --chaos=PLAN convention).
std::string file_or_inline(const std::string& value);

/// Entries hold references to the variables they fill, which must outlive
/// parse().
class FlagTable {
 public:
  /// Stores a valid value and returns whether it is nonzero (non-empty);
  /// nullopt refuses it, with `error` set or left to the entry's message.
  using Apply =
      std::function<std::optional<bool>(std::string_view, std::string& error)>;

  struct Entry {
    Entry& campaign_only() {
      return rule("--campaign", true,
                  name + " is only available in campaign mode");
    }
    Entry& needs(const std::string& other) {
      return rule(other, true, name + " requires " + other);
    }
    Entry& required() { return rule(name, true, name + " is required"); }
    /// Refused unless `other`'s presence is `wanted`.
    Entry& rule(std::string other, bool wanted, std::string message) {
      rules.push_back({std::move(other), wanted, std::move(message)});
      return *this;
    }
    /// Zero leaves the entry unset, as an empty value does for text.
    Entry& zero_means_off() {
      off_at_zero = true;
      return *this;
    }

    struct Rule {
      std::string other;
      bool wanted;
      std::string message;
    };
    std::string name;
    bool takes_value = true;
    Apply apply;
    std::string error;  // empty: "bad NAME value 'VALUE'"
    bool off_at_zero = false;
    bool given = false;
    std::vector<Rule> rules;
  };

  /// `unknown` words the refusal of an argument no entry matches.
  explicit FlagTable(std::function<std::string(const std::string&)> unknown)
      : unknown_(std::move(unknown)) {}

  Entry& add(std::string name, std::string error, Apply apply);
  Entry& toggle(std::string name, bool& out);
  /// A non-empty `empty_error` refuses an empty value.
  Entry& text(std::string name, std::string& out, std::string empty_error = {});
  template <typename T>
  Entry& number(std::string name, T& out, std::string error,
                std::uint64_t min = 0,
                std::uint64_t max = std::numeric_limits<T>::max()) {
    return add(std::move(name), std::move(error),
               [&out, min, max](std::string_view text,
                                std::string&) -> std::optional<bool> {
                 const std::optional<std::uint64_t> value = parse_u64(text);
                 if (!value || *value < min || *value > max) return {};
                 out = static_cast<T>(*value);
                 return *value != 0;
               });
  }
  Entry& seconds(std::string name, double& out, std::string error);
  template <typename T>
  Entry& choice(std::string name, T& out,
                std::type_identity_t<
                    std::function<std::optional<T>(std::string_view)>>
                    parse,
                std::string error) {
    return add(std::move(name), std::move(error),
               [&out, parse](std::string_view text,
                             std::string&) -> std::optional<bool> {
                 const std::optional<T> value = parse(text);
                 if (value) out = *value;
                 return value ? std::optional<bool>(true) : std::nullopt;
               });
  }
  /// `bare_count` also takes `N` as 0..N-1 (N >= 1); `empty_error`, when
  /// set, words the refusal of HI < LO.
  Entry& range(std::string name, std::uint64_t& lo, std::uint64_t& hi,
               std::string error, std::uint64_t min_lo = 0,
               bool bare_count = false, std::string empty_error = {});

  /// Reads argv[1..argc) and stops at the first refusal. Arguments that
  /// match no entry and do not start with "--" go to `positional`, or are
  /// refused when it is null.
  bool parse(int argc, char** argv, std::vector<std::string>* positional,
             std::string& error);
  /// Checks the rules in table order.
  bool check(std::string& error) const;
  bool given(std::string_view name) const;

 private:
  std::function<std::string(const std::string&)> unknown_;
  std::deque<Entry> entries_;  // stable addresses for the returned Entry&
};

}  // namespace esv::common
