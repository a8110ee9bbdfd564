#include "spec/specfile.hpp"

#include <cstdint>
#include <optional>

#include "common/strings.hpp"

namespace esv::spec {

namespace {

sctc::Compare parse_op(const std::string& text, int line) {
  if (text == "==") return sctc::Compare::kEq;
  if (text == "!=") return sctc::Compare::kNe;
  if (text == "<") return sctc::Compare::kLt;
  if (text == "<=") return sctc::Compare::kLe;
  if (text == ">") return sctc::Compare::kGt;
  if (text == ">=") return sctc::Compare::kGe;
  throw SpecError("unknown comparison operator '" + text + "'", line);
}

/// Reads a decimal or 0x-hex literal with an optional '-'. False when `text`
/// is not one; a SpecError naming it when it is one past int64.
bool parse_int(const std::string& text, std::int64_t& out, int line) {
  std::string_view digits = text;
  const bool negative = digits.starts_with('-');
  if (negative) digits.remove_prefix(1);
  int base = 10;
  if (digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    base = 16;
    digits.remove_prefix(2);
  }
  if (digits.empty() ||
      digits.find_first_not_of(base == 16 ? "0123456789abcdefABCDEF"
                                          : "0123456789") !=
          std::string_view::npos) {
    return false;
  }
  const std::optional<std::uint64_t> magnitude =
      common::parse_u64(digits, base);
  const std::uint64_t limit =
      negative ? std::uint64_t{1} << 63 : std::uint64_t{INT64_MAX};
  if (!magnitude || *magnitude > limit) {
    throw SpecError("integer '" + text + "' does not fit 64 bits", line);
  }
  out = static_cast<std::int64_t>(negative ? 0 - *magnitude : *magnitude);
  return true;
}

}  // namespace

SpecFile parse_spec(std::string_view text) {
  SpecFile spec;
  int line_no = 0;
  for (const std::string& raw : common::split(text, '\n')) {
    ++line_no;
    const std::string_view line = common::trim(raw);
    const std::vector<std::string> w = common::words(line);
    if (w.empty()) continue;  // blank or a comment

    if (w[0] == "input") {
      // input NAME LO HI   |   input NAME chance NUM DEN
      InputSpec input;
      input.line = line_no;
      if (w.size() == 5 && w[2] == "chance") {
        input.is_chance = true;
        if (!parse_int(w[3], input.lo, line_no) ||
            !parse_int(w[4], input.hi, line_no)) {
          throw SpecError("malformed chance", line_no);
        }
      } else if (w.size() == 4) {
        if (!parse_int(w[2], input.lo, line_no) ||
            !parse_int(w[3], input.hi, line_no)) {
          throw SpecError("malformed input range", line_no);
        }
      } else {
        throw SpecError("expected: input NAME LO HI", line_no);
      }
      input.name = w[1];
      spec.inputs.push_back(std::move(input));
      continue;
    }

    if (w[0] == "prop") {
      // prop NAME = GLOBAL OP VALUE
      if (w.size() != 6 || w[2] != "=") {
        throw SpecError("expected: prop NAME = GLOBAL OP VALUE", line_no);
      }
      PropositionSpec prop;
      prop.line = line_no;
      prop.name = w[1];
      prop.global = w[3];
      prop.op = parse_op(w[4], line_no);
      prop.value_text = w[5];
      spec.propositions.push_back(std::move(prop));
      continue;
    }

    if (w[0] == "check") {
      // check NAME [psl]: PROPERTY-TEXT
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        throw SpecError("expected ':' in check line", line_no);
      }
      const std::vector<std::string> head =
          common::words(line.substr(0, colon));
      if (head.size() < 2 || head.size() > 3) {
        throw SpecError("expected: check NAME [psl]: PROPERTY", line_no);
      }
      PropertySpec property;
      property.line = line_no;
      property.name = head[1];
      if (head.size() == 3) {
        if (head[2] != "psl" && head[2] != "fltl") {
          throw SpecError("unknown dialect '" + head[2] + "'", line_no);
        }
        property.dialect = head[2] == "psl" ? temporal::Dialect::kPsl
                                            : temporal::Dialect::kFltl;
      }
      property.text = std::string(common::trim(line.substr(colon + 1)));
      if (property.text.empty()) {
        throw SpecError("empty property", line_no);
      }
      spec.properties.push_back(std::move(property));
      continue;
    }

    if (w[0] == "fault") {
      // fault KIND [ARGS...] — stored raw, parsed by the fault subsystem.
      if (w.size() < 2) {
        throw SpecError("expected: fault KIND [ARGS...]", line_no);
      }
      FaultLineSpec fault;
      fault.line = line_no;
      fault.text = std::string(common::trim(line.substr(5)));
      spec.fault_lines.push_back(std::move(fault));
      continue;
    }

    throw SpecError("unknown directive '" + w[0] + "'", line_no);
  }
  return spec;
}

void apply_spec(const SpecFile& spec, const minic::Program& program,
                const sctc::MemoryReadInterface& memory,
                sctc::TemporalChecker& checker) {
  // Progression and `both` checkers keep parsing per checker: progression
  // interns into the factory while it steps, and `both` compares obligation
  // pointers within one factory.
  const bool planned = spec.monitor_plan != nullptr &&
                       checker.mode() == sctc::MonitorMode::kCompiled;
  if (planned) checker.use_plan(spec.monitor_plan);
  for (const PropositionSpec& prop : spec.propositions) {
    // Resolve the watched global (fname resolves via its injected slot).
    const minic::GlobalVar* global = program.find_global(prop.global);
    if (global == nullptr) {
      throw SpecError("unknown global '" + prop.global + "'", prop.line);
    }
    if (global->is_array) {
      throw SpecError("'" + prop.global + "' is an array", prop.line);
    }
    // Resolve the comparison value: integer, enum constant, or (for fname)
    // a function name.
    std::int64_t value = 0;
    if (!parse_int(prop.value_text, value, prop.line)) {
      bool resolved = false;
      for (const auto& [name, constant] : program.enum_constants) {
        if (name == prop.value_text) {
          value = constant;
          resolved = true;
          break;
        }
      }
      if (!resolved && prop.global == "fname") {
        const std::uint32_t id = program.fname_id(prop.value_text);
        if (id != 0) {
          value = id;
          resolved = true;
        }
      }
      if (!resolved) {
        throw SpecError("cannot resolve value '" + prop.value_text + "'",
                        prop.line);
      }
    }
    // The watched word is 32 bits: a value is its signed or unsigned reading.
    if (value < INT32_MIN || value > std::int64_t{UINT32_MAX}) {
      throw SpecError("value '" + prop.value_text +
                          "' is outside -2147483648..4294967295",
                      prop.line);
    }
    checker.register_proposition(
        prop.name, std::make_unique<sctc::MemoryWordProposition>(
                       memory, global->address, prop.op,
                       static_cast<std::uint32_t>(value)));
  }
  if (planned) return;
  for (const PropertySpec& property : spec.properties) {
    try {
      checker.add_property(property.name, property.text, property.dialect);
    } catch (const std::exception& e) {
      throw SpecError(std::string("in property '") + property.name +
                          "': " + e.what(),
                      property.line);
    }
  }
}

}  // namespace esv::spec
