#include "spec/specfile.hpp"

#include <cctype>

#include "common/strings.hpp"

namespace esv::spec {

namespace {

/// Splits a line into whitespace-separated words, stopping at '#'.
std::vector<std::string> words_of(std::string_view line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t') {
      if (!current.empty()) {
        out.push_back(current);
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

sctc::Compare parse_op(const std::string& text, int line) {
  if (text == "==") return sctc::Compare::kEq;
  if (text == "!=") return sctc::Compare::kNe;
  if (text == "<") return sctc::Compare::kLt;
  if (text == "<=") return sctc::Compare::kLe;
  if (text == ">") return sctc::Compare::kGt;
  if (text == ">=") return sctc::Compare::kGe;
  throw SpecError("unknown comparison operator '" + text + "'", line);
}

bool parse_int(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  std::size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i >= text.size()) return false;
  std::int64_t value = 0;
  if (text.size() > i + 2 && text[i] == '0' &&
      (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    for (i += 2; i < text.size(); ++i) {
      const char c = static_cast<char>(std::tolower(text[i]));
      if (c >= '0' && c <= '9') {
        value = value * 16 + (c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value = value * 16 + (c - 'a' + 10);
      } else {
        return false;
      }
    }
  } else {
    for (; i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      value = value * 10 + (text[i] - '0');
    }
  }
  out = negative ? -value : value;
  return true;
}

}  // namespace

SpecFile parse_spec(std::string_view text) {
  SpecFile spec;
  int line_no = 0;
  for (const std::string& raw : common::split(text, '\n')) {
    ++line_no;
    const std::string_view line = common::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> w = words_of(line);
    if (w.empty()) continue;

    if (w[0] == "input") {
      // input NAME LO HI   |   input NAME chance NUM DEN
      InputSpec input;
      input.line = line_no;
      if (w.size() == 5 && w[2] == "chance") {
        input.is_chance = true;
        if (!parse_int(w[3], input.lo) || !parse_int(w[4], input.hi)) {
          throw SpecError("malformed chance", line_no);
        }
      } else if (w.size() == 4) {
        if (!parse_int(w[2], input.lo) || !parse_int(w[3], input.hi)) {
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
          words_of(line.substr(0, colon));
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
    if (!parse_int(prop.value_text, value)) {
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
