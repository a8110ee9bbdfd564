#include "fault/fault_plan.hpp"

#include <iomanip>
#include <sstream>

#include "common/digest.hpp"
#include "common/strings.hpp"

namespace esv::fault {

namespace {

/// Consumes the trailing `window LO..HI` / `prob N/D` clauses, in any order.
void parse_clauses(const std::vector<std::string>& w, std::size_t first,
                   FaultSpec& spec, int line) {
  std::size_t i = first;
  while (i < w.size()) {
    if (w[i] == "window") {
      if (i + 1 >= w.size()) throw FaultPlanError("window needs LO..HI", line);
      const std::string& range = w[i + 1];
      const std::size_t dots = range.find("..");
      if (dots == std::string::npos ||
          !common::parse_uint(range.substr(0, dots), spec.from) ||
          !common::parse_uint(range.substr(dots + 2), spec.until)) {
        throw FaultPlanError("malformed window '" + range + "' (want LO..HI)",
                             line);
      }
      if (spec.until < spec.from) {
        throw FaultPlanError("empty window (HI < LO)", line);
      }
      i += 2;
    } else if (w[i] == "prob") {
      if (i + 1 >= w.size()) throw FaultPlanError("prob needs N/D", line);
      const std::string& frac = w[i + 1];
      const std::size_t slash = frac.find('/');
      if (slash == std::string::npos ||
          !common::parse_uint(frac.substr(0, slash), spec.prob_num) ||
          !common::parse_uint(frac.substr(slash + 1), spec.prob_den) ||
          spec.prob_den == 0) {
        throw FaultPlanError("malformed prob '" + frac + "' (want N/D)", line);
      }
      i += 2;
    } else {
      throw FaultPlanError("unexpected token '" + w[i] + "'", line);
    }
  }
}

}  // namespace

std::string FaultSpec::describe() const {
  std::ostringstream out;
  switch (kind) {
    case FaultKind::kBitFlip:
      out << "bitflip " << target;
      break;
    case FaultKind::kStuckBit:
      out << "stuckbit " << target << " bit " << bit << " = " << stuck_value;
      break;
    case FaultKind::kFlashFail:
      out << "flashfail "
          << (flash_op == FlashFailOp::kErase     ? "erase"
              : flash_op == FlashFailOp::kProgram ? "program"
                                                  : "any");
      break;
    case FaultKind::kCanFault:
      out << "canfault "
          << (can_op == CanFaultOp::kCorrupt ? "corrupt"
              : can_op == CanFaultOp::kDrop  ? "drop"
                                             : "delay");
      if (can_op == CanFaultOp::kDelay) out << " " << delay_ticks;
      break;
    case FaultKind::kClockJitter:
      out << "clockjitter";
      break;
  }
  return out.str();
}

void FaultPlan::resolve(
    const std::function<bool(const std::string&, std::uint32_t&)>& resolver) {
  for (FaultSpec& entry : entries) {
    if (entry.kind != FaultKind::kBitFlip &&
        entry.kind != FaultKind::kStuckBit) {
      entry.resolved = true;
      continue;
    }
    if (!resolver(entry.target, entry.address)) {
      throw FaultPlanError(
          "cannot resolve fault target '" + entry.target + "'", entry.line);
    }
    entry.resolved = true;
  }
}

std::string FaultPlan::digest() const {
  if (entries.empty()) return "";
  common::Fnv1a digest;
  for (const FaultSpec& entry : entries) {
    std::ostringstream line;
    line << entry.describe() << " window " << entry.from << ".." << entry.until
         << " prob " << entry.prob_num << "/" << entry.prob_den << "\n";
    digest.mix(line.str());
  }
  return digest.hex();
}

FaultSpec parse_fault_line(std::string_view text, int line) {
  const std::vector<std::string> w = common::words(text);
  if (w.empty()) throw FaultPlanError("empty fault directive", line);

  FaultSpec spec;
  spec.line = line;
  std::size_t clauses = 1;

  if (w[0] == "bitflip") {
    spec.kind = FaultKind::kBitFlip;
    if (w.size() < 2) throw FaultPlanError("bitflip needs a target", line);
    spec.target = w[1];
    clauses = 2;
  } else if (w[0] == "stuckbit") {
    spec.kind = FaultKind::kStuckBit;
    if (w.size() < 4) {
      throw FaultPlanError("expected: stuckbit TARGET BIT VALUE", line);
    }
    spec.target = w[1];
    if (!common::parse_uint(w[2], spec.bit) || spec.bit > 31) {
      throw FaultPlanError("stuckbit bit must be 0..31", line);
    }
    if (!common::parse_uint(w[3], spec.stuck_value) ||
        spec.stuck_value > 1) {
      throw FaultPlanError("stuckbit value must be 0 or 1", line);
    }
    clauses = 4;
  } else if (w[0] == "flashfail") {
    spec.kind = FaultKind::kFlashFail;
    clauses = 1;
    if (w.size() > 1 && w[1] != "window" && w[1] != "prob") {
      if (w[1] == "erase") {
        spec.flash_op = FlashFailOp::kErase;
      } else if (w[1] == "program") {
        spec.flash_op = FlashFailOp::kProgram;
      } else if (w[1] == "any") {
        spec.flash_op = FlashFailOp::kAny;
      } else {
        throw FaultPlanError(
            "flashfail op must be erase, program, or any", line);
      }
      clauses = 2;
    }
  } else if (w[0] == "canfault") {
    spec.kind = FaultKind::kCanFault;
    if (w.size() < 2) {
      throw FaultPlanError("expected: canfault corrupt|drop|delay", line);
    }
    if (w[1] == "corrupt") {
      spec.can_op = CanFaultOp::kCorrupt;
    } else if (w[1] == "drop") {
      spec.can_op = CanFaultOp::kDrop;
    } else if (w[1] == "delay") {
      spec.can_op = CanFaultOp::kDelay;
    } else {
      throw FaultPlanError("canfault op must be corrupt, drop, or delay",
                           line);
    }
    clauses = 2;
    if (spec.can_op == CanFaultOp::kDelay && w.size() > 2 &&
        w[2] != "window" && w[2] != "prob") {
      if (!common::parse_uint(w[2], spec.delay_ticks) ||
          spec.delay_ticks == 0) {
        throw FaultPlanError("canfault delay ticks must be > 0", line);
      }
      clauses = 3;
    }
  } else if (w[0] == "clockjitter") {
    spec.kind = FaultKind::kClockJitter;
    clauses = 1;
  } else {
    throw FaultPlanError("unknown fault kind '" + w[0] + "'", line);
  }

  parse_clauses(w, clauses, spec, line);
  return spec;
}

FaultPlan parse_plan(std::string_view text) {
  FaultPlan plan;
  int line_no = 0;
  for (const std::string& raw : common::split(text, '\n')) {
    ++line_no;
    const std::string_view line = common::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    plan.entries.push_back(parse_fault_line(line, line_no));
  }
  return plan;
}

}  // namespace esv::fault
