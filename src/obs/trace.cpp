#include "obs/trace.hpp"

#include <string>

#include "common/strings.hpp"

namespace esv::obs {

void TraceWriter::append(std::string_view text) {
  buffer_ += text;
  buffer_ += '\n';
  ++events_;
}

void TraceWriter::seed_start(std::uint64_t seed) {
  append("{\"type\":\"seed_start\",\"seed\":" + std::to_string(seed) + "}");
}

void TraceWriter::prop_change(std::uint64_t step, std::string_view prop,
                              bool value) {
  append("{\"type\":\"prop_change\",\"step\":" + std::to_string(step) +
         ",\"prop\":" + common::json_string(prop) +
         (value ? ",\"value\":1}" : ",\"value\":0}"));
}

void TraceWriter::monitor_transition(std::uint64_t step,
                                     std::string_view property,
                                     std::string_view from,
                                     std::string_view to) {
  append("{\"type\":\"monitor_transition\",\"step\":" + std::to_string(step) +
         ",\"property\":" + common::json_string(property) +
         ",\"from\":" + common::json_string(from) +
         ",\"to\":" + common::json_string(to) + "}");
}

void TraceWriter::automaton_state(std::uint64_t step,
                                  std::string_view property,
                                  std::uint32_t state) {
  append("{\"type\":\"automaton_state\",\"step\":" + std::to_string(step) +
         ",\"property\":" + common::json_string(property) +
         ",\"state\":" + std::to_string(state) + "}");
}

void TraceWriter::monitor_divergence(std::uint64_t step,
                                     std::string_view property,
                                     std::string_view detail) {
  append("{\"type\":\"monitor_divergence\",\"step\":" + std::to_string(step) +
         ",\"property\":" + common::json_string(property) +
         ",\"detail\":" + common::json_string(detail) + "}");
}

void TraceWriter::fault(std::uint64_t step, std::string_view text) {
  append("{\"type\":\"fault\",\"step\":" + std::to_string(step) +
         ",\"text\":" + common::json_string(text) + "}");
}

void TraceWriter::chaos_injected(std::string_view point,
                                 std::string_view action, std::uint64_t hit,
                                 std::string_view detail) {
  std::string line = "{\"type\":\"chaos_injected\",\"point\":" +
                     common::json_string(point) +
                     ",\"action\":" + common::json_string(action) +
                     ",\"hit\":" + std::to_string(hit);
  if (!detail.empty()) line += ",\"detail\":" + common::json_string(detail);
  append(line + "}");
}

void TraceWriter::worker_event(std::string_view event, unsigned worker,
                               unsigned generation, std::string_view detail) {
  std::string line = "{\"type\":\"worker\",\"event\":" +
                     common::json_string(event) +
                     ",\"worker\":" + std::to_string(worker) +
                     ",\"generation\":" + std::to_string(generation);
  if (!detail.empty()) line += ",\"detail\":" + common::json_string(detail);
  append(line + "}");
}

void TraceWriter::campaign_event(std::string_view event,
                                 std::string_view detail) {
  std::string line =
      "{\"type\":\"campaign\",\"event\":" + common::json_string(event);
  if (!detail.empty()) line += ",\"detail\":" + common::json_string(detail);
  append(line + "}");
}

void TraceWriter::seed_end(std::uint64_t seed, std::uint64_t steps,
                           std::uint64_t validated, std::uint64_t violated,
                           std::uint64_t pending) {
  append("{\"type\":\"seed_end\",\"seed\":" + std::to_string(seed) +
         ",\"steps\":" + std::to_string(steps) +
         ",\"validated\":" + std::to_string(validated) +
         ",\"violated\":" + std::to_string(violated) +
         ",\"pending\":" + std::to_string(pending) + "}");
}

}  // namespace esv::obs
