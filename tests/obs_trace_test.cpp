// TraceWriter unit tests: the JSONL event schema is golden-tested line by
// line (docs/OBSERVABILITY.md documents it; tools parse it), and the string
// escaper is checked against hostile fault texts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace esv::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ObsTraceTest, GoldenEventSchema) {
  TraceWriter trace;
  trace.seed_start(7);
  trace.prop_change(1, "led_on", true);
  trace.prop_change(2, "led_on", false);
  trace.automaton_state(2, "legal", 3);
  trace.monitor_transition(5, "legal", "pending", "violated");
  trace.fault(4, "bitflip led bit 3");
  trace.seed_end(7, 200, 1, 1, 0);

  const std::vector<std::string> lines = lines_of(trace.text());
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "{\"type\":\"seed_start\",\"seed\":7}");
  EXPECT_EQ(lines[1],
            "{\"type\":\"prop_change\",\"step\":1,\"prop\":\"led_on\","
            "\"value\":1}");
  EXPECT_EQ(lines[2],
            "{\"type\":\"prop_change\",\"step\":2,\"prop\":\"led_on\","
            "\"value\":0}");
  EXPECT_EQ(lines[3],
            "{\"type\":\"automaton_state\",\"step\":2,\"property\":\"legal\","
            "\"state\":3}");
  EXPECT_EQ(lines[4],
            "{\"type\":\"monitor_transition\",\"step\":5,"
            "\"property\":\"legal\",\"from\":\"pending\","
            "\"to\":\"violated\"}");
  EXPECT_EQ(lines[5],
            "{\"type\":\"fault\",\"step\":4,\"text\":\"bitflip led bit 3\"}");
  EXPECT_EQ(lines[6],
            "{\"type\":\"seed_end\",\"seed\":7,\"steps\":200,"
            "\"validated\":1,\"violated\":1,\"pending\":0}");
  EXPECT_EQ(trace.event_count(), 7u);
}

TEST(ObsTraceTest, EscapesHostileText) {
  TraceWriter trace;
  trace.fault(1, "quote\" backslash\\ newline\n tab\t bell\x07");
  EXPECT_EQ(trace.text(),
            "{\"type\":\"fault\",\"step\":1,\"text\":\"quote\\\" "
            "backslash\\\\ newline\\n tab\\t bell\\u0007\"}\n");
}

TEST(ObsTraceTest, EmptyTraceIsEmptyText) {
  TraceWriter trace;
  EXPECT_EQ(trace.text(), "");
  EXPECT_EQ(trace.event_count(), 0u);
}

TEST(ObsTraceTest, IdenticalEventSequencesRenderIdentically) {
  const auto emit = [] {
    TraceWriter trace;
    trace.seed_start(3);
    for (std::uint64_t step = 1; step <= 50; ++step) {
      trace.prop_change(step, "p", (step & 1) != 0);
    }
    trace.seed_end(3, 50, 0, 0, 1);
    return std::string(trace.text());
  };
  EXPECT_EQ(emit(), emit());
}

}  // namespace
}  // namespace esv::obs
