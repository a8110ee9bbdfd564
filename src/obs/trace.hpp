// Structured run tracing: one JSON object per line (JSONL), recording how a
// verification run unfolded — proposition value changes, monitor verdict
// transitions and AR-automaton state movement, fault injections, and
// campaign seed lifecycle events.
//
// The tracer is deliberately dumb: it buffers lines in memory (like
// sim::VcdTracer) and never stamps wall-clock time, so a trace is a pure
// function of the run configuration — byte-identical across --jobs counts
// and across reruns. One TraceWriter serves one run (one campaign seed); it
// is not thread-safe and does not need to be, because campaign workers own
// fully isolated per-seed stacks.
//
// Event schema (docs/OBSERVABILITY.md):
//   {"type":"seed_start","seed":N}
//   {"type":"prop_change","step":N,"prop":"name","value":0|1}
//   {"type":"monitor_transition","step":N,"property":"name",
//    "from":"pending","to":"validated"|"violated"}
//   {"type":"automaton_state","step":N,"property":"name","state":N}
//   {"type":"monitor_divergence","step":N,"property":"name",
//    "detail":"..."}   (compiled monitor disagreed with the interpreted
//    oracle in --monitor-mode=both; docs/MONITORS.md)
//   {"type":"fault","step":N,"text":"bitflip led bit 3"}
//   {"type":"chaos_injected","point":"wire.tx","action":"drop","hit":N,
//    "detail":"..."}   (self-chaos infrastructure fault; docs/RESILIENCE.md
//    — operational, never part of the deterministic per-seed traces)
//   {"type":"seed_end","seed":N,"steps":N,"validated":N,"violated":N,
//    "pending":N}
//   {"type":"worker","event":"spawn"|"exit"|"respawn"|"timeout",
//    "worker":N,"generation":N,"detail":"..."}   (broker lifecycle trace —
//    operational, never merged into the deterministic per-seed traces)
//   {"type":"campaign","event":"deadline"|"degraded","detail":"..."}
//    (campaign-level lifecycle; operational, like worker events)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace esv::obs {

class TraceWriter {
 public:
  TraceWriter() = default;

  void seed_start(std::uint64_t seed);
  void prop_change(std::uint64_t step, std::string_view prop, bool value);
  void monitor_transition(std::uint64_t step, std::string_view property,
                          std::string_view from, std::string_view to);
  void automaton_state(std::uint64_t step, std::string_view property,
                       std::uint32_t state);
  /// Compiled-vs-interpreted oracle mismatch (--monitor-mode=both).
  void monitor_divergence(std::uint64_t step, std::string_view property,
                          std::string_view detail);
  void fault(std::uint64_t step, std::string_view text);
  /// Self-chaos infrastructure fault injection (docs/RESILIENCE.md).
  void chaos_injected(std::string_view point, std::string_view action,
                      std::uint64_t hit, std::string_view detail = {});
  /// Worker lifecycle event (distributed campaigns; docs/DISTRIBUTED.md).
  void worker_event(std::string_view event, unsigned worker,
                    unsigned generation, std::string_view detail = {});
  /// Campaign-level lifecycle event: deadline abort, degradation
  /// (docs/RESILIENCE.md).
  void campaign_event(std::string_view event, std::string_view detail = {});
  void seed_end(std::uint64_t seed, std::uint64_t steps,
                std::uint64_t validated, std::uint64_t violated,
                std::uint64_t pending);

  std::uint64_t event_count() const { return events_; }
  /// The buffered JSONL document.
  const std::string& text() const { return buffer_; }

 private:
  void append(std::string_view text);

  std::string buffer_;
  std::uint64_t events_ = 0;
};

}  // namespace esv::obs
