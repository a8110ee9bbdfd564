// Wire layer of the distributed campaign runner (docs/DISTRIBUTED.md):
//
//   * a minimal JSON value type — just enough to parse the protocol's own
//     output; the repo's serializers are hand-written streams, and the wire
//     must round-trip them losslessly (uint64-exact numbers, escaped
//     strings), which rules out double-based general-purpose parsers
//   * length-prefixed framing: every frame is a 4-byte little-endian payload
//     length, a 4-byte little-endian CRC-32 of the payload, then one JSON
//     object. The CRC turns any in-flight byte corruption into a WireError —
//     a killed worker incarnation and a re-dispatched seed — instead of a
//     silently wrong result (docs/RESILIENCE.md)
//   * lossless serialization of the domain types that cross the process
//     boundary: CampaignConfig (broker -> worker), SeedResult and
//     MetricsSnapshot (worker -> broker)
//
// Framing and JSON are transport-agnostic: FrameReader consumes bytes from
// any stream, and the fd helpers work on any connected SOCK_STREAM socket.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/digest.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace esv::dist {

/// Raised on malformed frames, malformed JSON, or transport failures.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Minimal immutable JSON value. Numbers keep their source text so uint64
/// payloads (seeds, counters) survive exactly; accessors throw WireError on
/// type mismatches so a corrupt frame becomes a clean protocol error.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, nothing else).
  static Json parse(std::string_view text);

  Type type() const { return type_; }

  bool as_bool() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  // arrays

  /// Object member access. at() throws WireError when the key is absent.
  bool has(const std::string& key) const;
  const Json& at(const std::string& key) const;
  const std::map<std::string, Json>& members() const;  // objects

  /// Lenient object accessors for optional fields.
  std::uint64_t u64_or(const std::string& key, std::uint64_t fallback) const;
  double double_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string scalar_;  // number text or string value
  std::vector<Json> items_;
  std::map<std::string, Json> members_;
  friend class JsonParser;
};

/// The shared string escaper (common/strings.hpp).
using common::json_escape_into;
using common::json_string;

// --- framing -------------------------------------------------------------

/// Hard ceiling on a single frame; a length beyond this is treated as stream
/// corruption rather than an allocation request.
constexpr std::uint32_t kMaxFramePayload = 256u * 1024u * 1024u;

/// Frame header: u32 little-endian payload length + u32 little-endian
/// payload CRC-32 — the journals' record header too (common/digest.hpp).
constexpr std::size_t kFrameHeaderBytes = common::kRecordHeaderBytes;

/// Test/chaos seam: caps the byte count of every send(2)/recv(2) syscall so
/// the partial-transfer reassembly paths run deterministically under test.
/// 0 (the default) restores unlimited transfers. Not for production use.
void set_io_chunk_limit_for_test(std::size_t bytes);

/// Incremental frame decoder for poll()-driven readers: feed() raw bytes,
/// next() pops complete payloads.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);
  std::optional<std::string> next();

  /// Declared payload length of the frame currently being assembled, as
  /// soon as its 4 length bytes have arrived — before the payload does.
  /// Lets a server reject an oversized request at the header instead of
  /// buffering it. nullopt between frames. Never throws: an insane length
  /// is still reported (next() is what turns it into a WireError).
  std::optional<std::uint32_t> pending_payload() const;

 private:
  std::string buffer_;
};

/// Renders one complete frame (header + payload) into a byte string, for
/// callers that buffer writes themselves (the serve daemon's per-connection
/// outbox). Throws WireError when the payload exceeds kMaxFramePayload.
std::string encode_frame(std::string_view payload);

/// Writes one frame (blocking, loops over partial sends, suppresses
/// SIGPIPE). Throws WireError when the peer is gone.
void write_frame(int fd, std::string_view payload);

/// Blocking read of one frame. Returns nullopt on a clean EOF at a frame
/// boundary; throws WireError on mid-frame EOF or transport errors.
std::optional<std::string> read_frame(int fd);

// --- domain serialization ------------------------------------------------

std::string config_to_json(const campaign::CampaignConfig& config);
campaign::CampaignConfig config_from_json(const Json& json);

std::string seed_result_to_json(const campaign::SeedResult& result);
campaign::SeedResult seed_result_from_json(const Json& json);

std::string metrics_to_json(const obs::MetricsSnapshot& snapshot);
obs::MetricsSnapshot metrics_from_json(const Json& json);

}  // namespace esv::dist
