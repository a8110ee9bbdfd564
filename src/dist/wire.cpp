#include "dist/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>

#include "campaign/config_fields.hpp"
#include "chaos/chaos.hpp"

namespace esv::dist {

// --- Json ----------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw WireError("wire json: " + message + " at offset " +
                    std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// Arrays and objects nest at most this deep. The protocol's own
  /// documents nest a few levels; the bound turns a frame of a hundred
  /// thousand '[' into a WireError instead of a stack overflow.
  static constexpr int kMaxNesting = 64;

  /// `depth` counts the arrays and objects enclosing the value.
  Json parse_value(int depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxNesting) {
      fail("nesting too deep (limit " + std::to_string(kMaxNesting) + ")");
    }
    switch (c) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': {
        Json value;
        value.type_ = Json::Type::kString;
        value.scalar_ = parse_string();
        return value;
      }
      case 't': {
        if (!consume("true")) fail("bad literal");
        Json value;
        value.type_ = Json::Type::kBool;
        value.bool_ = true;
        return value;
      }
      case 'f': {
        if (!consume("false")) fail("bad literal");
        Json value;
        value.type_ = Json::Type::kBool;
        value.bool_ = false;
        return value;
      }
      case 'n': {
        if (!consume("null")) fail("bad literal");
        return Json{};
      }
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json value;
    value.type_ = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.members_[std::move(key)] = parse_value(depth);
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json value;
    value.type_ = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.items_.push_back(parse_value(depth));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The writers only \u-escape control characters; decode the full
          // BMP anyway so foreign-but-valid frames do not wedge the stream.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    Json value;
    value.type_ = Json::Type::kNumber;
    value.scalar_ = std::string(text_.substr(start, pos_ - start));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw WireError(std::string("wire json: value is not ") + wanted);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool");
  return bool_;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::kNumber) type_error("a number");
  const std::optional<std::uint64_t> value = common::parse_u64(scalar_);
  if (!value) type_error("an unsigned integer");
  return *value;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) type_error("a number");
  // The whole token or nothing: "1-2" is refused, not read as 1.
  double value = 0.0;
  const char* end = scalar_.data() + scalar_.size();
  const auto [ptr, ec] = std::from_chars(scalar_.data(), end, value);
  if (ec != std::errc{} || ptr != end) type_error("a double");
  return value;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("a string");
  return scalar_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("an array");
  return items_;
}

bool Json::has(const std::string& key) const {
  return type_ == Type::kObject && members_.count(key) != 0;
}

const std::map<std::string, Json>& Json::members() const {
  if (type_ != Type::kObject) type_error("an object");
  return members_;
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) type_error("an object");
  const auto it = members_.find(key);
  if (it == members_.end()) {
    throw WireError("wire json: missing member \"" + key + "\"");
  }
  return it->second;
}

std::uint64_t Json::u64_or(const std::string& key,
                           std::uint64_t fallback) const {
  return has(key) ? at(key).as_u64() : fallback;
}

double Json::double_or(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_double() : fallback;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return has(key) ? at(key).as_bool() : fallback;
}

// --- framing -------------------------------------------------------------

namespace {

// Per-syscall transfer cap (set_io_chunk_limit_for_test); 0 = unlimited.
std::atomic<std::size_t> io_chunk_limit{0};

std::size_t chunked(std::size_t size) {
  const std::size_t limit = io_chunk_limit.load(std::memory_order_relaxed);
  return limit != 0 && limit < size ? limit : size;
}

void send_all(int fd, const char* data, std::size_t size) {
  while (size != 0) {
    const ssize_t sent = ::send(fd, data, chunked(size), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire: send failed: ") +
                      std::strerror(errno));
    }
    if (sent == 0) {
      // Cannot happen for a SOCK_STREAM send of size > 0, but if it ever
      // did, looping forever would be the worst possible response.
      throw WireError("wire: send made no progress");
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
}

bool recv_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, chunked(size - got), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire: recv failed: ") +
                      std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw WireError("wire: EOF inside a frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void check_frame_crc(const char* payload, std::uint32_t length,
                     std::uint32_t expected) {
  if (common::crc32(payload, length) != expected) {
    throw WireError("wire: frame crc mismatch (stream corruption)");
  }
}

}  // namespace

void set_io_chunk_limit_for_test(std::size_t bytes) {
  io_chunk_limit.store(bytes, std::memory_order_relaxed);
}

void FrameReader::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t length = common::read_u32_le(buffer_.data());
  if (length > kMaxFramePayload) {
    throw WireError("wire: frame length " + std::to_string(length) +
                    " exceeds the protocol maximum");
  }
  if (buffer_.size() < kFrameHeaderBytes + length) return std::nullopt;
  const std::uint32_t expected_crc =
      common::read_u32_le(buffer_.data() + 4);
  check_frame_crc(buffer_.data() + kFrameHeaderBytes, length, expected_crc);
  std::string payload = buffer_.substr(kFrameHeaderBytes, length);
  buffer_.erase(0, kFrameHeaderBytes + length);
  return payload;
}

std::optional<std::uint32_t> FrameReader::pending_payload() const {
  if (buffer_.size() < 4) return std::nullopt;
  return common::read_u32_le(buffer_.data());
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("wire: frame payload too large");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  common::append_record_header(frame, payload);
  frame.append(payload);
  return frame;
}

void write_frame(int fd, std::string_view payload) {
  // One buffered send per frame so concurrent writers (worker threads and
  // the heartbeat) interleave at frame granularity under their send mutex.
  std::string frame = encode_frame(payload);

  if (const chaos::Injection injection =
          chaos::at(chaos::Point::kWireTx, payload.size())) {
    switch (injection.action) {
      case chaos::Action::kDrop:
        return;  // the frame vanishes in flight
      case chaos::Action::kTruncate:
        send_all(fd, frame.data(), frame.size() / 2);
        return;
      case chaos::Action::kCorrupt:
        // Flip a payload byte; the header CRC still covers the original
        // bytes, so the receiver must detect this.
        frame[kFrameHeaderBytes + injection.arg] =
            static_cast<char>(frame[kFrameHeaderBytes + injection.arg] ^ 0x20);
        break;
      case chaos::Action::kDuplicate:
        send_all(fd, frame.data(), frame.size());
        break;  // falls through to the normal (second) send
      case chaos::Action::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(injection.arg));
        break;
      case chaos::Action::kShortSend:
        for (std::size_t i = 0; i < frame.size(); ++i) {
          send_all(fd, frame.data() + i, 1);
        }
        return;
      default:
        break;
    }
  }
  send_all(fd, frame.data(), frame.size());
}

std::optional<std::string> read_frame(int fd) {
  char header[kFrameHeaderBytes];
  if (!recv_all(fd, header, kFrameHeaderBytes)) return std::nullopt;
  const std::uint32_t length = common::read_u32_le(header);
  if (length > kMaxFramePayload) {
    throw WireError("wire: frame length " + std::to_string(length) +
                    " exceeds the protocol maximum");
  }
  std::string payload(length, '\0');
  if (length != 0 && !recv_all(fd, payload.data(), length)) {
    throw WireError("wire: EOF inside a frame");
  }
  check_frame_crc(payload.data(), length, common::read_u32_le(header + 4));
  return payload;
}

// --- domain serialization ------------------------------------------------

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

std::string double_text(double value) {
  // Timing-only fields; round-tripping to ~17 significant digits is enough.
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

std::string config_to_json(const campaign::CampaignConfig& config) {
  std::string out = "{";
  campaign::visit_config_fields<campaign::kOnWire>(
      config, [&](const char* name, const auto& value, unsigned) {
        using T = std::decay_t<decltype(value)>;
        if (out.size() > 1) out += ',';
        out += json_string(name);
        out += ':';
        if constexpr (std::is_same_v<T, std::string>) {
          out += json_string(value);
        } else if constexpr (std::is_same_v<T, bool>) {
          out += value ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          out += double_text(value);
        } else if constexpr (std::is_same_v<T, sctc::MonitorMode>) {
          out += json_string(sctc::monitor_mode_name(value));
        } else {
          append_u64(out, static_cast<std::uint64_t>(value));
        }
      });
  out += "}";
  return out;
}

campaign::CampaignConfig config_from_json(const Json& json) {
  campaign::CampaignConfig config;
  campaign::visit_config_fields<campaign::kOnWire>(
      config, [&](const char* name, auto& value, unsigned flags) {
        if ((flags & campaign::kRequired) == 0 && !json.has(name)) return;
        const Json& field = json.at(name);
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          value = field.as_string();
        } else if constexpr (std::is_same_v<T, bool>) {
          value = field.as_bool();
        } else if constexpr (std::is_same_v<T, double>) {
          value = field.as_double();
        } else if constexpr (std::is_same_v<T, sctc::MonitorMode>) {
          const std::string& mode = field.as_string();
          if (const auto parsed = sctc::parse_monitor_mode(mode)) {
            value = *parsed;
          } else if (const std::string retired =
                         sctc::retired_monitor_mode_message(mode);
                     !retired.empty()) {
            throw WireError("config: " + retired);
          } else {
            throw WireError("config: unknown monitor mode \"" + mode + "\"");
          }
        } else {
          const std::uint64_t number = field.as_u64();
          if (number > static_cast<std::uint64_t>(
                           std::numeric_limits<T>::max())) {
            throw WireError("config: " + std::string(name) + " " +
                            std::to_string(number) + " is out of range");
          }
          value = static_cast<T>(number);
        }
      });
  return config;
}

std::string metrics_to_json(const obs::MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    out += json_string(name);
    out += ':';
    append_u64(out, value);
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) out += ',';
    out += json_string(name);
    out += ":{\"count\":";
    append_u64(out, hist.count);
    out += ",\"sum\":";
    append_u64(out, hist.sum);
    out += ",\"min\":";
    append_u64(out, hist.min);
    out += ",\"max\":";
    append_u64(out, hist.max);
    out += ",\"timing\":";
    out += hist.timing ? "true" : "false";
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i != 0) out += ',';
      append_u64(out, hist.buckets[i]);
    }
    out += "]}";
    first = false;
  }
  out += "}}";
  return out;
}

obs::MetricsSnapshot metrics_from_json(const Json& json) {
  obs::MetricsSnapshot snapshot;
  if (json.has("counters")) {
    for (const auto& [name, value] : json.at("counters").members()) {
      snapshot.counters[name] = value.as_u64();
    }
  }
  if (json.has("histograms")) {
    for (const auto& [name, value] : json.at("histograms").members()) {
      obs::HistogramData data;
      data.count = value.at("count").as_u64();
      data.sum = value.at("sum").as_u64();
      data.min = value.at("min").as_u64();
      data.max = value.at("max").as_u64();
      data.timing = value.bool_or("timing", false);
      for (const Json& bucket : value.at("buckets").items()) {
        data.buckets.push_back(bucket.as_u64());
      }
      snapshot.histograms[name] = std::move(data);
    }
  }
  return snapshot;
}

std::string seed_result_to_json(const campaign::SeedResult& result) {
  std::string out = "{\"seed\":";
  append_u64(out, result.seed);
  out += ",\"properties\":[";
  for (std::size_t i = 0; i < result.properties.size(); ++i) {
    const campaign::PropertyOutcome& p = result.properties[i];
    if (i != 0) out += ',';
    out += "{\"verdict\":";
    append_u64(out, static_cast<std::uint64_t>(p.verdict));
    out += ",\"decided_at_step\":";
    append_u64(out, p.decided_at_step);
    out += ",\"fault_class\":";
    append_u64(out, static_cast<std::uint64_t>(p.fault_class));
    out += "}";
  }
  out += "],\"steps\":";
  append_u64(out, result.steps);
  out += ",\"statements\":";
  append_u64(out, result.statements);
  out += ",\"draws\":";
  append_u64(out, result.draws);
  out += ",\"finished\":";
  out += result.finished ? "true" : "false";
  out += ",\"error\":" + json_string(result.error);
  out += ",\"error_kind\":" + json_string(result.error_kind);
  out += ",\"attempts\":";
  append_u64(out, result.attempts);
  out += ",\"witness\":" + json_string(result.witness);
  out += ",\"prop_true_counts\":[";
  for (std::size_t i = 0; i < result.prop_true_counts.size(); ++i) {
    if (i != 0) out += ',';
    append_u64(out, result.prop_true_counts[i]);
  }
  out += "],\"injected_faults\":";
  append_u64(out, result.injected_faults);
  out += ",\"fault_log\":" + json_string(result.fault_log);
  out += ",\"fault_plan_digest\":" + json_string(result.fault_plan_digest);
  out += ",\"metrics\":" + metrics_to_json(result.metrics);
  out += ",\"trace_jsonl\":" + json_string(result.trace_jsonl);
  out += ",\"wall_ms\":" + double_text(result.wall_ms);
  out += "}";
  return out;
}

campaign::SeedResult seed_result_from_json(const Json& json) {
  campaign::SeedResult result;
  result.seed = json.at("seed").as_u64();
  for (const Json& p : json.at("properties").items()) {
    campaign::PropertyOutcome outcome;
    outcome.verdict =
        static_cast<temporal::Verdict>(p.at("verdict").as_u64());
    outcome.decided_at_step = p.at("decided_at_step").as_u64();
    outcome.fault_class =
        static_cast<sctc::FaultClass>(p.at("fault_class").as_u64());
    result.properties.push_back(outcome);
  }
  result.steps = json.at("steps").as_u64();
  result.statements = json.at("statements").as_u64();
  result.draws = json.at("draws").as_u64();
  result.finished = json.at("finished").as_bool();
  result.error = json.at("error").as_string();
  result.error_kind = json.at("error_kind").as_string();
  result.attempts = static_cast<unsigned>(json.at("attempts").as_u64());
  result.witness = json.at("witness").as_string();
  for (const Json& count : json.at("prop_true_counts").items()) {
    result.prop_true_counts.push_back(count.as_u64());
  }
  result.injected_faults = json.at("injected_faults").as_u64();
  result.fault_log = json.at("fault_log").as_string();
  result.fault_plan_digest = json.string_or("fault_plan_digest", "");
  result.metrics = metrics_from_json(json.at("metrics"));
  result.trace_jsonl = json.at("trace_jsonl").as_string();
  result.wall_ms = json.double_or("wall_ms", 0.0);
  return result;
}

}  // namespace esv::dist
