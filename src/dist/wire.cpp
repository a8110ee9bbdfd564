#include "dist/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "chaos/chaos.hpp"

namespace esv::dist {

// --- Json ----------------------------------------------------------------

namespace {

class JsonParserImpl;

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
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

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
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

  Json parse_object() {
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
      value.members_[std::move(key)] = parse_value();
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

  Json parse_array() {
    expect('[');
    Json value;
    value.type_ = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.items_.push_back(parse_value());
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
  std::uint64_t out = 0;
  const auto result =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (result.ec != std::errc{} ||
      result.ptr != scalar_.data() + scalar_.size()) {
    type_error("an unsigned integer");
  }
  return out;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) type_error("a number");
  try {
    return std::stod(scalar_);
  } catch (const std::exception&) {
    type_error("a double");
  }
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

void json_escape_into(std::string& out, std::string_view text) {
  static const char* kHex = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

std::string json_string(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  json_escape_into(out, text);
  out += '"';
  return out;
}

// --- framing -------------------------------------------------------------

namespace {

// CRC-32 (IEEE 802.3, reflected, init/final-xor 0xFFFFFFFF) — the same
// function as journal::crc32, duplicated here because the journal layer
// links *on top of* the wire layer.
struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

std::uint32_t frame_crc32(const char* data, std::size_t size) {
  static const Crc32Table table;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^
          table.entries[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t decode_u32(const char* bytes) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]))
             << 24;
}

void encode_u32(std::uint32_t value, char* bytes) {
  bytes[0] = static_cast<char>(value & 0xFF);
  bytes[1] = static_cast<char>((value >> 8) & 0xFF);
  bytes[2] = static_cast<char>((value >> 16) & 0xFF);
  bytes[3] = static_cast<char>((value >> 24) & 0xFF);
}

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
  if (frame_crc32(payload, length) != expected) {
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
  const std::uint32_t length = decode_u32(buffer_.data());
  if (length > kMaxFramePayload) {
    throw WireError("wire: frame length " + std::to_string(length) +
                    " exceeds the protocol maximum");
  }
  if (buffer_.size() < kFrameHeaderBytes + length) return std::nullopt;
  const std::uint32_t expected_crc = decode_u32(buffer_.data() + 4);
  check_frame_crc(buffer_.data() + kFrameHeaderBytes, length, expected_crc);
  std::string payload = buffer_.substr(kFrameHeaderBytes, length);
  buffer_.erase(0, kFrameHeaderBytes + length);
  return payload;
}

std::optional<std::uint32_t> FrameReader::pending_payload() const {
  if (buffer_.size() < 4) return std::nullopt;
  return decode_u32(buffer_.data());
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("wire: frame payload too large");
  }
  char header[kFrameHeaderBytes];
  encode_u32(static_cast<std::uint32_t>(payload.size()), header);
  encode_u32(frame_crc32(payload.data(), payload.size()), header + 4);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(header, kFrameHeaderBytes);
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
  const std::uint32_t length = decode_u32(header);
  if (length > kMaxFramePayload) {
    throw WireError("wire: frame length " + std::to_string(length) +
                    " exceeds the protocol maximum");
  }
  std::string payload(length, '\0');
  if (length != 0 && !recv_all(fd, payload.data(), length)) {
    throw WireError("wire: EOF inside a frame");
  }
  check_frame_crc(payload.data(), length, decode_u32(header + 4));
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
  out += "\"program_source\":" + json_string(config.program_source);
  out += ",\"spec_text\":" + json_string(config.spec_text);
  out += ",\"approach\":";
  append_u64(out, static_cast<std::uint64_t>(config.approach));
  out += ",\"mode\":";
  out += json_string(sctc::monitor_mode_name(config.mode));
  out += ",\"max_steps\":";
  append_u64(out, config.max_steps);
  out += ",\"jobs\":";
  append_u64(out, config.jobs);
  out += ",\"witness_depth\":";
  append_u64(out, config.witness_depth);
  out += ",\"fault_plan_text\":" + json_string(config.fault_plan_text);
  out += ",\"fault_log_limit\":";
  append_u64(out, config.fault_log_limit);
  out += ",\"collect_metrics\":";
  out += config.collect_metrics ? "true" : "false";
  out += ",\"capture_traces\":";
  out += config.capture_traces ? "true" : "false";
  out += ",\"seed_timeout_seconds\":" + double_text(config.seed_timeout_seconds);
  out += ",\"seed_retries\":";
  append_u64(out, config.seed_retries);
  out += ",\"seed_mem_limit_mb\":";
  append_u64(out, config.seed_mem_limit_mb);
  // on_result and resume_results stay host-side by design: journaling and
  // resume are orchestrator concerns, workers only ever compute fresh seeds.
  out += "}";
  return out;
}

campaign::CampaignConfig config_from_json(const Json& json) {
  campaign::CampaignConfig config;
  config.program_source = json.at("program_source").as_string();
  config.spec_text = json.at("spec_text").as_string();
  config.approach = static_cast<int>(json.at("approach").as_u64());
  const std::string& mode = json.at("mode").as_string();
  if (const auto parsed = sctc::parse_monitor_mode(mode)) {
    config.mode = *parsed;
  } else if (const std::string retired =
                 sctc::retired_monitor_mode_message(mode);
             !retired.empty()) {
    throw WireError("config: " + retired);
  } else {
    throw WireError("config: unknown monitor mode \"" + mode + "\"");
  }
  config.max_steps = json.at("max_steps").as_u64();
  config.jobs = static_cast<unsigned>(json.u64_or("jobs", 1));
  config.witness_depth =
      static_cast<std::size_t>(json.u64_or("witness_depth", 0));
  config.fault_plan_text = json.string_or("fault_plan_text", "");
  config.fault_log_limit =
      static_cast<std::size_t>(json.u64_or("fault_log_limit", 64));
  config.collect_metrics = json.bool_or("collect_metrics", false);
  config.capture_traces = json.bool_or("capture_traces", false);
  config.seed_timeout_seconds = json.double_or("seed_timeout_seconds", 0.0);
  config.seed_retries = static_cast<unsigned>(json.u64_or("seed_retries", 0));
  config.seed_mem_limit_mb = json.u64_or("seed_mem_limit_mb", 0);
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
