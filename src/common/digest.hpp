// The repo's one content-fingerprint primitive: 64-bit FNV-1a rendered as a
// stable 16-hex-digit string.
//
// Four subsystems key correctness-critical decisions off these digests — the
// journal's config digest gates --resume, the fault- and chaos-plan digests
// make crash reports reproducible, the generator's config digest names fuzz
// reproducer directories, and esv-serve's result cache is keyed by
// (program digest, spec digest, config digest). They must all agree on the
// hash, byte for byte, forever: a silent divergence between two copies of
// FNV-1a would make a cache serve a wrong report or a resume reject a valid
// journal. Hence exactly one implementation, here.
//
// Two feeding disciplines exist, both preserved from the original call sites:
//
//   * Fnv1a::feed(text) appends a NUL separator after the bytes so the field
//     sequence {"a","bc"} never collides with {"ab","c"} (the journal config
//     digest's contract);
//   * Fnv1a::mix(text) feeds raw bytes with no separator (the plan digests,
//     which hash canonical one-line-per-entry renderings that end in '\n'
//     or are otherwise self-delimiting).
//
// Changing either discipline, the offset basis, or the prime invalidates
// every digest ever written to a journal, reproducer, or cache — don't,
// and if it ever must happen again, bump journal::kJournalVersion and
// serve::kServeJournalVersion with it. (Unification fixed a latent skew:
// three call sites had a transcription slip in the decimal offset basis —
// 1469598103934665603, one digit short of the true constant. The
// canonical basis below is the standard one. Because every digest
// changed, the fix rode a journal-format bump to v2: files written by
// pre-fix builds are rejected with an explicit "written by an older
// version" message — see RecoveredJournal::header_version — instead of a
// baffling digest mismatch or a silent fresh start.)
//
// The same goes for the 8-byte header every journal record and wire frame
// starts with (payload length + CRC-32): one implementation, below.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace esv::common {

/// Incremental 64-bit FNV-1a hasher.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  /// Feeds the bytes of `text` followed by a NUL field separator.
  void feed(std::string_view text) {
    mix(text);
    feed_byte(0);
  }

  /// Feeds a 64-bit value, little-endian.
  void feed(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      feed_byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }

  /// Feeds the raw bytes of `text`, no separator.
  void mix(std::string_view text) {
    for (const char c : text) feed_byte(static_cast<unsigned char>(c));
  }

  std::uint64_t value() const { return hash_; }

  /// Stable 16-hex-digit (lowercase, zero-padded) rendering of the hash.
  std::string hex() const { return to_hex16(hash_); }

  static std::string to_hex16(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
      out[static_cast<std::size_t>(i)] = digits[value & 0xF];
      value >>= 4;
    }
    return out;
  }

 private:
  void feed_byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= kPrime;
  }
  std::uint64_t hash_ = kOffsetBasis;
};

/// One-shot digest of a byte string (no separator), as 16 hex digits.
inline std::string fnv1a_hex(std::string_view text) {
  Fnv1a digest;
  digest.mix(text);
  return digest.hex();
}

/// Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected,
/// init/final-xor 0xFFFFFFFF). crc32("123456789") == 0xCBF43926.
inline std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> entries{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Size of the record header: u32 payload length + u32 payload CRC-32.
constexpr std::size_t kRecordHeaderBytes = 8;

/// Appends the record header of `payload`, both words little-endian.
inline void append_record_header(std::string& out, std::string_view payload) {
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  for (const std::uint32_t word : {length, crc32(payload.data(), length)}) {
    for (int i = 0; i < 4; ++i) out += static_cast<char>(word >> (8 * i));
  }
}

/// Reads one little-endian header word.
inline std::uint32_t read_u32_le(const char* bytes) {
  std::uint32_t word = 0;
  for (int i = 3; i >= 0; --i) {
    word = word << 8 | static_cast<unsigned char>(bytes[i]);
  }
  return word;
}

}  // namespace esv::common
