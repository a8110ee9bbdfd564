// Data-flash controller model.
//
// Stand-in for the case study's flash hardware: the NEC EEPROM-emulation
// software sits on a Data Flash Access layer (DFALib) that talks to a real
// data-flash macro. Our controller models the properties that shape that
// software: page-erase granularity, program-only-after-erase cells, multi-
// cycle busy times, and failing operations (injectable), all behind a small
// MMIO register file.
//
// Register map (word offsets from the mapping base):
//   +0x00 CMD     (w) 1 = ERASE_PAGE (ADDR selects the page)
//                     2 = PROGRAM_WORD (ADDR = byte offset, DATA = value)
//   +0x04 ADDR    (rw) byte offset into the flash array
//   +0x08 DATA    (rw) program data / last read data
//   +0x0C STATUS  (r)  bit0 BUSY, bit1 ERROR, bit2 READY (= !busy)
//   +0x10 ACK     (w) any value clears the ERROR bit
//   +0x14 INJECT  (w) 1 = fail the next command, 2 = fail the next erase,
//                     3 = fail the next program (test hook; stimulus and the
//                     fault engine use the C++ API instead)
//
// The flash array itself is readable (and only readable) at
// [kArrayOffset, kArrayOffset + size); erased cells read kErasedWord.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/address_space.hpp"

namespace esv::flash {

struct FlashConfig {
  std::uint32_t pages = 8;
  std::uint32_t words_per_page = 64;
  std::uint32_t erase_busy_ticks = 20;
  std::uint32_t program_busy_ticks = 4;
};

class FlashController final : public mem::MmioDevice {
 public:
  static constexpr std::uint32_t kRegCmd = 0x00;
  static constexpr std::uint32_t kRegAddr = 0x04;
  static constexpr std::uint32_t kRegData = 0x08;
  static constexpr std::uint32_t kRegStatus = 0x0C;
  static constexpr std::uint32_t kRegAck = 0x10;
  static constexpr std::uint32_t kRegInject = 0x14;
  static constexpr std::uint32_t kArrayOffset = 0x100;

  static constexpr std::uint32_t kCmdErasePage = 1;
  static constexpr std::uint32_t kCmdProgramWord = 2;

  static constexpr std::uint32_t kStatusBusy = 1u << 0;
  static constexpr std::uint32_t kStatusError = 1u << 1;
  static constexpr std::uint32_t kStatusReady = 1u << 2;

  static constexpr std::uint32_t kErasedWord = 0xFFFFFFFFu;

  explicit FlashController(FlashConfig config = {});

  /// Size of the flash array in bytes.
  std::uint32_t array_bytes() const {
    return config_.pages * config_.words_per_page * 4;
  }
  /// Total MMIO window size needed when mapping this device.
  std::uint32_t window_bytes() const { return kArrayOffset + array_bytes(); }

  // mem::MmioDevice
  std::uint32_t mmio_read(std::uint32_t offset) override;
  void mmio_write(std::uint32_t offset, std::uint32_t value) override;
  void tick() override;

  // --- direct model access (testbench / stimulus side) ---
  bool busy() const { return busy_ticks_ > 0; }
  bool error() const { return error_; }
  std::uint32_t word_at(std::uint32_t byte_offset) const;
  /// Directly programs a cell, bypassing timing (test setup).
  void backdoor_write(std::uint32_t byte_offset, std::uint32_t value);

  /// Command kinds a pending injected fault applies to. A targeted fault
  /// stays armed until a matching command starts; kAny fails the very next
  /// command (the historic behaviour).
  enum class FaultOp : std::uint32_t { kAny = 0, kErase = 1, kProgram = 2 };

  /// Makes the next matching command fail with the ERROR bit (fault
  /// injection: transient erase/program failures).
  void inject_fault(FaultOp op = FaultOp::kAny) {
    inject_fault_ = true;
    inject_op_ = op;
  }

  std::uint64_t erase_count() const { return erase_count_; }
  std::uint64_t program_count() const { return program_count_; }
  std::uint64_t failed_op_count() const { return failed_op_count_; }

 private:
  void start_command(std::uint32_t cmd);
  void complete_command();

  FlashConfig config_;
  std::vector<std::uint32_t> cells_;
  std::uint32_t reg_addr_ = 0;
  std::uint32_t reg_data_ = 0;
  bool error_ = false;
  bool inject_fault_ = false;
  FaultOp inject_op_ = FaultOp::kAny;

  std::uint32_t busy_ticks_ = 0;
  std::uint32_t active_cmd_ = 0;
  bool active_fails_ = false;

  std::uint64_t erase_count_ = 0;
  std::uint64_t program_count_ = 0;
  std::uint64_t failed_op_count_ = 0;
};

}  // namespace esv::flash
