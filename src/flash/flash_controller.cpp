#include "flash/flash_controller.hpp"

namespace esv::flash {

FlashController::FlashController(FlashConfig config) : config_(config) {
  cells_.assign(config_.pages * config_.words_per_page, kErasedWord);
}

std::uint32_t FlashController::word_at(std::uint32_t byte_offset) const {
  const std::uint32_t index = byte_offset / 4;
  if (index >= cells_.size()) {
    throw mem::MemoryFault("flash read out of range", byte_offset);
  }
  return cells_[index];
}

void FlashController::backdoor_write(std::uint32_t byte_offset,
                                     std::uint32_t value) {
  const std::uint32_t index = byte_offset / 4;
  if (index >= cells_.size()) {
    throw mem::MemoryFault("flash backdoor write out of range", byte_offset);
  }
  cells_[index] = value;
}

std::uint32_t FlashController::mmio_read(std::uint32_t offset) {
  if (offset >= kArrayOffset) {
    return word_at(offset - kArrayOffset);
  }
  switch (offset) {
    case kRegAddr: return reg_addr_;
    case kRegData: return reg_data_;
    case kRegStatus: {
      std::uint32_t status = 0;
      if (busy()) status |= kStatusBusy;
      if (error_) status |= kStatusError;
      if (!busy()) status |= kStatusReady;
      return status;
    }
    default:
      return 0;
  }
}

void FlashController::mmio_write(std::uint32_t offset, std::uint32_t value) {
  if (offset >= kArrayOffset) {
    // The array is not directly writable; this is the constraint DFALib
    // exists to manage. Set the error bit instead of faulting: real flash
    // macros ignore stray writes.
    error_ = true;
    ++failed_op_count_;
    return;
  }
  switch (offset) {
    case kRegCmd:
      start_command(value);
      return;
    case kRegAddr:
      reg_addr_ = value;
      return;
    case kRegData:
      reg_data_ = value;
      return;
    case kRegAck:
      error_ = false;
      return;
    case kRegInject:
      if (value == 2) {
        inject_fault(FaultOp::kErase);
      } else if (value == 3) {
        inject_fault(FaultOp::kProgram);
      } else if (value != 0) {
        inject_fault(FaultOp::kAny);
      }
      return;
    default:
      return;
  }
}

void FlashController::start_command(std::uint32_t cmd) {
  if (busy()) {
    // Command while busy: rejected with error, the in-flight op continues.
    error_ = true;
    ++failed_op_count_;
    return;
  }
  if (cmd != kCmdErasePage && cmd != kCmdProgramWord) {
    error_ = true;
    ++failed_op_count_;
    return;
  }
  active_cmd_ = cmd;
  const bool fault_matches =
      inject_fault_ &&
      (inject_op_ == FaultOp::kAny ||
       (inject_op_ == FaultOp::kErase && cmd == kCmdErasePage) ||
       (inject_op_ == FaultOp::kProgram && cmd == kCmdProgramWord));
  active_fails_ = fault_matches;
  if (fault_matches) inject_fault_ = false;
  busy_ticks_ = cmd == kCmdErasePage ? config_.erase_busy_ticks
                                     : config_.program_busy_ticks;
  if (busy_ticks_ == 0) complete_command();
}

void FlashController::tick() {
  if (busy_ticks_ == 0) return;
  if (--busy_ticks_ == 0) complete_command();
}

void FlashController::complete_command() {
  const std::uint32_t cmd = active_cmd_;
  active_cmd_ = 0;
  if (active_fails_) {
    active_fails_ = false;
    error_ = true;
    ++failed_op_count_;
    return;
  }
  if (cmd == kCmdErasePage) {
    const std::uint32_t page = reg_addr_ / (config_.words_per_page * 4);
    if (page >= config_.pages) {
      error_ = true;
      ++failed_op_count_;
      return;
    }
    const std::uint32_t first = page * config_.words_per_page;
    for (std::uint32_t i = 0; i < config_.words_per_page; ++i) {
      cells_[first + i] = kErasedWord;
    }
    ++erase_count_;
    return;
  }
  if (cmd == kCmdProgramWord) {
    const std::uint32_t index = reg_addr_ / 4;
    if (index >= cells_.size() || cells_[index] != kErasedWord) {
      // Programming a non-erased cell is the canonical flash misuse.
      error_ = true;
      ++failed_op_count_;
      return;
    }
    cells_[index] = reg_data_;
    ++program_count_;
  }
}

}  // namespace esv::flash
