// Device memory: real byte storage tagged with the owning fabric device.
//
// This is the analogue of the paper's multiple physical address spaces
// (§4.1): a buffer lives in exactly one device's memory; moving bytes
// between buffers on different devices costs fabric time (see DmaEngine and
// WindowCopier). A MemRef is the (buffer, offset, length) triple that RPC
// messages carry in place of data for zero-copy I/O (§4.3.1) — the moral
// equivalent of a physical address in a system-mapped PCIe window.
//
// Residency. Every buffer reads as zeros until written, but only the bytes
// a simulation touches cost host memory. Buffers of kMappedBufferBytes and
// up (NVMe flash, the buffer-cache arena) live in their own anonymous
// private mapping: the kernel hands out a zeroed page on first touch and
// never-touched pages stay non-resident. Each mapping ends in a PROT_NONE
// guard page that the buffer's last byte abuts, so an overrun faults at
// once; under ASan the alignment slack around the buffer is poisoned too.
// Smaller buffers are plain zeroed heap arrays: they are the per-request
// bounce buffers and the staging buffers of bulk transfers (a file written
// in 8 MiB chunks stages each chunk), which are written in full and freed
// soon, so recycling heap pages beats faulting in a fresh mapping for each.
#ifndef SOLROS_SRC_HW_MEMORY_H_
#define SOLROS_SRC_HW_MEMORY_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/base/logging.h"
#include "src/hw/fabric.h"

namespace solros {

class DeviceBuffer {
 public:
  // Buffers at least this large are backed by a lazily zero-filled mapping.
  static constexpr size_t kMappedBufferBytes = size_t{16} << 20;

  DeviceBuffer(DeviceId device, size_t size);
  ~DeviceBuffer();
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceId device() const { return device_; }
  size_t size() const { return size_; }
  uint8_t* data() { return bytes_; }
  const uint8_t* data() const { return bytes_; }
  // True when the bytes live in a lazily zero-filled mapping.
  bool mapped() const { return map_length_ != 0; }

  std::span<uint8_t> Span(uint64_t offset, uint64_t length) {
    CHECK_LE(offset + length, size_);
    return {bytes_ + offset, length};
  }
  std::span<const uint8_t> Span(uint64_t offset, uint64_t length) const {
    CHECK_LE(offset + length, size_);
    return {bytes_ + offset, length};
  }

 private:
  DeviceId device_;
  size_t size_;
  uint8_t* bytes_ = nullptr;
  std::unique_ptr<uint8_t[]> heap_;  // small buffers
  void* map_base_ = nullptr;         // large buffers: mapping incl. guard
  size_t map_length_ = 0;
};

// A non-owning window into a DeviceBuffer.
struct MemRef {
  DeviceBuffer* buffer = nullptr;
  uint64_t offset = 0;
  uint64_t length = 0;

  static MemRef Of(DeviceBuffer& buf) {
    return MemRef{&buf, 0, buf.size()};
  }
  static MemRef Of(DeviceBuffer& buf, uint64_t offset, uint64_t length) {
    CHECK_LE(offset + length, buf.size());
    return MemRef{&buf, offset, length};
  }

  bool valid() const { return buffer != nullptr; }
  DeviceId device() const {
    DCHECK(buffer != nullptr);
    return buffer->device();
  }
  std::span<uint8_t> span() const { return buffer->Span(offset, length); }

  // A sub-window relative to this one.
  MemRef Sub(uint64_t rel_offset, uint64_t sub_length) const {
    CHECK_LE(rel_offset + sub_length, length);
    return MemRef{buffer, offset + rel_offset, sub_length};
  }
};

}  // namespace solros

#endif  // SOLROS_SRC_HW_MEMORY_H_
