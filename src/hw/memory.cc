#include "src/hw/memory.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace solros {

namespace {

// Start alignment of a mapped buffer (one cache line, above max_align_t).
constexpr size_t kMappedAlign = 64;

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

}  // namespace

DeviceBuffer::DeviceBuffer(DeviceId device, size_t size)
    : device_(device), size_(size) {
  if (size < kMappedBufferBytes) {
    heap_ = std::make_unique<uint8_t[]>(size);  // value-initialised: zeros
    bytes_ = heap_.get();
    return;
  }
  const auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t body = RoundUp(size, page);
  // MAP_NORESERVE: a sparse buffer (2 GiB of flash of which a bench writes
  // a few MiB) must not be charged its full size up front.
  void* base = mmap(nullptr, body + page, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CHECK(base != MAP_FAILED) << "mmap of " << size
                            << " bytes failed: " << std::strerror(errno);
  map_base_ = base;
  map_length_ = body + page;
  auto* first = static_cast<uint8_t*>(base);
  // Residency must follow touched bytes page by page, whatever the host's
  // transparent-huge-page policy.
  madvise(first, body, MADV_NOHUGEPAGE);
  CHECK_EQ(mprotect(first + body, page, PROT_NONE), 0)
      << "guard page mprotect failed: " << std::strerror(errno);
  // End-align so the last byte abuts the guard page.
  bytes_ = first + body - RoundUp(size, kMappedAlign);
  ASAN_POISON_MEMORY_REGION(first, static_cast<size_t>(bytes_ - first));
  ASAN_POISON_MEMORY_REGION(bytes_ + size, RoundUp(size, kMappedAlign) - size);
}

DeviceBuffer::~DeviceBuffer() {
  if (map_base_ != nullptr) {
    // The address range is reused by later mappings, which must not
    // inherit this buffer's poisoned slack.
    auto* first = static_cast<uint8_t*>(map_base_);
    ASAN_UNPOISON_MEMORY_REGION(first, static_cast<size_t>(bytes_ - first));
    ASAN_UNPOISON_MEMORY_REGION(bytes_ + size_,
                                RoundUp(size_, kMappedAlign) - size_);
    munmap(map_base_, map_length_);
  }
}

}  // namespace solros
