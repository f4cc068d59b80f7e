// DeviceBuffer's residency model: every buffer reads as zeros until
// written, large buffers cost host memory only for the pages a simulation
// touches, and an overrun past a large buffer faults.
#include "src/hw/memory.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "src/base/units.h"

namespace solros {
namespace {

constexpr DeviceId kDevice{0};

// Resident set size of this process in bytes, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  CHECK(statm) << "cannot read /proc/self/statm";
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

bool AllZero(const DeviceBuffer& buf) {
  const uint8_t* p = buf.data();
  return std::all_of(p, p + buf.size(), [](uint8_t b) { return b == 0; });
}

TEST(DeviceBufferTest, SmallBufferIsZeroedHeapMemory) {
  for (size_t size : {KiB(16), DeviceBuffer::kMappedBufferBytes - 1}) {
    DeviceBuffer buf(kDevice, size);
    EXPECT_FALSE(buf.mapped());
    EXPECT_EQ(buf.size(), size);
    EXPECT_TRUE(AllZero(buf));
  }
}

TEST(DeviceBufferTest, LargeBufferReadsZerosAndKeepsWrites) {
  DeviceBuffer buf(DeviceId{3}, MiB(64));
  ASSERT_TRUE(buf.mapped());
  EXPECT_EQ(buf.device(), DeviceId{3});
  EXPECT_TRUE(AllZero(buf));
  for (uint64_t off : {uint64_t{0}, MiB(1) + 7, MiB(64) - 1}) {
    buf.data()[off] = static_cast<uint8_t>(off % 251 + 1);
  }
  for (uint64_t off : {uint64_t{0}, MiB(1) + 7, MiB(64) - 1}) {
    EXPECT_EQ(buf.data()[off], static_cast<uint8_t>(off % 251 + 1));
  }
  EXPECT_EQ(buf.data()[MiB(2)], 0);
}

TEST(DeviceBufferTest, UntouchedPagesStayNonResident) {
  const uint64_t before = ResidentBytes();
  DeviceBuffer buf(kDevice, MiB(256));
  ASSERT_TRUE(buf.mapped());
  // Reading never-written pages must not materialise them...
  EXPECT_TRUE(AllZero(buf));
  const uint64_t after_read = ResidentBytes();
  // ...and writing 4 MiB makes about 4 MiB resident, not 256.
  std::fill_n(buf.data() + MiB(100), MiB(4), uint8_t{0x5A});
  const uint64_t after_write = ResidentBytes();
  EXPECT_LT(after_read, before + MiB(2));
  EXPECT_GE(after_write, after_read + MiB(4) - KiB(64));
  EXPECT_LT(after_write, before + MiB(8));
}

TEST(DeviceBufferTest, UnalignedSizesKeepAlignedStartAndFullLength) {
  constexpr size_t kMin = DeviceBuffer::kMappedBufferBytes;
  for (size_t size : {kMin, kMin + 3, kMin + MiB(3) + 4095, kMin + 64}) {
    DeviceBuffer buf(kDevice, size);
    ASSERT_TRUE(buf.mapped()) << size;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 16, 0u) << size;
    buf.data()[0] = 1;
    buf.data()[size - 1] = 2;
    EXPECT_EQ(buf.data()[size - 1], 2);
  }
}

TEST(DeviceBufferDeathTest, OverrunPastLargeBufferFaults) {
  EXPECT_DEATH(
      {
        DeviceBuffer buf(kDevice, DeviceBuffer::kMappedBufferBytes);
        volatile uint8_t* end = buf.data() + buf.size();
        *end = 1;
      },
      "");
}

}  // namespace
}  // namespace solros
