// Per-open O_BUFFER semantics (§4.3.2) and its interaction with the data-
// path policy and the shared cache.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/prng.h"
#include "src/core/machine.h"

namespace solros {
namespace {

TEST(OBufferTest, PerOpenFlagForcesBufferedOnlyForThatFile) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(128);
  config.enable_network = false;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);

  Prng prng(1);
  std::vector<uint8_t> data(MiB(1));
  for (auto& b : data) {
    b = static_cast<uint8_t>(prng.Next());
  }
  // Two files, identical content, written P2P.
  auto a = RunSim(machine.sim(), stub.Create("/plain"));
  auto b = RunSim(machine.sim(), stub.Create("/obuffer"));
  ASSERT_TRUE(a.ok() && b.ok());
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*a, 0, MemRef::Of(src))));
  CHECK_OK(RunSim(machine.sim(), stub.Write(*b, 0, MemRef::Of(src))));
  uint64_t p2p_before = machine.fs_proxy().stats().p2p_reads;

  // Re-open /obuffer with O_BUFFER; reads on it must be buffered while
  // reads on /plain stay P2P.
  auto buffered_ino = RunSim(machine.sim(), stub.OpenBuffered("/obuffer"));
  ASSERT_TRUE(buffered_ino.ok());
  EXPECT_EQ(*buffered_ino, *b);

  DeviceBuffer dst(machine.phi_device(0), data.size());
  CHECK_OK(RunSim(machine.sim(),
                  stub.Read(*buffered_ino, 0, MemRef::Of(dst))));
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_EQ(machine.fs_proxy().stats().p2p_reads, p2p_before);
  EXPECT_GE(machine.fs_proxy().stats().buffered_reads, 1u);

  CHECK_OK(RunSim(machine.sim(), stub.Read(*a, 0, MemRef::Of(dst))));
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_EQ(machine.fs_proxy().stats().p2p_reads, p2p_before + 1);
}

TEST(OBufferTest, BufferedRereadsHitTheSharedCacheFromAnotherDataPlane) {
  // "Solros is a shared-something architecture": a file warmed through one
  // data plane's buffered reads is cache-hot for another data plane.
  MachineConfig config;
  config.num_phis = 2;
  config.nvme_capacity = MiB(128);
  config.enable_network = false;
  config.fs_options.cache_blocks = 8192;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));

  Prng prng(2);
  std::vector<uint8_t> data(MiB(2));
  for (auto& b : data) {
    b = static_cast<uint8_t>(prng.Next());
  }
  auto ino = RunSim(machine.sim(), machine.fs_stub(0).Create("/shared"));
  ASSERT_TRUE(ino.ok());
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  CHECK_OK(RunSim(machine.sim(),
                  machine.fs_stub(0).Write(*ino, 0, MemRef::Of(src))));

  // Data plane 0 warms the cache.
  auto warm_ino = RunSim(machine.sim(),
                         machine.fs_stub(0).OpenBuffered("/shared"));
  ASSERT_TRUE(warm_ino.ok());
  DeviceBuffer dst0(machine.phi_device(0), data.size());
  CHECK_OK(RunSim(machine.sim(),
                  machine.fs_stub(0).Read(*warm_ino, 0, MemRef::Of(dst0))));

  // Data plane 1 reads buffered: all hits, no new device reads.
  uint64_t device_bytes = machine.nvme().bytes_read();
  auto other_ino = RunSim(machine.sim(),
                          machine.fs_stub(1).OpenBuffered("/shared"));
  ASSERT_TRUE(other_ino.ok());
  DeviceBuffer dst1(machine.phi_device(1), data.size());
  CHECK_OK(RunSim(machine.sim(),
                  machine.fs_stub(1).Read(*other_ino, 0, MemRef::Of(dst1))));
  EXPECT_EQ(std::memcmp(dst1.data(), data.data(), data.size()), 0);
  // No *data* re-read from the device; allow a few metadata blocks (the
  // path lookup reads directory/inode blocks outside the page cache).
  EXPECT_LT(machine.nvme().bytes_read() - device_bytes, KiB(32));
  EXPECT_GT(machine.fs_proxy().cache()->hits(), 0u);
}

// A buffered read of a block whose eviction write-back is still on its way
// to the device must return the written bytes. Write-back clears a page's
// dirty bit when it snapshots the page, so a concurrent eviction can drop
// the (now clean) page while the write is in flight; the next read then
// misses and must wait for that write instead of fetching the old bytes.
TEST(OBufferTest, ReadWaitsOutInFlightEvictionWriteback) {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = MiB(64);
  config.enable_network = false;
  config.fs_options.cache_blocks = 8;
  config.fs_options.readahead = false;
  // Slow device writes keep the write-back in flight long enough for a
  // whole read round trip to happen meanwhile.
  config.params.nvme_write_latency = Milliseconds(1);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  const DeviceId phi = machine.phi_device(0);

  // Sixteen blocks of 0xAA on the device, then blocks 0..7 overwritten
  // with 0xBB through the cache: eight dirty pages fill it.
  auto ino = RunSim(machine.sim(), stub.Create("/f"));
  ASSERT_TRUE(ino.ok());
  DeviceBuffer old_bytes(phi, 16 * kFsBlockSize);
  std::memset(old_bytes.data(), 0xAA, old_bytes.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(old_bytes))));
  ASSERT_TRUE(RunSim(machine.sim(), stub.OpenBuffered("/f")).ok());
  DeviceBuffer new_bytes(phi, 8 * kFsBlockSize);
  std::memset(new_bytes.data(), 0xBB, new_bytes.size());
  CHECK_OK(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(new_bytes))));
  ASSERT_EQ(machine.fs_proxy().cache()->dirty_pages(), 8u);

  // Two readers miss on blocks 8 and 9 at once. The first to install its
  // block evicts block 0 with its dirty cluster (write-back in flight);
  // the other evicts block 0's now-clean page and returns at once. Each
  // reader then reads block 0.
  int stale = 0;
  auto reader = [&](uint64_t block) -> Task<void> {
    DeviceBuffer buf(phi, kFsBlockSize);
    CHECK_OK(co_await stub.Read(*ino, block * kFsBlockSize, MemRef::Of(buf)));
    CHECK_EQ(buf.data()[0], 0xAA);
    CHECK_OK(co_await stub.Read(*ino, 0, MemRef::Of(buf)));
    for (uint8_t b : buf.Span(0, buf.size())) {
      if (b != 0xBB) {
        ++stale;
        break;
      }
    }
  };
  Spawn(machine.sim(), reader(8));
  Spawn(machine.sim(), reader(9));
  machine.sim().RunUntilIdle();
  EXPECT_EQ(stale, 0);
  EXPECT_GE(machine.fs_proxy().cache()->evictions(), 2u);
}

}  // namespace
}  // namespace solros
