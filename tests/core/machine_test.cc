// End-to-end integration of the full Solros machine: data-plane stubs,
// control-plane proxies, the data-path policy, and real data integrity
// through every layer.
#include "src/core/machine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

MachineConfig SmallConfig(int num_phis = 1) {
  MachineConfig config;
  config.num_phis = num_phis;
  config.nvme_capacity = MiB(256);
  config.fs_options.cache_blocks = 4096;  // 16 MiB cache
  return config;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng prng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(prng.Next());
  }
  return out;
}

TEST(MachineFsTest, CreateWriteReadThroughStubP2p) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);

  auto ino = RunSim(machine.sim(), stub.Create("/data.bin"));
  ASSERT_TRUE(ino.ok());

  // Block-aligned I/O from Phi memory: should ride the P2P path.
  auto data = RandomBytes(MiB(4), 1);
  DeviceBuffer phi_src(machine.phi_device(0), data.size());
  std::memcpy(phi_src.data(), data.data(), data.size());
  auto written =
      RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(phi_src)));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, data.size());

  DeviceBuffer phi_dst(machine.phi_device(0), data.size());
  auto read = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(phi_dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(std::memcmp(phi_dst.data(), data.data(), data.size()), 0);

  EXPECT_GE(machine.fs_proxy().stats().p2p_writes, 1u);
  EXPECT_GE(machine.fs_proxy().stats().p2p_reads, 1u);
  EXPECT_EQ(machine.fs_proxy().stats().buffered_reads, 0u);
}

TEST(MachineFsTest, UnalignedIoFallsBackToBuffered) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/odd.bin"));
  ASSERT_TRUE(ino.ok());

  auto data = RandomBytes(10000, 2);  // unaligned length
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  auto written = RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src)));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(machine.fs_proxy().stats().buffered_writes, 1u);

  DeviceBuffer dst(machine.phi_device(0), data.size());
  auto read = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data.size());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_GE(machine.fs_proxy().stats().buffered_reads, 1u);
}

TEST(MachineFsTest, OBufferFlagForcesBufferedPath) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  stub.set_buffered(true);  // O_BUFFER (§4.3.2)
  auto ino = RunSim(machine.sim(), stub.Create("/buffered.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(1), 3);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  EXPECT_EQ(machine.fs_proxy().stats().p2p_writes, 0u);
  EXPECT_EQ(machine.fs_proxy().stats().buffered_writes, 1u);
}

TEST(MachineFsTest, CrossNumaPhiIsRoutedBuffered) {
  // Phi on socket 1, NVMe on socket 0: the policy must refuse P2P.
  MachineConfig config = SmallConfig();
  config.phi_sockets = {1};
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/far.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(1), 4);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  EXPECT_EQ(machine.fs_proxy().stats().p2p_writes, 0u);
  EXPECT_GE(machine.fs_proxy().stats().buffered_writes, 1u);

  DeviceBuffer dst(machine.phi_device(0), data.size());
  auto read = RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
}

TEST(MachineFsTest, CacheHitMakesSecondReadFasterAndBuffered) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/hot.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(1), 5);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  // P2P write: it invalidates and never populates, so the first buffered
  // read must fault from disk and only the second be served from the cache
  // (an O_BUFFER write would leave the pages resident as dirty write-back).
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());
  stub.set_buffered(true);

  DeviceBuffer dst(machine.phi_device(0), data.size());
  SimTime t0 = machine.sim().now();
  ASSERT_TRUE(RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst))).ok());
  Nanos cold = machine.sim().now() - t0;
  std::memset(dst.data(), 0, dst.size());
  t0 = machine.sim().now();
  ASSERT_TRUE(RunSim(machine.sim(), stub.Read(*ino, 0, MemRef::Of(dst))).ok());
  Nanos hot = machine.sim().now() - t0;
  EXPECT_LT(hot, cold);  // served from host cache, no disk
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
  EXPECT_GT(machine.fs_proxy().cache()->hits(), 0u);
}

TEST(MachineFsTest, SequentialStreamReadaheadCutsCommandCount) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  auto ino = RunSim(machine.sim(), stub.Create("/stream.bin"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(MiB(4), 6);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  // P2P write: leaves the cache cold (P2P invalidates, never populates).
  ASSERT_TRUE(RunSim(machine.sim(), stub.Write(*ino, 0, MemRef::Of(src))).ok());

  stub.set_buffered(true);
  const uint64_t chunk = KiB(64);
  const uint64_t chunks = data.size() / chunk;
  DeviceBuffer dst(machine.phi_device(0), chunk);
  uint64_t commands0 = machine.nvme().commands_completed();
  for (uint64_t i = 0; i < chunks; ++i) {
    auto n = RunSim(machine.sim(),
                    stub.Read(*ino, i * chunk, MemRef::Of(dst)));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, chunk);
    ASSERT_EQ(std::memcmp(dst.data(), data.data() + i * chunk, chunk), 0);
  }
  uint64_t commands = machine.nvme().commands_completed() - commands0;
  // Without readahead this stream costs one NVMe command per chunk; the
  // adaptive window must collapse that by at least 3x (steady state is one
  // command per window, ~4-5x).
  EXPECT_LE(commands, chunks / 3) << "readahead did not batch the stream";
  EXPECT_GT(machine.fs_proxy().cache()->readahead_hits(), 0u);

  // A non-sequential jump resets the stream: the very next read must fetch
  // only its own blocks (one command), not a grown speculative window.
  // Fresh machine so the jump target is genuinely cold.
  Machine cold_machine(SmallConfig());
  CHECK_OK(RunSim(cold_machine.sim(), cold_machine.FormatFs()));
  FsStub& cold_stub = cold_machine.fs_stub(0);
  auto cold_ino = RunSim(cold_machine.sim(), cold_stub.Create("/cold.bin"));
  ASSERT_TRUE(cold_ino.ok());
  DeviceBuffer cold_src(cold_machine.phi_device(0), data.size());
  std::memcpy(cold_src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(cold_machine.sim(),
                     cold_stub.Write(*cold_ino, 0, MemRef::Of(cold_src)))
                  .ok());
  cold_stub.set_buffered(true);
  // Grow a window with a few sequential reads...
  DeviceBuffer buf(cold_machine.phi_device(0), chunk);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(RunSim(cold_machine.sim(),
                       cold_stub.Read(*cold_ino, i * chunk, MemRef::Of(buf)))
                    .ok());
  }
  // ...then jump far backward-of-stream into a cold region: the reset
  // window must not prefetch, so exactly one device command is issued.
  uint64_t before = cold_machine.nvme().commands_completed();
  ASSERT_TRUE(RunSim(cold_machine.sim(),
                     cold_stub.Read(*cold_ino, MiB(2), MemRef::Of(buf)))
                  .ok());
  EXPECT_EQ(cold_machine.nvme().commands_completed() - before, 1u);
}

TEST(MachineFsTest, MetadataOpsThroughStub) {
  Machine machine(SmallConfig());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  FsStub& stub = machine.fs_stub(0);
  CHECK_OK(RunSim(machine.sim(), stub.Mkdir("/dir")));
  ASSERT_TRUE(RunSim(machine.sim(), stub.Create("/dir/a")).ok());
  ASSERT_TRUE(RunSim(machine.sim(), stub.Create("/dir/b")).ok());
  auto entries = RunSim(machine.sim(), stub.Readdir("/dir"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  auto stat = RunSim(machine.sim(), stub.Stat("/dir/a"));
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 0u);
  CHECK_OK(RunSim(machine.sim(), stub.Rename("/dir/a", "/dir/c")));
  CHECK_OK(RunSim(machine.sim(), stub.Unlink("/dir/b")));
  CHECK_OK(RunSim(machine.sim(), stub.Unlink("/dir/c")));
  CHECK_OK(RunSim(machine.sim(), stub.Rmdir("/dir")));
  EXPECT_EQ(RunSim(machine.sim(), stub.Stat("/dir")).code(),
            ErrorCode::kNotFound);
}

TEST(MachineFsTest, TwoDataPlanesShareOneFileSystem) {
  Machine machine(SmallConfig(/*num_phis=*/2));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(), machine.fs_stub(0).Create("/shared"));
  ASSERT_TRUE(ino.ok());
  auto data = RandomBytes(KiB(64), 6);
  DeviceBuffer src(machine.phi_device(0), data.size());
  std::memcpy(src.data(), data.data(), data.size());
  ASSERT_TRUE(RunSim(machine.sim(),
                     machine.fs_stub(0).Write(*ino, 0, MemRef::Of(src)))
                  .ok());
  // Data plane 1 opens and reads what data plane 0 wrote.
  auto ino1 = RunSim(machine.sim(), machine.fs_stub(1).Open("/shared"));
  ASSERT_TRUE(ino1.ok());
  EXPECT_EQ(*ino1, *ino);
  DeviceBuffer dst(machine.phi_device(1), data.size());
  auto read = RunSim(machine.sim(),
                     machine.fs_stub(1).Read(*ino1, 0, MemRef::Of(dst)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::memcmp(dst.data(), data.data(), data.size()), 0);
}

// ---------------------------------------------------------------------------
// Network integration
// ---------------------------------------------------------------------------

// A simple echo server running on a data-plane OS; one task per
// connection.
Task<void> EchoConn(ServerSocketApi* api, int64_t sock) {
  while (true) {
    auto message = co_await api->Recv(sock);
    if (!message.ok()) {
      break;  // peer closed
    }
    Status status = co_await api->Send(sock, *message);
    if (!status.ok()) {
      break;
    }
  }
}

Task<void> EchoServer(ServerSocketApi* api, uint16_t port, int connections) {
  Simulator* sim = co_await CurrentSimulator();
  auto listener = co_await api->Listen(port, 64);
  CHECK_OK(listener);
  for (int c = 0; c < connections; ++c) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    Spawn(*sim, EchoConn(api, *sock));
  }
}

Task<void> EchoClient(EthernetFabric* eth, Processor* cpu, uint16_t port,
                      int messages, size_t size, bool* ok, WaitGroup* wg) {
  auto conn = co_await eth->ClientConnect(0x0a000001, port, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(size, 0x42);
  for (int i = 0; i < messages; ++i) {
    payload[0] = static_cast<uint8_t>(i);
    Status sent = co_await eth->ClientSend(*conn, payload, cpu);
    if (!sent.ok()) {
      *ok = false;
      break;
    }
    auto echoed = co_await eth->ClientRecv(*conn);
    if (!echoed.ok() || echoed->size() != size || (*echoed)[0] != payload[0]) {
      *ok = false;
      break;
    }
  }
  co_await eth->ClientClose(*conn, cpu);
  wg->Done();
}

TEST(MachineNetTest, EchoThroughSolrosStack) {
  Machine machine(SmallConfig());
  Processor client_cpu(&machine.sim(), machine.host_device(), 32, 1.0,
                       "client");
  Spawn(machine.sim(), EchoServer(&machine.net_stub(0), 7000, 1));
  machine.sim().RunUntilIdle();

  bool ok = true;
  WaitGroup wg(&machine.sim());
  wg.Add(1);
  Spawn(machine.sim(), EchoClient(&machine.ethernet(), &client_cpu, 7000, 20,
                                  64, &ok, &wg));
  machine.sim().RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(wg.outstanding(), 0u);
  EXPECT_EQ(machine.tcp_proxy().stats().inbound_messages, 20u);
  EXPECT_EQ(machine.tcp_proxy().stats().outbound_messages, 20u);
}

TEST(MachineNetTest, SharedListeningSocketBalancesAcrossPhis) {
  Machine machine(SmallConfig(/*num_phis=*/4));
  Processor client_cpu(&machine.sim(), machine.host_device(), 32, 1.0,
                       "client");
  // All four data planes listen on the same port (§4.4.3).
  for (int i = 0; i < 4; ++i) {
    Spawn(machine.sim(), EchoServer(&machine.net_stub(i), 8000, 2));
  }
  machine.sim().RunUntilIdle();

  bool ok = true;
  WaitGroup wg(&machine.sim());
  for (int c = 0; c < 8; ++c) {
    wg.Add(1);
    Spawn(machine.sim(), EchoClient(&machine.ethernet(), &client_cpu, 8000, 5,
                                    64, &ok, &wg));
  }
  machine.sim().RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(wg.outstanding(), 0u);
  // Round robin: 8 connections over 4 co-processors = 2 each; every stub
  // must have seen traffic.
  EXPECT_EQ(machine.tcp_proxy().stats().connections_forwarded, 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(machine.net_stub(i).events_dispatched(), 0u) << i;
  }
}

// Resident set size of this process in bytes, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  CHECK(statm) << "cannot read /proc/self/statm";
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Device memory is lazily zero-filled: building a default machine (2 GiB of
// flash, a 128 MiB buffer-cache arena) costs host memory only for what the
// build itself touches, and so does formatting its file system.
TEST(MachineTest, DefaultMachineResidencyIsProportionalToTouchedBytes) {
  const uint64_t before = ResidentBytes();
  Machine machine{MachineConfig()};
  const uint64_t built = ResidentBytes();
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  const uint64_t formatted = ResidentBytes();
  EXPECT_EQ(machine.nvme().RawFlash().size(), GiB(2));
  EXPECT_EQ(machine.fs_proxy().cache()->capacity(), 32768u);
  EXPECT_LT(built - std::min(built, before), MiB(16));
  EXPECT_LT(formatted - std::min(formatted, before), MiB(32));
}

}  // namespace
}  // namespace solros
