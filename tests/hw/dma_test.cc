#include "src/hw/dma.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/hw/memory.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  DmaEngine host_dma{&sim, &fabric, params, host};
  DmaEngine phi_dma{&sim, &fabric, params, phi};
  WindowCopier copier{&sim, params};
};

TEST(DmaTest, CopiesRealBytes) {
  Rig rig;
  DeviceBuffer src(rig.host, 4096);
  DeviceBuffer dst(rig.phi, 4096);
  std::iota(src.data(), src.data() + 4096, 0);
  RunSim(rig.sim, rig.host_dma.Copy(MemRef::Of(dst), MemRef::Of(src)));
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
}

TEST(DmaTest, HostInitiatedIsFasterThanPhiInitiated) {
  // Fig. 4: host-initiated DMA is ~2.3x faster.
  Rig host_rig;
  DeviceBuffer a(host_rig.host, MiB(8));
  DeviceBuffer b(host_rig.phi, MiB(8));
  RunSim(host_rig.sim, host_rig.host_dma.Copy(MemRef::Of(b), MemRef::Of(a)));
  Nanos host_time = host_rig.sim.now();

  Rig phi_rig;
  DeviceBuffer c(phi_rig.host, MiB(8));
  DeviceBuffer d(phi_rig.phi, MiB(8));
  RunSim(phi_rig.sim, phi_rig.phi_dma.Copy(MemRef::Of(d), MemRef::Of(c)));
  Nanos phi_time = phi_rig.sim.now();

  double ratio = static_cast<double>(phi_time) / host_time;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 2.6);
}

TEST(DmaTest, SmallCopyDominatedByInitLatency) {
  Rig rig;
  DeviceBuffer src(rig.host, 64);
  DeviceBuffer dst(rig.phi, 64);
  RunSim(rig.sim, rig.host_dma.Copy(MemRef::Of(dst), MemRef::Of(src)));
  EXPECT_GE(rig.sim.now(), rig.params.dma_init_host);
  EXPECT_LT(rig.sim.now(), rig.params.dma_init_host + Microseconds(2));
}

TEST(DmaTest, TimeForEstimates) {
  Rig rig;
  EXPECT_EQ(rig.host_dma.TimeFor(0), rig.params.dma_init_host);
  EXPECT_GT(rig.phi_dma.TimeFor(MiB(1)), rig.host_dma.TimeFor(MiB(1)));
}

Task<void> DmaCopyTask(DmaEngine* dma, MemRef dst, MemRef src,
                       WaitGroup* wg) {
  co_await dma->Copy(dst, src);
  wg->Done();
}

TEST(DmaTest, EightChannelsPipelineSetup) {
  Rig rig;
  DeviceBuffer src(rig.host, 64 * 16);
  DeviceBuffer dst(rig.phi, 64 * 16);
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < 16; ++i) {
    wg.Add(1);
    Spawn(rig.sim, DmaCopyTask(&rig.host_dma,
                               MemRef::Of(dst, i * 64, 64),
                               MemRef::Of(src, i * 64, 64), &wg));
  }
  rig.sim.RunUntilIdle();
  // 16 tiny copies across 8 channels: two setup rounds, not 16.
  EXPECT_LT(rig.sim.now(), 3 * rig.params.dma_init_host);
  EXPECT_EQ(rig.host_dma.copies_issued(), 16u);
}

TEST(WindowCopierTest, SmallCopyLatencyAndLargeCopyBandwidth) {
  Rig rig;
  // 64 B: latency-dominated.
  EXPECT_EQ(rig.copier.TimeFor(64, /*initiator_is_host=*/true),
            rig.params.memcpy_small_latency_host);
  // 8 MB: dominated by the throttled stream segment (~40 MB/s).
  Nanos t8m = rig.copier.TimeFor(MiB(8), true);
  double bw8m = RateBps(MiB(8), t8m);
  EXPECT_GT(bw8m, MBps(35));
  EXPECT_LT(bw8m, MBps(50));
  // Phi-initiated is slower on the large end.
  EXPECT_GT(rig.copier.TimeFor(MiB(8), false),
            rig.copier.TimeFor(MiB(8), true));
  // Monotone in size.
  EXPECT_LT(rig.copier.TimeFor(KiB(1), true),
            rig.copier.TimeFor(KiB(4), true));
}

TEST(WindowCopierTest, AdaptiveThresholdsMatchPaper) {
  // §4.2.4: memcpy wins below 1 KB (host) / 16 KB (Phi); DMA wins above.
  Rig rig;
  EXPECT_LT(rig.copier.TimeFor(512, true), rig.host_dma.TimeFor(512));
  EXPECT_GT(rig.copier.TimeFor(KiB(4), true), rig.host_dma.TimeFor(KiB(4)));
  EXPECT_LT(rig.copier.TimeFor(KiB(8), false),
            rig.phi_dma.TimeFor(KiB(8)));
  EXPECT_GT(rig.copier.TimeFor(KiB(64), false),
            rig.phi_dma.TimeFor(KiB(64)));
}

TEST(WindowCopierTest, Paper8MByteRatiosHold) {
  // §4.2.1: "For 8 MB data transfer, the DMA copy operation is 150x and
  // 116x faster than memcpy in a host processor and Xeon Phi".
  Rig rig;
  double host_ratio =
      static_cast<double>(rig.copier.TimeFor(MiB(8), true)) /
      static_cast<double>(rig.host_dma.TimeFor(MiB(8)));
  double phi_ratio =
      static_cast<double>(rig.copier.TimeFor(MiB(8), false)) /
      static_cast<double>(rig.phi_dma.TimeFor(MiB(8)));
  EXPECT_NEAR(host_ratio, 150.0, 25.0);
  EXPECT_NEAR(phi_ratio, 116.0, 20.0);
}

TEST(WindowCopierTest, Paper64ByteRatiosHold) {
  // §4.2.1: "For a 64-byte data transfer, memcpy is 2.9x and 12.6x faster
  // than a DMA copy in a host processor and a Xeon Phi co-processor."
  Rig rig;
  double host_ratio =
      static_cast<double>(rig.host_dma.TimeFor(64)) /
      static_cast<double>(rig.copier.TimeFor(64, true));
  double phi_ratio =
      static_cast<double>(rig.phi_dma.TimeFor(64)) /
      static_cast<double>(rig.copier.TimeFor(64, false));
  EXPECT_NEAR(host_ratio, 2.9, 0.3);
  EXPECT_NEAR(phi_ratio, 12.6, 1.0);
}

TEST(WindowCopierTest, CopiesRealBytes) {
  Rig rig;
  DeviceBuffer src(rig.phi, 128);
  DeviceBuffer dst(rig.host, 128);
  for (int i = 0; i < 128; ++i) {
    src.data()[i] = static_cast<uint8_t>(i * 3);
  }
  RunSim(rig.sim, rig.copier.Copy(MemRef::Of(dst), MemRef::Of(src), false));
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 128), 0);
}

Task<void> Compute(Processor* cpu, Nanos work) { co_await cpu->Compute(work); }

TEST(ProcessorTest, SpeedFactorScalesWork) {
  Simulator sim;
  HwParams params;
  PcieFabric fabric(&sim, params);
  DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "mic0");
  Processor host_cpu(&sim, fabric.HostDevice(0), 24, params.host_core_speed,
                     "host-cpu");
  Processor phi_cpu(&sim, phi, 244, params.phi_core_speed, "phi-cpu");
  EXPECT_EQ(host_cpu.ScaledTime(Microseconds(1)), Microseconds(1));
  EXPECT_EQ(phi_cpu.ScaledTime(Microseconds(1)), Microseconds(8));
  RunSim(sim, Compute(&phi_cpu, Microseconds(10)));
  EXPECT_EQ(sim.now(), Microseconds(80));
}

Task<void> ComputeTask(Processor* cpu, Nanos work, WaitGroup* wg) {
  co_await cpu->Compute(work);
  wg->Done();
}

TEST(ProcessorTest, OversubscriptionQueues) {
  Simulator sim;
  HwParams params;
  PcieFabric fabric(&sim, params);
  Processor cpu(&sim, fabric.HostDevice(0), 2, 1.0, "tiny");
  WaitGroup wg(&sim);
  for (int i = 0; i < 4; ++i) {
    wg.Add(1);
    Spawn(sim, ComputeTask(&cpu, Microseconds(10), &wg));
  }
  sim.RunUntilIdle();
  // 4 jobs, 2 threads -> 20us.
  EXPECT_EQ(sim.now(), Microseconds(20));
}

}  // namespace
}  // namespace solros
