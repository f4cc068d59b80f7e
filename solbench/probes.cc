#include "solbench/probes.h"

#include <algorithm>
#include <functional>

#include "solbench/host_clock.h"
#include "src/base/histogram.h"
#include "src/base/prng.h"
#include "src/fs/block_store.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/layout.h"
#include "src/sim/trace.h"
#include "src/transport/sim_ring.h"

namespace solbench {
namespace {

using solros::Task;

constexpr int kRepeats = 5;

// Median over kRepeats of `round()`'s host time divided by `ops`, in ns.
double MedianNsPerOp(int ops, const std::function<void()>& round) {
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    const double start = NowSeconds();
    round();
    ns.push_back((NowSeconds() - start) * 1e9 / ops);
  }
  std::nth_element(ns.begin(), ns.begin() + kRepeats / 2, ns.end());
  return ns[kRepeats / 2];
}

double ProbeSimPostStep() {
  constexpr int kEvents = 200000;
  solros::Simulator sim;
  uint64_t fired = 0;
  return MedianNsPerOp(kEvents, [&] {
    for (int i = 0; i < kEvents; ++i) {
      sim.Post(i & 7, [&fired] { ++fired; });
    }
    CHECK_EQ(sim.RunUntilIdle(), static_cast<uint64_t>(kEvents));
  });
}

Task<void> PushPop(solros::SimRing* ring, int messages) {
  std::vector<uint8_t> payload(64, 0x5b);
  for (int i = 0; i < messages; ++i) {
    CHECK_OK(co_await ring->Send(payload));
    auto message = co_await ring->Receive();
    CHECK_OK(message);
  }
}

double ProbeRingPushPop() {
  constexpr int kMessages = 20000;
  solros::Simulator sim;
  const solros::HwParams params = solros::HwParams::Default();
  solros::PcieFabric fabric(&sim, params);
  const solros::DeviceId host = fabric.HostDevice(0);
  const solros::DeviceId phi =
      fabric.AddDevice(solros::DeviceType::kPhi, 0, "probe-phi");
  solros::Processor host_cpu(&sim, host, 8, params.host_core_speed, "host");
  solros::Processor phi_cpu(&sim, phi, 8, params.phi_core_speed, "phi");
  solros::SimRingConfig config;
  config.master_device = phi;
  config.producer_device = phi;
  config.consumer_device = host;
  config.producer_cpu = &phi_cpu;
  config.consumer_cpu = &host_cpu;
  solros::SimRing ring(&sim, &fabric, params, config);
  return MedianNsPerOp(kMessages,
                       [&] { RunSim(sim, PushPop(&ring, kMessages)); });
}

Task<void> CacheHits(solros::BufferCache* cache, uint64_t blocks, int hits) {
  for (int i = 0; i < hits; ++i) {
    auto page = co_await cache->GetBlock(static_cast<uint64_t>(i) % blocks);
    CHECK_OK(page);
    // A hit completes without suspending, and each such co_await nests a
    // stack frame until the task next suspends; yield to the event loop now
    // and then so the stack stays shallow.
    if (i % 256 == 255) {
      co_await solros::Delay(0);
    }
  }
}

double ProbeCacheHit() {
  constexpr uint64_t kBlocks = 256;
  constexpr int kHits = 100000;
  solros::Simulator sim;
  solros::PcieFabric fabric(&sim, solros::HwParams::Default());
  solros::MemBlockStore store(solros::kFsBlockSize, kBlocks);
  solros::BufferCache cache(&store, fabric.HostDevice(0), 2 * kBlocks);
  RunSim(sim, CacheHits(&cache, kBlocks, kBlocks));  // fault every page in
  return MedianNsPerOp(kHits,
                       [&] { RunSim(sim, CacheHits(&cache, kBlocks, kHits)); });
}

double ProbeHistogramRecord() {
  constexpr int kRecords = 1000000;
  solros::Histogram histogram;
  solros::Prng prng(42);
  std::vector<uint64_t> values(4096);
  for (uint64_t& v : values) {
    v = prng.NextBelow(10000000);
  }
  const double ns = MedianNsPerOp(kRecords, [&] {
    for (int i = 0; i < kRecords; ++i) {
      histogram.Record(values[i & 4095]);
    }
  });
  CHECK_EQ(histogram.count(), uint64_t{kRepeats} * kRecords);
  return ns;
}

double ProbeTracerSpan() {
  constexpr int kSpans = 100000;
  solros::Simulator sim;
  solros::Tracer tracer(&sim);
  const solros::TrackId track = tracer.Track("probe");
  return MedianNsPerOp(kSpans, [&] {
    tracer.Clear();
    for (int i = 0; i < kSpans; ++i) {
      tracer.EndSpan(tracer.BeginSpan(track, "probe.span"));
    }
  });
}

}  // namespace

std::vector<std::pair<std::string, double>> RunMicroProbes() {
  return {{"micro.sim_post_step_ns", ProbeSimPostStep()},
          {"micro.ring_push_pop_ns", ProbeRingPushPop()},
          {"micro.cache_hit_ns", ProbeCacheHit()},
          {"micro.histogram_record_ns", ProbeHistogramRecord()},
          {"micro.tracer_span_ns", ProbeTracerSpan()}};
}

}  // namespace solbench
