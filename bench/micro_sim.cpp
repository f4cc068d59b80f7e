// Microbenchmarks of the simulator's hot primitives (host wall-clock).
//
// Unlike the fig* benches, which report simulated time, these time the
// simulator itself on the host, one primitive per benchmark:
//
//   BM_ResumeAtStepOne/N   one ResumeAt + StepOne with N events pending
//   BM_MultiServerUse      one Use of a 244-server resource (a Xeon Phi's
//                          hardware threads) plus the event that ends it
//   BM_SpawnTrivialTask    spawn, run and free one trivial Task
//   BM_SimRingPushPop      one 64-byte SimRing Send + Receive
//
// Run with the usual google-benchmark flags, e.g.
//   ./build/bench/micro_sim --benchmark_min_time=0.05
// The numbers depend on the host; nothing here is gated.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/base/prng.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/transport/sim_ring.h"

namespace solros {
namespace {

// Re-arms itself after a random delay until *stop is set, so every event
// it handles posts exactly one new one.
Task<void> Ticker(uint64_t seed, const bool* stop) {
  Prng prng(seed);
  while (!*stop) {
    co_await Delay(1 + prng.NextBelow(1024));
  }
}

void BM_ResumeAtStepOne(benchmark::State& state) {
  Simulator sim;
  bool stop = false;
  for (int64_t i = 0; i < state.range(0); ++i) {
    Spawn(sim, Ticker(static_cast<uint64_t>(i), &stop));
  }
  sim.RunUntilIdle(static_cast<uint64_t>(state.range(0)));  // all armed
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunUntilIdle(1));
  }
  stop = true;
  sim.RunUntilIdle();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResumeAtStepOne)->Arg(16)->Arg(4096);

Task<void> ServerUser(MultiServerResource* res, uint64_t seed,
                      const bool* stop) {
  Prng prng(seed);
  while (!*stop) {
    co_await res->Use(1 + prng.NextBelow(4096));
  }
}

void BM_MultiServerUse(benchmark::State& state) {
  constexpr int kServers = 244;
  Simulator sim;
  MultiServerResource res(&sim, kServers, "phi-threads");
  bool stop = false;
  // More users than servers, so the busy-until heap is full and some
  // users queue.
  for (int i = 0; i < 2 * kServers; ++i) {
    Spawn(sim, ServerUser(&res, static_cast<uint64_t>(i), &stop));
  }
  sim.RunUntilIdle(2 * kServers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunUntilIdle(1));
  }
  stop = true;
  sim.RunUntilIdle();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiServerUse);

Task<void> Trivial(uint64_t* counter) {
  ++*counter;
  co_return;
}

void BM_SpawnTrivialTask(benchmark::State& state) {
  Simulator sim;
  uint64_t counter = 0;
  for (auto _ : state) {
    Spawn(sim, Trivial(&counter));
    sim.RunUntilIdle();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpawnTrivialTask);

Task<void> PushPop(SimRing* ring, const std::vector<uint8_t>* payload,
                   int messages) {
  for (int i = 0; i < messages; ++i) {
    CHECK_OK(co_await ring->Send(*payload));
    auto message = co_await ring->Receive();
    CHECK_OK(message);
    benchmark::DoNotOptimize(message->data());
  }
}

void BM_SimRingPushPop(benchmark::State& state) {
  constexpr int kBatch = 64;
  Simulator sim;
  const HwParams params = HwParams::Default();
  PcieFabric fabric(&sim, params);
  const DeviceId host = fabric.HostDevice(0);
  const DeviceId phi = fabric.AddDevice(DeviceType::kPhi, 0, "micro-phi");
  Processor host_cpu(&sim, host, 8, params.host_core_speed, "host");
  Processor phi_cpu(&sim, phi, 8, params.phi_core_speed, "phi");
  SimRingConfig config;
  config.master_device = phi;
  config.producer_device = phi;
  config.consumer_device = host;
  config.producer_cpu = &phi_cpu;
  config.consumer_cpu = &host_cpu;
  SimRing ring(&sim, &fabric, params, config);
  const std::vector<uint8_t> payload(64, 0x5b);
  for (auto _ : state) {
    RunSim(sim, PushPop(&ring, &payload, kBatch));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SimRingPushPop);

}  // namespace
}  // namespace solros

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
