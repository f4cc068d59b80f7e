// E19 — connection-storm throughput at 100k-connection scale (extension;
// no counterpart figure in the paper, which evaluates up to 16 clients).
//
// One Solros machine with 4 co-processors and 4 pinned proxy shards serves
// an echo workload over a shared listening socket (§4.4.3) while 100k+
// client connections each keep one small request in flight. Rows compare
// the legacy per-message data path ("batch off") against the full batching
// stack of DESIGN.md §5.5 ("batch on": segment coalescing + vectored ring
// push + adaptive payload copy + pipelined per-plane dispatch). A warm
// phase establishes every connection and runs one untimed round trip;
// counters are then snapshotted and only the measured phase feeds the
// table:
//
//   conns          connections in the measured phase
//   ops/s          echo round trips per simulated second
//   doorbells      plug doorbells rung (proxy inbound + stub outbound)
//   ev/push        ring events per doorbell (1.0 = unbatched)
//   p99 us         round-trip p99 latency
//   fair min/mean  per-phi delivered-message share: min over mean (1.0 =
//                  perfectly fair across the 4 data planes)
//
// CI gates (ci.yml): batch-on must beat batch-off on ops/s, ring at most
// half the doorbells, hold p99 inside a budget, and keep fairness high.
// SOLROS_BENCH_QUICK shrinks the storm to ~8k connections.
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/net_workload.h"

using namespace solros;

namespace {

constexpr uint16_t kPort = 7000;
constexpr uint32_t kMessageBytes = 64;
constexpr int kPhis = 4;
constexpr int kProxyShards = 4;
constexpr int kMeasuredPings = 2;

struct StormResult {
  int conns = 0;
  double ops_per_sec = 0.0;
  uint64_t doorbells = 0;
  double events_per_push = 0.0;
  uint64_t p99_ns = 0;
  double fairness = 0.0;  // min/mean of per-phi delivered deltas
};

uint64_t PlugDoorbells() {
  return MetricRegistry::Default().GetCounter("net.proxy.doorbells")->value() +
         MetricRegistry::Default().GetCounter("net.stub.doorbells")->value();
}

uint64_t PlugEvents() {
  return MetricRegistry::Default()
             .GetCounter("net.proxy.events_pushed")
             ->value() +
         MetricRegistry::Default()
             .GetCounter("net.stub.events_pushed")
             ->value();
}

// One storm connection: warm round trips, park on the start barrier, then
// the measured round trips.
Task<void> StormClient(EthernetFabric* eth, Processor* cpu, uint32_t addr,
                       Simulator* sim, Condition* go, WaitGroup* warm_wg,
                       Histogram* latencies, WaitGroup* done_wg) {
  auto conn = co_await eth->ClientConnect(addr, kPort, cpu);
  CHECK_OK(conn);
  std::vector<uint8_t> payload(kMessageBytes, 0x19);
  CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
  CHECK_OK(co_await eth->ClientRecv(*conn));
  warm_wg->Done();
  co_await go->Wait();
  for (int i = 0; i < kMeasuredPings; ++i) {
    SimTime t0 = sim->now();
    CHECK_OK(co_await eth->ClientSend(*conn, payload, cpu));
    auto echoed = co_await eth->ClientRecv(*conn);
    CHECK_OK(echoed);
    latencies->Record(sim->now() - t0);
  }
  co_await eth->ClientClose(*conn, cpu);
  done_wg->Done();
}

StormResult RunStorm(bool batch, int conns) {
  NetPathOptions options;
  if (batch) {
    options.coalescing = true;
    options.vectored_push = true;
    options.adaptive_copy = true;
    options.drr_dispatch = true;
    // Interrupt-coalescing window sized to the storm: each plane's plug
    // sees tens of thousands of 64B events per second, so a 40us window
    // accumulates several events per doorbell where the 5us default
    // (tuned for latency benches) would flush them one at a time.
    options.net_plug_window_ns = Microseconds(40);
  }
  NetRig rig(NetConfigKind::kSolros, kPhis, options, kProxyShards);
  Machine& machine = *rig.machine;
  // Shared listening socket: every phi's stub listens on the one port and
  // the round-robin forwarding policy spreads connections evenly.
  const int per_phi = conns / kPhis;
  const int total = per_phi * kPhis;
  for (int i = 0; i < kPhis; ++i) {
    Spawn(machine.sim(),
          BenchEchoServer(&machine.net_stub(i), kPort, per_phi));
  }
  machine.sim().RunUntilIdle();

  Processor client_cpu(&machine.sim(), machine.host_device(), 256, 1.0,
                       "client");
  Condition go(&machine.sim());
  WaitGroup warm_wg(&machine.sim());
  WaitGroup done_wg(&machine.sim());
  Histogram latencies;
  for (int c = 0; c < total; ++c) {
    warm_wg.Add(1);
    done_wg.Add(1);
    Spawn(machine.sim(),
          StormClient(&machine.ethernet(), &client_cpu,
                      0x0a000000u + static_cast<uint32_t>(c),
                      &machine.sim(), &go, &warm_wg, &latencies, &done_wg));
  }
  // Warm phase: all connections established, one round trip each, then
  // every client parks on the barrier and the simulator goes idle.
  machine.sim().RunUntilIdle();
  CHECK_EQ(warm_wg.outstanding(), 0u);

  // Report the measured phase only, not connection setup.
  ResetTelemetry(machine);
  // Counters are process-global, so the measured phase works on deltas.
  const uint64_t doorbells0 = PlugDoorbells();
  const uint64_t events0 = PlugEvents();
  std::vector<uint64_t> delivered0;
  for (int i = 0; i < kPhis; ++i) {
    delivered0.push_back(machine.net_stub(i).messages_delivered());
  }
  const SimTime t0 = machine.sim().now();
  go.NotifyAll();
  machine.sim().RunUntilIdle();
  CHECK_EQ(done_wg.outstanding(), 0u);
  const SimTime elapsed = machine.sim().now() - t0;
  AppendTelemetryReport(std::string("storm/") + (batch ? "on" : "off"),
                        machine);

  StormResult result;
  result.conns = total;
  result.ops_per_sec =
      RateBps(static_cast<uint64_t>(total) * kMeasuredPings, elapsed);
  result.doorbells = PlugDoorbells() - doorbells0;
  const uint64_t events = PlugEvents() - events0;
  result.events_per_push =
      result.doorbells != 0
          ? static_cast<double>(events) / static_cast<double>(result.doorbells)
          : 0.0;
  result.p99_ns = latencies.ValueAtQuantile(0.99);
  uint64_t min_delivered = ~0ull;
  uint64_t sum_delivered = 0;
  for (int i = 0; i < kPhis; ++i) {
    const uint64_t d =
        machine.net_stub(i).messages_delivered() - delivered0[i];
    min_delivered = std::min(min_delivered, d);
    sum_delivered += d;
  }
  const double mean =
      static_cast<double>(sum_delivered) / static_cast<double>(kPhis);
  result.fairness =
      mean > 0.0 ? static_cast<double>(min_delivered) / mean : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E19 — connection storm at 100k-connection scale (extension)",
              "EuroSys'18 Solros §4.4 + DESIGN.md §5.5");
  const int conns = BenchQuickMode() ? 8192 : 102400;
  std::cout << "\n--- " << conns << " connections, " << kPhis << " phis, "
            << kProxyShards << " proxy shards, " << kMessageBytes
            << "B echo ---\n";
  TablePrinter table({"config", "conns", "ops/s", "doorbells", "ev/push",
                      "p99 us", "fair min/mean"});
  std::cout << "csv:\nconfig,conns,ops,doorbells,ev_per_push,p99_us,fairness\n";
  double fairness[2] = {};  // [0] batch off, [1] batch on
  for (bool batch : {false, true}) {
    StormResult r = RunStorm(batch, conns);
    fairness[batch ? 1 : 0] = r.fairness;
    const char* name = batch ? "batch-on" : "batch-off";
    table.AddRow({name, TablePrinter::Num(r.conns, 0),
                  TablePrinter::Num(r.ops_per_sec, 0),
                  TablePrinter::Num(static_cast<double>(r.doorbells), 0),
                  TablePrinter::Num(r.events_per_push, 2),
                  TablePrinter::Num(ToMicros(r.p99_ns), 1),
                  TablePrinter::Num(r.fairness, 3)});
    std::cout << name << "," << r.conns << ","
              << static_cast<uint64_t>(r.ops_per_sec) << "," << r.doorbells
              << "," << r.events_per_push << "," << ToMicros(r.p99_ns) << ","
              << r.fairness << "\n";
  }
  std::cout << "\n";
  EmitTable(table);
  std::cout << "\nshape: with one small request in flight per connection, "
               "per-socket coalescing merges little — the win is the "
               "vectored push amortizing the per-record ring doorbell and "
               "PCIe control transactions across connections, plus the "
               "pipelined per-plane dispatch. Per-phi fairness is "
            << TablePrinter::Num(fairness[0], 3) << " batch-off and "
            << TablePrinter::Num(fairness[1], 3)
            << " batch-on: round-robin forwarding spreads the connections "
               "evenly and each phi drains its own rings, with no fair "
               "queueing on either row.\n";
  FinishBench();
  return 0;
}
