// Per-plane isolation of the proxy's pipelined outbound dispatch
// (NetPathOptions::drr_dispatch): every data plane has its own outbound
// ring, feeder, claim channel and worker, so one co-processor's outbound
// backlog never queues in front of another co-processor's replies. That
// property is why no fair-queueing arbiter sits on top of the planes. (The
// shard cores are shared; the test keeps the two planes' connections on
// different shards so that only the dispatch structure is under test.)
#include <gtest/gtest.h>

#include <vector>

#include "src/base/histogram.h"
#include "src/base/sharding.h"
#include "src/core/machine.h"
#include "src/sim/sync.h"

namespace solros {
namespace {

constexpr uint16_t kFloodPort = 7100;
constexpr uint16_t kVictimPort = 7200;
constexpr int kShards = 2;
constexpr int kFloodConns = 16;
constexpr int kFloodDepth = 8;
constexpr uint32_t kFloodBytes = 1024;
constexpr int kVictimPings = 40;

Task<void> EchoConnection(ServerSocketApi* api, int64_t sock) {
  while (true) {
    auto message = co_await api->Recv(sock);
    if (!message.ok() || !(co_await api->Send(sock, *message)).ok()) {
      break;
    }
  }
}

// Echoes on every connection it accepts, each on its own task.
Task<void> EchoServer(Simulator* sim, ServerSocketApi* api, uint16_t port) {
  auto listener = co_await api->Listen(port, 256);
  CHECK_OK(listener);
  while (true) {
    auto sock = co_await api->Accept(*listener);
    CHECK_OK(sock);
    Spawn(*sim, EchoConnection(api, *sock));
  }
}

// Keeps kFloodDepth echoes in flight on one connection until *stop.
Task<void> FloodClient(EthernetFabric* eth, Processor* cpu, uint64_t conn,
                       const bool* stop, uint64_t* round_trips,
                       WaitGroup* wg) {
  std::vector<uint8_t> payload(kFloodBytes, 0xf1);
  while (!*stop) {
    for (int i = 0; i < kFloodDepth; ++i) {
      CHECK_OK(co_await eth->ClientSend(conn, payload, cpu));
    }
    for (int i = 0; i < kFloodDepth; ++i) {
      CHECK_OK(co_await eth->ClientRecv(conn));
      ++*round_trips;
    }
  }
  co_await eth->ClientClose(conn, cpu);
  wg->Done();
}

// One connection, sequential 64 B echoes spaced out so each measures an
// otherwise idle round trip of its own plane.
Task<void> VictimClient(EthernetFabric* eth, Processor* cpu, uint64_t conn,
                        Simulator* sim, Histogram* latencies, bool* stop,
                        WaitGroup* wg) {
  std::vector<uint8_t> payload(64, 0x5a);
  for (int i = 0; i < kVictimPings; ++i) {
    co_await Delay(Microseconds(20));
    const SimTime t0 = sim->now();
    CHECK_OK(co_await eth->ClientSend(conn, payload, cpu));
    CHECK_OK(co_await eth->ClientRecv(conn));
    latencies->Record(sim->now() - t0);
  }
  *stop = true;
  co_await eth->ClientClose(conn, cpu);
  wg->Done();
}

struct IsolationRun {
  Histogram victim;
  uint64_t flood_round_trips = 0;
  Nanos elapsed = 0;
};

// phi0 serves the flood, phi1 the victim. With two proxy shards the
// planes' socket RPCs land on different shard cores, and the flood uses
// only connections hashed away from the victim's shard, so the planes
// share no proxy core: any cross-plane delay would come from dispatch.
IsolationRun RunIsolation(bool flood) {
  MachineConfig config;
  config.num_phis = 2;
  config.nvme_capacity = MiB(64);
  config.proxy_shards = kShards;
  config.net_options.drr_dispatch = true;
  Machine machine(std::move(config));
  Simulator& sim = machine.sim();
  Spawn(sim, EchoServer(&sim, &machine.net_stub(0), kFloodPort));
  Spawn(sim, EchoServer(&sim, &machine.net_stub(1), kVictimPort));
  sim.RunUntilIdle();

  Processor client(&sim, machine.host_device(), 64, 1.0, "cl");
  EthernetFabric* eth = &machine.ethernet();
  auto victim_conn =
      RunSim(sim, eth->ClientConnect(0x0a000001u, kVictimPort, &client));
  CHECK_OK(victim_conn);
  const int victim_shard = ShardOfConnection(*victim_conn, kShards);
  std::vector<uint64_t> flood_conns;
  for (uint32_t addr = 0x0a000100u;
       flood && static_cast<int>(flood_conns.size()) < kFloodConns;
       ++addr) {
    auto conn = RunSim(sim, eth->ClientConnect(addr, kFloodPort, &client));
    CHECK_OK(conn);
    if (ShardOfConnection(*conn, kShards) == victim_shard) {
      RunSim(sim, eth->ClientClose(*conn, &client));
      continue;
    }
    flood_conns.push_back(*conn);
  }

  IsolationRun run;
  bool stop = false;
  WaitGroup wg(&sim);
  for (uint64_t conn : flood_conns) {
    wg.Add(1);
    Spawn(sim, FloodClient(eth, &client, conn, &stop,
                           &run.flood_round_trips, &wg));
  }
  wg.Add(1);
  const SimTime t0 = sim.now();
  Spawn(sim, VictimClient(eth, &client, *victim_conn, &sim, &run.victim,
                          &stop, &wg));
  sim.RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  run.elapsed = sim.now() - t0;
  return run;
}

TEST(PlaneIsolationTest, FloodedPlaneDoesNotDelayAnotherPlanesReplies) {
  const IsolationRun idle = RunIsolation(/*flood=*/false);
  const IsolationRun loaded = RunIsolation(/*flood=*/true);
  ASSERT_EQ(idle.victim.count(), static_cast<uint64_t>(kVictimPings));
  ASSERT_EQ(loaded.victim.count(), static_cast<uint64_t>(kVictimPings));
  // The flood really loaded its plane: it stayed in flight for the whole
  // victim run, and each pipelined round took far longer than an idle
  // round trip.
  ASSERT_GT(loaded.flood_round_trips, 0u);
  const double flood_round_ns =
      static_cast<double>(loaded.elapsed) * kFloodConns * kFloodDepth /
      static_cast<double>(loaded.flood_round_trips);
  EXPECT_GT(flood_round_ns, 5.0 * static_cast<double>(idle.victim.max()))
      << "flood round=" << flood_round_ns
      << " idle max=" << idle.victim.max();
  // ...while the other plane's single connection kept its idle latency.
  const double idle_p50 = static_cast<double>(idle.victim.ValueAtQuantile(0.5));
  const double loaded_p50 =
      static_cast<double>(loaded.victim.ValueAtQuantile(0.5));
  EXPECT_LE(loaded_p50, 1.10 * idle_p50)
      << "idle p50=" << idle_p50 << " loaded p50=" << loaded_p50;
  EXPECT_LE(static_cast<double>(loaded.victim.max()),
            1.25 * static_cast<double>(idle.victim.max()))
      << "idle max=" << idle.victim.max()
      << " loaded max=" << loaded.victim.max();
}

}  // namespace
}  // namespace solros
