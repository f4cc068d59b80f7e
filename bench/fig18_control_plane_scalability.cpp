// E18 — control-plane scalability (§6.3; reconstructed).
//
// The control-plane OS serves every data plane; this experiment storms it
// with small file-system RPCs (stat + 4 KB reads) from 1..4 co-processors
// with increasing per-co-processor concurrency and reports aggregate
// RPCs/second. The paper's point: one host-side proxy with fast cores
// scales across multiple data planes.
//
// Since the host-side I/O scheduler the table also reports the device-side
// control-plane cost of each configuration — NVMe commands, doorbells and
// interrupts — because the scheduler's whole job is to keep that column
// flat while RPC concurrency grows. Two extra sections isolate it:
//   storm    4 phis x 8 workers of concurrent buffered reads over one
//            shared file region, scheduler on vs off. Dedup + plugging
//            must cut doorbells+interrupts >= 2x at equal-or-better
//            aggregate RPC/s (CI gates on the CSV rows).
//   skewed   one co-processor floods the scheduler while three victims
//            trickle sequential reads until a sim-time deadline; the
//            min/max per-phi completed-ops columns compare the victims'
//            floor with iosched DRR fairness on and off, and the shape
//            line, computed from those rows, says whether DRR raised it.
//   shards   the same storm with the control plane sharded across 1, 2,
//            and 4 pinned host cores (proxy_shards); RPC/s must scale
//            >= 1.6x at 2 shards and >= 2.5x at 4 (CI gates the CSV).
#include <array>
#include <iostream>

#include "bench/bench_util.h"
#include "bench/fs_workload.h"
#include "src/fs/io_scheduler.h"

using namespace solros;

namespace {

struct DeviceCost {
  uint64_t commands = 0;
  uint64_t doorbells = 0;
  uint64_t interrupts = 0;
};

DeviceCost SnapshotCost(const Machine& machine) {
  const NvmeDevice& nvme = const_cast<Machine&>(machine).nvme();
  return {nvme.commands_completed(), nvme.doorbells_rung(),
          nvme.interrupts_raised()};
}

DeviceCost CostSince(const Machine& machine, const DeviceCost& t0) {
  DeviceCost now = SnapshotCost(machine);
  return {now.commands - t0.commands, now.doorbells - t0.doorbells,
          now.interrupts - t0.interrupts};
}

struct RunStats {
  double krpcs = 0;
  DeviceCost cost;
  std::vector<uint64_t> per_phi_ops;
};

MachineConfig StormConfig(int phis) {
  MachineConfig config;
  config.num_phis = phis;
  config.nvme_capacity = MiB(256);
  config.enable_network = false;
  return config;
}

// --- section 1: the original E18 matrix, now with device-cost columns ---

Task<void> StormWorker(FsStub* stub, DeviceId device, uint64_t ino, int ops,
                       uint64_t seed, WaitGroup* wg) {
  Prng prng(seed);
  DeviceBuffer buffer(device, KiB(4));
  for (int i = 0; i < ops; ++i) {
    if (i % 2 == 0) {
      auto stat = co_await stub->Stat("/storm");
      CHECK_OK(stat);
    } else {
      uint64_t offset = prng.NextBelow(MiB(16) / KiB(4)) * KiB(4);
      auto n = co_await stub->Read(ino, offset, MemRef::Of(buffer));
      CHECK_OK(n);
    }
  }
  wg->Done();
}

RunStats RunMatrix(int phis, int workers_per_phi) {
  Machine machine(StormConfig(phis));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(16)));
  CHECK_OK(ino);

  const int kOps = 40;
  WaitGroup wg(&machine.sim());
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  for (int p = 0; p < phis; ++p) {
    for (int w = 0; w < workers_per_phi; ++w) {
      wg.Add(1);
      Spawn(machine.sim(),
            StormWorker(&machine.fs_stub(p), machine.phi_device(p), *ino,
                        kOps, p * 1000 + w, &wg));
    }
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  RunStats stats;
  uint64_t rpcs = uint64_t{static_cast<uint64_t>(phis)} * workers_per_phi *
                  kOps;
  stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  stats.cost = CostSince(machine, c0);
  return stats;
}

void PrintMatrix() {
  std::cout << "--- RPC scalability (stat + 4KB random reads) ---\n";
  TablePrinter table({"phis", "workers/phi", "kRPC/s", "nvme cmds",
                      "doorbells", "interrupts"});
  std::vector<int> worker_counts =
      BenchQuickMode() ? std::vector<int>{1, 8} : std::vector<int>{1, 4, 16,
                                                                   61};
  std::vector<int> phi_counts =
      BenchQuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
  for (int phis : phi_counts) {
    for (int workers : worker_counts) {
      RunStats s = RunMatrix(phis, workers);
      table.AddRow({std::to_string(phis), std::to_string(workers),
                    TablePrinter::Num(s.krpcs, 1),
                    std::to_string(s.cost.commands),
                    std::to_string(s.cost.doorbells),
                    std::to_string(s.cost.interrupts)});
    }
  }
  EmitTable(table);
}

// --- section 2: shared-region read storm, scheduler on vs off ---

Task<void> SharedReadWorker(FsStub* stub, DeviceId device, uint64_t ino,
                            int ops, uint64_t* completed, WaitGroup* wg) {
  DeviceBuffer buffer(device, KiB(4));
  for (int i = 0; i < ops; ++i) {
    auto n = co_await stub->Read(ino, uint64_t{static_cast<uint64_t>(i)} *
                                          KiB(4),
                                 MemRef::Of(buffer));
    CHECK_OK(n);
    ++*completed;
  }
  wg->Done();
}

RunStats RunSharedStorm(bool iosched) {
  constexpr int kPhis = 4;
  constexpr int kWorkers = 8;
  constexpr int kOps = 40;
  MachineConfig config = StormConfig(kPhis);
  config.fs_options.iosched = iosched;
  MaybeEnableTelemetry(config);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(16)));
  CHECK_OK(ino);
  // Buffered mode: every 4KB read goes through the shared cache and (when
  // enabled) the scheduler, instead of P2P straight to phi memory.
  for (int p = 0; p < kPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
  }

  RunStats stats;
  stats.per_phi_ops.assign(kPhis, 0);
  WaitGroup wg(&machine.sim());
  // Report the storm itself, not the nvme-bound workload-file prep above.
  ResetTelemetry(machine);
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  for (int p = 0; p < kPhis; ++p) {
    for (int w = 0; w < kWorkers; ++w) {
      wg.Add(1);
      Spawn(machine.sim(),
            SharedReadWorker(&machine.fs_stub(p), machine.phi_device(p),
                             *ino, kOps, &stats.per_phi_ops[p], &wg));
    }
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  uint64_t rpcs = uint64_t{kPhis} * kWorkers * kOps;
  stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  stats.cost = CostSince(machine, c0);
  AppendTelemetryReport(
      iosched ? "shared-storm/iosched-on" : "shared-storm/iosched-off",
      machine);
  return stats;
}

void PrintStorm() {
  std::cout << "\n--- buffered read storm: 4 phis x 8 workers over one "
               "shared 160KB region ---\n";
  RunStats on = RunSharedStorm(true);
  RunStats off = RunSharedStorm(false);
  TablePrinter table({"config", "kRPC/s", "nvme cmds", "doorbells",
                      "interrupts"});
  table.AddRow({"iosched-on", TablePrinter::Num(on.krpcs, 1),
                std::to_string(on.cost.commands),
                std::to_string(on.cost.doorbells),
                std::to_string(on.cost.interrupts)});
  table.AddRow({"iosched-off", TablePrinter::Num(off.krpcs, 1),
                std::to_string(off.cost.commands),
                std::to_string(off.cost.doorbells),
                std::to_string(off.cost.interrupts)});
  EmitTable(table);
  double reduction =
      static_cast<double>(off.cost.doorbells + off.cost.interrupts) /
      std::max<uint64_t>(on.cost.doorbells + on.cost.interrupts, 1);
  std::cout << "doorbell+interrupt reduction: "
            << TablePrinter::Num(reduction, 1)
            << "x (single-flight dedup + plugged batching)\n";
}

// --- section 3: skewed storm, DRR fairness on vs off ---

Task<void> SkewWorker(Simulator* sim, FsStub* stub, DeviceId device,
                      uint64_t ino, uint64_t slice_start_block,
                      uint64_t slice_blocks, SimTime deadline,
                      uint64_t* completed, WaitGroup* wg) {
  DeviceBuffer buffer(device, KiB(4));
  uint64_t i = 0;
  while (sim->now() < deadline) {
    uint64_t block = slice_start_block + (i % slice_blocks);
    auto n = co_await stub->Read(ino, block * KiB(4), MemRef::Of(buffer));
    CHECK_OK(n);
    ++*completed;
    ++i;
  }
  wg->Done();
}

RunStats RunSkewedStorm(bool fairness) {
  constexpr int kPhis = 4;
  // Enough flood concurrency that phi0's backlog always exceeds the
  // scheduler's dispatch capacity (max_inflight_batches rounds of
  // plug_max_batch) — the queue never drains, so a victim arrival always
  // finds flood requests ahead of it and the policy choice is visible.
  constexpr int kFloodWorkers = 48;
  constexpr int kVictimWorkers = 2;
  MachineConfig config = StormConfig(kPhis);
  config.fs_options.iosched_fairness = fairness;
  // Make scheduler rounds scarce so queueing order is visible: no
  // readahead (every miss is a 1-block demand request) and small batches
  // (the flood alone overflows a round, so FIFO starves the victims while
  // DRR interleaves them).
  config.fs_options.readahead = false;
  config.fs_options.iosched_plug_max_batch = 4;
  config.fs_options.iosched_drr_quantum = 8;
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(64)));
  CHECK_OK(ino);
  for (int p = 0; p < kPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
  }

  // Disjoint cold sub-slices per *worker* so every read is a distinct
  // demand miss that must queue at the scheduler. (A shared slice would
  // collapse the whole flood into one single-flight stream and hide the
  // fairness question entirely.)
  constexpr uint64_t kSliceBlocks = MiB(16) / KiB(4);
  RunStats stats;
  stats.per_phi_ops.assign(kPhis, 0);
  WaitGroup wg(&machine.sim());
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  SimTime deadline =
      t0 + (BenchQuickMode() ? Milliseconds(10) : Milliseconds(30));
  for (int p = 0; p < kPhis; ++p) {
    int workers = (p == 0) ? kFloodWorkers : kVictimWorkers;
    const uint64_t sub_blocks = kSliceBlocks / workers;
    for (int w = 0; w < workers; ++w) {
      wg.Add(1);
      Spawn(machine.sim(),
            SkewWorker(&machine.sim(), &machine.fs_stub(p),
                       machine.phi_device(p), *ino,
                       uint64_t{static_cast<uint64_t>(p)} * kSliceBlocks +
                           uint64_t{static_cast<uint64_t>(w)} * sub_blocks,
                       sub_blocks, deadline, &stats.per_phi_ops[p], &wg));
    }
  }
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  uint64_t rpcs = 0;
  for (uint64_t ops : stats.per_phi_ops) {
    rpcs += ops;
  }
  stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  stats.cost = CostSince(machine, c0);
  return stats;
}

void PrintSkewed() {
  std::cout << "\n--- skewed storm: phi0 floods (48 workers), 3 victims "
               "trickle until a deadline ---\n";
  TablePrinter table({"config", "kRPC/s", "total ops", "min phi ops",
                      "max phi ops"});
  struct Row {
    uint64_t total = 0;
    uint64_t lo = 0;
    double even_share = 0;  // total / phis
  };
  Row rows[2];  // [0] fairness on, [1] fairness off
  for (bool fairness : {true, false}) {
    RunStats s = RunSkewedStorm(fairness);
    uint64_t total = 0;
    uint64_t lo = s.per_phi_ops[0];
    uint64_t hi = s.per_phi_ops[0];
    for (uint64_t ops : s.per_phi_ops) {
      total += ops;
      lo = std::min(lo, ops);
      hi = std::max(hi, ops);
    }
    rows[fairness ? 0 : 1] = {
        total, lo,
        static_cast<double>(total) /
            static_cast<double>(s.per_phi_ops.size())};
    table.AddRow({fairness ? "fairness-on" : "fairness-off",
                  TablePrinter::Num(s.krpcs, 1), std::to_string(total),
                  std::to_string(lo), std::to_string(hi)});
  }
  EmitTable(table);
  // Computed from the rows above, so the sentence cannot drift from them.
  const Row& on = rows[0];
  const Row& off = rows[1];
  std::cout << "shape: the victims' min per-phi ops is " << on.lo
            << " with DRR fairness and " << off.lo << " without ("
            << TablePrinter::Num(100.0 * static_cast<double>(on.lo) /
                                     std::max(on.even_share, 1.0),
                                 0)
            << "% of an even split with it on); ";
  if (on.lo > off.lo) {
    std::cout << "DRR fairness raises the victims' floor.\n";
  } else if (on.lo == off.lo && on.total == off.total) {
    std::cout << "the rows are identical, so DRR at the I/O scheduler "
                 "changes nothing in this storm.\n";
  } else {
    std::cout << "DRR fairness does not raise the victims' floor.\n";
  }
}

// --- section 4: proxy-shard scaling storm ---

Task<void> ShardStormWorker(FsStub* stub, DeviceId device, uint64_t ino,
                            uint64_t start, int ops, uint64_t* completed,
                            WaitGroup* wg) {
  DeviceBuffer buffer(device, KiB(4));
  for (int i = 0; i < ops; ++i) {
    auto n = co_await stub->Read(
        ino, start + uint64_t{static_cast<uint64_t>(i)} * KiB(4),
        MemRef::Of(buffer));
    CHECK_OK(n);
    ++*completed;
  }
  wg->Done();
}

struct ShardRun {
  RunStats stats;
  std::vector<uint64_t> per_shard_reqs;
};

ShardRun RunShardStorm(int shards) {
  constexpr int kPhis = 4;
  constexpr int kWorkers = 8;
  constexpr int kOps = 40;
  MachineConfig config = StormConfig(kPhis);
  config.proxy_shards = shards;
  // Testbed-shaped placement: phis across both sockets, matching the
  // shard cores (which stripe across sockets) and their DMA paths.
  config.phi_sockets = {0, 1, 0, 1};
  MaybeEnableTelemetry(config);
  Machine machine(std::move(config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/storm", MiB(16)));
  CHECK_OK(ino);
  // Buffered mode so every RPC runs the full per-shard stack (ring, cache
  // segment, scheduler) on the shard's pinned core.
  for (int p = 0; p < kPhis; ++p) {
    machine.fs_stub(p).set_buffered(true);
  }

  ShardRun run;
  run.stats.per_phi_ops.assign(kPhis, 0);
  // Two passes over distinct 160KB sub-regions per worker (the block-group
  // partition spreads the 32 streams across shards instead of collapsing
  // them onto one stripe). The first pass warms each shard's cache segment
  // from the SSD; only the second, hit-dominated pass is measured — the
  // control-plane cost is the point here, not the device.
  auto spawn_pass = [&](WaitGroup* wg) {
    for (int p = 0; p < kPhis; ++p) {
      for (int w = 0; w < kWorkers; ++w) {
        uint64_t id = uint64_t{static_cast<uint64_t>(p)} * kWorkers + w;
        wg->Add(1);
        Spawn(machine.sim(),
              ShardStormWorker(&machine.fs_stub(p), machine.phi_device(p),
                               *ino, id * kOps * KiB(4), kOps,
                               &run.stats.per_phi_ops[p], wg));
      }
    }
  };
  WaitGroup warm(&machine.sim());
  spawn_pass(&warm);
  machine.sim().RunUntilIdle();
  CHECK_EQ(warm.outstanding(), 0u);

  std::vector<uint64_t> reqs0;
  for (int k = 0; k < machine.proxy_shards(); ++k) {
    reqs0.push_back(machine.fs_proxy_shard(k).stats().requests);
  }
  WaitGroup wg(&machine.sim());
  ResetTelemetry(machine);
  DeviceCost c0 = SnapshotCost(machine);
  SimTime t0 = machine.sim().now();
  spawn_pass(&wg);
  machine.sim().RunUntilIdle();
  CHECK_EQ(wg.outstanding(), 0u);
  uint64_t rpcs = uint64_t{kPhis} * kWorkers * kOps;
  run.stats.krpcs = rpcs / ToSeconds(machine.sim().now() - t0) / 1e3;
  run.stats.cost = CostSince(machine, c0);
  for (int k = 0; k < machine.proxy_shards(); ++k) {
    run.per_shard_reqs.push_back(
        machine.fs_proxy_shard(k).stats().requests - reqs0[k]);
  }
  AppendTelemetryReport("shard-storm/shards=" + std::to_string(shards),
                        machine);
  return run;
}

void PrintShardScaling() {
  std::cout << "\n--- proxy-shard scaling: same storm, control plane "
               "sharded across pinned cores ---\n";
  TablePrinter table({"config", "kRPC/s", "speedup", "shard max/mean",
                      "nvme cmds"});
  double base = 0;
  for (int shards : {1, 2, 4}) {
    ShardRun run = RunShardStorm(shards);
    if (shards == 1) {
      base = run.stats.krpcs;
    }
    uint64_t total = 0;
    uint64_t hi = 0;
    for (uint64_t reqs : run.per_shard_reqs) {
      total += reqs;
      hi = std::max(hi, reqs);
    }
    double mean =
        static_cast<double>(total) / std::max<size_t>(run.per_shard_reqs.size(), 1);
    table.AddRow({"shards=" + std::to_string(shards),
                  TablePrinter::Num(run.stats.krpcs, 1),
                  TablePrinter::Num(run.stats.krpcs / base, 2),
                  TablePrinter::Num(mean > 0 ? hi / mean : 0, 2),
                  std::to_string(run.stats.cost.commands)});
  }
  EmitTable(table);
  std::cout << "shape: RPC/s scales near-linearly with shards because each "
               "shard's full FS stack is serialized on its own pinned core; "
               "max/mean per-shard requests near 1.0 shows the inode-range "
               "+ block-group partition balancing the streams.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E18 — control-plane RPC scalability (reconstructed)",
              "EuroSys'18 Solros §6.3");
  PrintMatrix();
  PrintStorm();
  PrintSkewed();
  PrintShardScaling();
  std::cout << "\nshape: aggregate RPC/s grows with data planes and "
               "per-plane concurrency until host cores or the SSD "
               "saturate — the control plane itself is not the "
               "bottleneck.\n";
  FinishBench();
  return 0;
}
