// Host-side NVMe I/O scheduler: single-flight dedup, plugged batching,
// class priority, DRR fairness — each mechanism exercised with its flag on
// and off against the simulated device's doorbell/command accounting.
#include "src/fs/io_scheduler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/fs/buffer_cache.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

constexpr uint32_t kBs = 4096;

struct Rig {
  Simulator sim;
  HwParams params = HwParams::Default();
  PcieFabric fabric{&sim, params};
  DeviceId host = fabric.HostDevice(0);
  DeviceId nvme_id = fabric.AddDevice(DeviceType::kNvme, 0, "nvme0");
  Processor host_cpu{&sim, host, 48, 1.0, "host-cpu"};
  NvmeDevice nvme{&sim, &fabric, params, nvme_id, MiB(64), &host_cpu};
  NvmeBlockStore store{&nvme, &host_cpu};

  Rig() {
    Faults().DisarmAll();
    Prng prng(7);
    for (auto& b : nvme.RawFlash()) {
      b = static_cast<uint8_t>(prng.Next());
    }
  }
  ~Rig() { Faults().DisarmAll(); }

  const uint8_t* flash(uint64_t lba) const {
    return const_cast<Rig*>(this)->nvme.RawFlash().data() + lba * kBs;
  }
};

// One scheduled read; records its completion tag and status.
Task<void> TaggedRead(IoScheduler* sched, uint64_t lba, uint32_t nblocks,
                      std::span<uint8_t> out, IoClass cls, uint32_t client,
                      std::string tag, std::vector<std::string>* order,
                      std::vector<Status>* statuses, WaitGroup* wg) {
  Status status = co_await sched->Read(lba, nblocks, out, cls, client);
  order->push_back(std::move(tag));
  statuses->push_back(status);
  wg->Done();
}

Task<void> TaggedWrite(IoScheduler* sched, uint64_t lba, uint32_t nblocks,
                       std::span<const uint8_t> in, IoClass cls,
                       std::string tag, std::vector<std::string>* order,
                       std::vector<Status>* statuses, WaitGroup* wg) {
  const ConstBlockRun run{lba, nblocks, in};
  Status status = co_await sched->WriteV({&run, 1}, cls);
  order->push_back(std::move(tag));
  statuses->push_back(status);
  wg->Done();
}

Task<void> DelayedRead(Nanos delay, IoScheduler* sched, uint64_t lba,
                       std::span<uint8_t> out, WaitGroup* wg,
                       Status* status) {
  co_await Delay(delay);
  *status = co_await sched->Read(lba, 1, out);
  wg->Done();
}

Task<void> DelayedTaggedRead(Nanos delay, IoScheduler* sched, uint64_t lba,
                             std::span<uint8_t> out, std::string tag,
                             std::vector<std::string>* order,
                             std::vector<Status>* statuses, WaitGroup* wg) {
  co_await Delay(delay);
  Status s = co_await sched->Read(lba, 1, out);
  order->push_back(std::move(tag));
  statuses->push_back(s);
  wg->Done();
}

TEST(IoSchedulerTest, ConcurrentOverlappingReadsAreSingleFlight) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  constexpr int kCallers = 6;
  std::vector<std::vector<uint8_t>> bufs(kCallers,
                                         std::vector<uint8_t>(kBs));
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim, TaggedRead(&sched, 42, 1, bufs[i], IoClass::kDemand,
                              kIoSchedHostClient, "r" + std::to_string(i),
                              &order, &statuses, &wg));
  }
  rig.sim.RunUntilIdle();
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kCallers));
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  for (const auto& buf : bufs) {
    EXPECT_EQ(std::memcmp(buf.data(), rig.flash(42), kBs), 0);
  }
  // One command, one doorbell, one interrupt for all six callers.
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_EQ(rig.nvme.interrupts_raised(), 1u);
  EXPECT_EQ(sched.dedup_hits(), static_cast<uint64_t>(kCallers - 1));
}

TEST(IoSchedulerTest, LateArrivalAttachesToInflightFetch) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs), b(kBs);
  WaitGroup wg(&rig.sim);
  Status sa, sb;
  wg.Add(2);
  Spawn(rig.sim, DelayedRead(0, &sched, 7, a, &wg, &sa));
  // Arrives mid-flight: the plug window is 4us and the device takes ~80us,
  // so at 20us the fetch for LBA 7 is already at the device.
  Spawn(rig.sim, DelayedRead(Microseconds(20), &sched, 7, b, &wg, &sb));
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());
  EXPECT_EQ(std::memcmp(a.data(), rig.flash(7), kBs), 0);
  EXPECT_EQ(std::memcmp(b.data(), rig.flash(7), kBs), 0);
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(sched.dedup_hits(), 1u);
}

TEST(IoSchedulerTest, SharedFetchFailureFailsEveryWaiterCoherently) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  // Every attempt fails, so retries exhaust and the one shared fetch
  // reports an error to every caller attached to it.
  ASSERT_TRUE(Faults().Arm("nvme.cmd.fail", FaultSpec::EveryNth(1)).ok());
  constexpr int kCallers = 5;
  std::vector<std::vector<uint8_t>> bufs(kCallers,
                                         std::vector<uint8_t>(kBs));
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim, TaggedRead(&sched, 13, 1, bufs[i], IoClass::kDemand,
                              kIoSchedHostClient, "r" + std::to_string(i),
                              &order, &statuses, &wg));
  }
  rig.sim.RunUntilIdle();
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kCallers));
  for (const Status& s : statuses) {
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), statuses.front().code());
  }
  EXPECT_EQ(sched.dedup_hits(), static_cast<uint64_t>(kCallers - 1));
}

TEST(IoSchedulerTest, PlugWindowBatchesStaggeredArrivals) {
  auto doorbells_with_plug = [](bool plug) {
    Rig rig;
    IoSchedulerOptions options;
    if (!plug) {
      options.plug_window = 0;
    }
    IoScheduler sched(&rig.sim, &rig.store, options);
    std::vector<uint8_t> a(kBs), b(kBs);
    WaitGroup wg(&rig.sim);
    Status sa, sb;
    wg.Add(2);
    Spawn(rig.sim, DelayedRead(0, &sched, 100, a, &wg, &sa));
    // Inside the 4us plug window, far outside adjacency.
    Spawn(rig.sim,
          DelayedRead(Microseconds(1), &sched, 5000, b, &wg, &sb));
    rig.sim.RunUntilIdle();
    EXPECT_TRUE(sa.ok());
    EXPECT_TRUE(sb.ok());
    EXPECT_EQ(rig.nvme.commands_completed(), 2u);
    return rig.nvme.doorbells_rung();
  };
  // Plugged: both requests ride one submission (one doorbell). Unplugged:
  // the first dispatches alone, the second in its own later round.
  EXPECT_EQ(doorbells_with_plug(true), 1u);
  EXPECT_EQ(doorbells_with_plug(false), 2u);
}

TEST(IoSchedulerTest, AdjacentReadsMergeIntoOneCommand) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs), b(kBs);
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  wg.Add(2);
  Spawn(rig.sim, TaggedRead(&sched, 11, 1, b, IoClass::kDemand,
                            kIoSchedHostClient, "hi", &order, &statuses,
                            &wg));
  Spawn(rig.sim, TaggedRead(&sched, 10, 1, a, IoClass::kDemand,
                            kIoSchedHostClient, "lo", &order, &statuses,
                            &wg));
  rig.sim.RunUntilIdle();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(std::memcmp(a.data(), rig.flash(10), kBs), 0);
  EXPECT_EQ(std::memcmp(b.data(), rig.flash(11), kBs), 0);
  // LBA-sorted and merged: [10,12) is one two-block command.
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(sched.merges(), 1u);
}

TEST(IoSchedulerTest, AdjacentWritesMergeIntoOneCommand) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> a(kBs, 0xa1), b(kBs, 0xb2);
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  wg.Add(2);
  Spawn(rig.sim, TaggedWrite(&sched, 21, 1, b, IoClass::kWriteback, "hi",
                             &order, &statuses, &wg));
  Spawn(rig.sim, TaggedWrite(&sched, 20, 1, a, IoClass::kWriteback, "lo",
                             &order, &statuses, &wg));
  rig.sim.RunUntilIdle();
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(rig.flash(20)[0], 0xa1);
  EXPECT_EQ(rig.flash(21)[0], 0xb2);
  EXPECT_EQ(sched.merges(), 1u);
}

TEST(IoSchedulerTest, PriorityDispatchesDemandBeforeBackground) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  std::vector<uint8_t> ra(kBs), wb(kBs, 0x33), demand(kBs);
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  wg.Add(3);
  // Enqueued worst class first; strict priority must invert the order.
  Spawn(rig.sim, TaggedRead(&sched, 300, 1, ra, IoClass::kReadahead,
                            kIoSchedHostClient, "readahead", &order,
                            &statuses, &wg));
  Spawn(rig.sim, TaggedWrite(&sched, 200, 1, wb, IoClass::kWriteback,
                             "writeback", &order, &statuses, &wg));
  Spawn(rig.sim, TaggedRead(&sched, 100, 1, demand, IoClass::kDemand,
                            kIoSchedHostClient, "demand", &order, &statuses,
                            &wg));
  rig.sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 3u);
  // Strict priority inverts arrival order at dispatch: the demand read
  // (enqueued last) goes to the device in the first round and completes
  // before the readahead that arrived first. (Rounds pipeline, so the
  // writeback's completion order depends on device write latency — only
  // the two reads are comparable.)
  auto position = [&](const std::string& tag) {
    return std::find(order.begin(), order.end(), tag) - order.begin();
  };
  EXPECT_LT(position("demand"), position("readahead"));
  EXPECT_EQ(sched.dispatched(IoClass::kDemand), 1u);
  EXPECT_EQ(sched.dispatched(IoClass::kWriteback), 1u);
  EXPECT_EQ(sched.dispatched(IoClass::kReadahead), 1u);
  // Three strict class rounds, not one mixed batch.
  EXPECT_EQ(sched.batches(), 3u);
}

TEST(IoSchedulerTest, DrrFairnessInterleavesAStormingClient) {
  auto flood_position_of_victim = [](bool fairness) {
    Rig rig;
    IoSchedulerOptions options;
    options.fairness = fairness;
    options.drr_quantum_blocks = 1;
    options.plug_max_batch = 2;  // small rounds so interleaving is visible
    IoScheduler sched(&rig.sim, &rig.store, options);
    constexpr int kFlood = 8;
    std::vector<std::vector<uint8_t>> bufs(kFlood + 1,
                                           std::vector<uint8_t>(kBs));
    std::vector<std::string> order;
    std::vector<Status> statuses;
    WaitGroup wg(&rig.sim);
    for (int i = 0; i < kFlood; ++i) {
      wg.Add(1);
      Spawn(rig.sim, TaggedRead(&sched, 1000 + 2 * i, 1, bufs[i],
                                IoClass::kDemand, /*client=*/0,
                                "flood" + std::to_string(i), &order,
                                &statuses, &wg));
    }
    // The victim enqueues last, behind the whole flood.
    wg.Add(1);
    Spawn(rig.sim, TaggedRead(&sched, 9000, 1, bufs[kFlood],
                              IoClass::kDemand, /*client=*/1, "victim",
                              &order, &statuses, &wg));
    rig.sim.RunUntilIdle();
    for (const Status& s : statuses) {
      EXPECT_TRUE(s.ok());
    }
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == "victim") {
        return i;
      }
    }
    return order.size();
  };
  // DRR gives the victim a slot in the first round; FIFO makes it wait out
  // all eight flood requests.
  EXPECT_LT(flood_position_of_victim(true), 2u);
  EXPECT_EQ(flood_position_of_victim(false), 8u);
}

TEST(IoSchedulerTest, StallFaultDelaysButDrainsEveryRequest) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  ASSERT_TRUE(
      Faults().Arm("iosched.stall", FaultSpec::Probability(1.0)).ok());
  std::vector<std::vector<uint8_t>> bufs(12, std::vector<uint8_t>(kBs));
  std::vector<std::string> order;
  std::vector<Status> statuses;
  WaitGroup wg(&rig.sim);
  // Three staggered waves so stalls hit plugged and busy queues alike.
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 4; ++i) {
      int idx = wave * 4 + i;
      wg.Add(1);
      Spawn(rig.sim,
            DelayedTaggedRead(Microseconds(30) * wave, &sched, 50 + 3 * idx,
                              bufs[idx], std::to_string(idx), &order,
                              &statuses, &wg));
    }
  }
  rig.sim.RunUntilIdle();
  // No hang, no lost waiters: every request completed despite the stalls.
  ASSERT_EQ(statuses.size(), 12u);
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_GT(sched.stalls(), 0u);
  EXPECT_EQ(wg.outstanding(), 0u);
}

// Satellite regression: the named duplicate-fetch guarantee at the cache
// level. N concurrent GetBlock calls on one cold LBA => one device command
// and N satisfied callers; a fault on that one fetch fails all N.
Task<void> GetBlockInto(BufferCache* cache, uint64_t lba, int* ok_count,
                        int* fail_count, WaitGroup* wg) {
  auto ref = co_await cache->GetBlock(lba);
  if (ref.ok()) {
    ++*ok_count;
  } else {
    ++*fail_count;
  }
  wg->Done();
}

TEST(IoSchedulerTest, ConcurrentColdGetBlocksShareOneDeviceFetch) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  BufferCache cache(&rig.store, rig.host, /*capacity_blocks=*/32);
  cache.set_io_scheduler(&sched);
  constexpr int kCallers = 8;
  int ok_count = 0, fail_count = 0;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim, GetBlockInto(&cache, 77, &ok_count, &fail_count, &wg));
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(ok_count, kCallers);
  EXPECT_EQ(fail_count, 0);
  EXPECT_EQ(rig.nvme.commands_completed(), 1u);
  EXPECT_EQ(rig.nvme.doorbells_rung(), 1u);
  EXPECT_TRUE(cache.Contains(77));
  auto ref = RunSim(rig.sim, cache.GetBlock(77));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(std::memcmp(ref->span().data(), rig.flash(77), kBs), 0);
}

TEST(IoSchedulerTest, FaultedSharedGetBlockFetchFailsAllCallers) {
  Rig rig;
  IoScheduler sched(&rig.sim, &rig.store);
  BufferCache cache(&rig.store, rig.host, /*capacity_blocks=*/32);
  cache.set_io_scheduler(&sched);
  ASSERT_TRUE(Faults().Arm("nvme.cmd.fail", FaultSpec::EveryNth(1)).ok());
  constexpr int kCallers = 8;
  int ok_count = 0, fail_count = 0;
  WaitGroup wg(&rig.sim);
  for (int i = 0; i < kCallers; ++i) {
    wg.Add(1);
    Spawn(rig.sim, GetBlockInto(&cache, 77, &ok_count, &fail_count, &wg));
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(ok_count, 0);
  EXPECT_EQ(fail_count, kCallers);
  EXPECT_FALSE(cache.Contains(77));
}

}  // namespace
}  // namespace solros
