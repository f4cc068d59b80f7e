#include "src/sim/resource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

Task<void> UseFor(FifoResource* res, Nanos d, std::vector<SimTime>* ends) {
  Simulator* sim = co_await CurrentSimulator();
  co_await res->Use(d);
  ends->push_back(sim->now());
}

TEST(FifoResourceTest, SerializesConcurrentUsers) {
  Simulator sim;
  FifoResource res(&sim, "disk");
  std::vector<SimTime> ends;
  for (int i = 0; i < 3; ++i) {
    Spawn(sim, UseFor(&res, Microseconds(10), &ends));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0], Microseconds(10));
  EXPECT_EQ(ends[1], Microseconds(20));
  EXPECT_EQ(ends[2], Microseconds(30));
  EXPECT_EQ(res.total_busy_time(), Microseconds(30));
  EXPECT_EQ(res.use_count(), 3u);
}

TEST(FifoResourceTest, IdleGapsDoNotAccumulate) {
  Simulator sim;
  FifoResource res(&sim);
  std::vector<SimTime> ends;
  auto late_user = [](FifoResource* r, std::vector<SimTime>* e) -> Task<void> {
    co_await Delay(Microseconds(100));
    Simulator* sim = co_await CurrentSimulator();
    co_await r->Use(Microseconds(5));
    e->push_back(sim->now());
  };
  Spawn(sim, UseFor(&res, Microseconds(10), &ends));
  Spawn(sim, late_user(&res, &ends));
  sim.RunUntilIdle();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], Microseconds(10));
  EXPECT_EQ(ends[1], Microseconds(105));  // starts fresh at 100
}

Task<void> UseMulti(MultiServerResource* res, Nanos d,
                    std::vector<SimTime>* ends) {
  Simulator* sim = co_await CurrentSimulator();
  co_await res->Use(d);
  ends->push_back(sim->now());
}

TEST(MultiServerResourceTest, ParallelismUpToServerCount) {
  Simulator sim;
  MultiServerResource res(&sim, 4, "dma");
  std::vector<SimTime> ends;
  for (int i = 0; i < 8; ++i) {
    Spawn(sim, UseMulti(&res, Microseconds(10), &ends));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(ends.size(), 8u);
  // First four finish at 10us, next four at 20us.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ends[i], Microseconds(10));
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(ends[i], Microseconds(20));
  }
}

Task<void> UseAndRecord(MultiServerResource* res, Nanos d, SimTime* end) {
  Simulator* sim = co_await CurrentSimulator();
  co_await res->Use(d);
  *end = sim->now();
}

// Starts user i at arrivals[i] (non-decreasing), in index order.
Task<void> Arrivals(Simulator* sim, MultiServerResource* res,
                    const std::vector<SimTime>* arrivals,
                    const std::vector<Nanos>* durations,
                    std::vector<SimTime>* ends) {
  for (size_t i = 0; i < arrivals->size(); ++i) {
    if ((*arrivals)[i] > sim->now()) {
      co_await Delay((*arrivals)[i] - sim->now());
    }
    Spawn(*sim, UseAndRecord(res, (*durations)[i], &(*ends)[i]));
  }
}

// The heap-ordered server pick must resume every user at exactly the time
// a k-way linear scan for the earliest-free server gives, on a Xeon Phi's
// 244 hardware threads under both light and overloaded bursts.
TEST(MultiServerResourceTest, HeapPickMatchesLinearScanModel) {
  constexpr size_t kServers = 244;
  constexpr size_t kUsers = 6000;
  for (uint64_t seed : {1, 2, 3, 4}) {
    Prng prng(seed);
    std::vector<SimTime> arrivals(kUsers);
    std::vector<Nanos> durations(kUsers);
    SimTime t = 0;
    for (size_t i = 0; i < kUsers; ++i) {
      // Bursts of same-time arrivals, and durations whose mean load swings
      // between about half and twice the server count by seed.
      t += prng.NextBool(0.3) ? 0 : prng.NextBelow(200);
      arrivals[i] = t;
      durations[i] = 1 + prng.NextBelow(seed * 20000);
    }

    std::vector<SimTime> model_busy(kServers, 0);
    std::vector<SimTime> expected(kUsers);
    for (size_t i = 0; i < kUsers; ++i) {
      size_t best = 0;
      for (size_t s = 1; s < kServers; ++s) {
        if (model_busy[s] < model_busy[best]) {
          best = s;
        }
      }
      const SimTime start = std::max(arrivals[i], model_busy[best]);
      model_busy[best] = start + durations[i];
      expected[i] = model_busy[best];
    }

    Simulator sim;
    MultiServerResource res(&sim, kServers);
    std::vector<SimTime> ends(kUsers, 0);
    Spawn(sim, Arrivals(&sim, &res, &arrivals, &durations, &ends));
    sim.RunUntilIdle();
    EXPECT_EQ(ends, expected) << "seed " << seed;
    EXPECT_EQ(res.use_count(), kUsers);
  }
}

TEST(BandwidthResourceTest, TransferTimeMatchesRate) {
  Simulator sim;
  BandwidthResource link(&sim, GBps(1), /*latency=*/0, "pcie");
  RunSim(sim, link.Transfer(MiB(1)));
  // 1 MiB at 1 GB/s = 1048576 ns.
  EXPECT_EQ(sim.now(), 1048576u);
  EXPECT_EQ(link.bytes_moved(), MiB(1));
}

TEST(BandwidthResourceTest, LatencyAddsAfterTransfer) {
  Simulator sim;
  BandwidthResource link(&sim, GBps(1), Microseconds(5));
  RunSim(sim, link.Transfer(1000));
  EXPECT_EQ(sim.now(), 1000u + Microseconds(5));
  EXPECT_EQ(link.TimeFor(1000), 1000u + Microseconds(5));
}

Task<void> TransferTask(BandwidthResource* link, uint64_t bytes,
                        WaitGroup* wg) {
  co_await link->Transfer(bytes);
  wg->Done();
}

TEST(BandwidthResourceTest, ConcurrentTransfersShareLink) {
  Simulator sim;
  BandwidthResource link(&sim, MBps(100));
  WaitGroup wg(&sim);
  for (int i = 0; i < 10; ++i) {
    wg.Add(1);
    Spawn(sim, TransferTask(&link, 1'000'000, &wg));
  }
  sim.RunUntilIdle();
  // 10 MB total at 100 MB/s = 100 ms regardless of interleaving.
  EXPECT_EQ(sim.now(), Milliseconds(100));
  EXPECT_EQ(wg.outstanding(), 0u);
}

TEST(BandwidthResourceTest, ZeroByteTransferIsFree) {
  Simulator sim;
  BandwidthResource link(&sim, GBps(1));
  RunSim(sim, link.Transfer(0));
  EXPECT_EQ(sim.now(), 0u);
}

}  // namespace
}  // namespace solros
