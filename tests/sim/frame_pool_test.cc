#include "src/sim/frame_pool.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <thread>
#include <utility>

#include "src/base/prng.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {
namespace {

// Yields the awaiting coroutine's frame address without suspending.
struct FrameAddress {
  void* address = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> handle) {
    address = handle.address();
    return false;
  }
  void* await_resume() const noexcept { return address; }
};

Task<void> RecordFrame(void** out) { *out = co_await FrameAddress{}; }

TEST(FramePoolTest, SameSizeFrameReusesFreedAddress) {
  Simulator sim;
  void* first = nullptr;
  void* second = nullptr;
  Spawn(sim, RecordFrame(&first));
  sim.RunUntilIdle();  // the detached task frees its frame on completion
  Spawn(sim, RecordFrame(&second));
  sim.RunUntilIdle();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);
}

TEST(FramePoolTest, SizesInOneClassShareFreedChunks) {
  void* a = FramePool::Allocate(193);
  FramePool::Free(a, 193);
  void* b = FramePool::Allocate(256);  // same 64-byte class: 193..256
  EXPECT_EQ(a, b);
  FramePool::Free(b, 256);
}

// Parks `bytes` of frame-resident locals on `gate` until it is notified.
template <size_t kBytes>
Task<void> HoldFrame(Condition* gate, uint64_t* checksum) {
  volatile char locals[kBytes];
  locals[0] = 1;
  locals[kBytes - 1] = 2;
  co_await gate->Wait();
  *checksum += locals[0] + locals[kBytes - 1];
}

// Keeps `count` frames with kBytes of locals alive at once and returns how
// many slabs the pool took meanwhile.
template <size_t kBytes>
size_t SlabsTakenByLiveFrames(int count) {
  Simulator sim;
  Condition gate(&sim);
  uint64_t checksum = 0;
  const size_t slabs_before = FramePool::slab_count();
  for (int i = 0; i < count; ++i) {
    Spawn(sim, HoldFrame<kBytes>(&gate, &checksum));
  }
  sim.RunUntilIdle();
  const size_t taken = FramePool::slab_count() - slabs_before;
  gate.NotifyAll();
  sim.RunUntilIdle();
  EXPECT_EQ(checksum, 3u * count);
  return taken;
}

TEST(FramePoolTest, FramesOverFourKibBypassThePool) {
  // 48 frames of ~3.7 KiB cannot fit the free lists or one 64 KiB slab...
  EXPECT_GE(SlabsTakenByLiveFrames<3700>(48), 2u);
  // ...while 48 frames over 4 KiB take no slab at all.
  EXPECT_EQ(SlabsTakenByLiveFrames<5000>(48), 0u);
}

TEST(FramePoolDeathTest, TouchingFreedFrameIsReported) {
#if !defined(SOLROS_ASAN)
  GTEST_SKIP() << "needs AddressSanitizer to poison free frames";
#else
  Simulator sim;
  void* frame = nullptr;
  Spawn(sim, RecordFrame(&frame));
  sim.RunUntilIdle();
  ASSERT_NE(frame, nullptr);
  EXPECT_DEATH(static_cast<volatile char*>(frame)[8] = 1, "use-after-poison");
#endif
}

Task<uint64_t> Leaf(Nanos delay, uint64_t value) {
  co_await Delay(delay);
  co_return value;
}

Task<void> Worker(uint64_t seed, int rounds, uint64_t* sum) {
  Prng prng(seed);
  for (int i = 0; i < rounds; ++i) {
    *sum += co_await Leaf(prng.NextBelow(1000), prng.NextBelow(1 << 20));
  }
}

// Runs one simulator of `workers` tasks that create and free frames of a
// few sizes; returns the sum of their results and the final time.
std::pair<uint64_t, SimTime> RunWorkers(uint64_t seed, int workers) {
  Simulator sim;
  uint64_t sum = 0;
  for (int w = 0; w < workers; ++w) {
    Spawn(sim, Worker(seed * 1000 + w, 200, &sum));
  }
  sim.RunUntilIdle();
  return {sum, sim.now()};
}

// Two simulators on two threads allocate and free frames at the same time.
// Each thread has its own pool, so a run under ThreadSanitizer reports no
// race, and each thread's results equal a run of the same seed alone.
TEST(FramePoolTest, ConcurrentSimulatorsOnTwoThreads) {
  const auto expected_a = RunWorkers(1, 64);
  const auto expected_b = RunWorkers(2, 64);
  std::pair<uint64_t, SimTime> got_a;
  std::pair<uint64_t, SimTime> got_b;
  std::thread a([&got_a] { got_a = RunWorkers(1, 64); });
  std::thread b([&got_b] { got_b = RunWorkers(2, 64); });
  a.join();
  b.join();
  EXPECT_EQ(got_a, expected_a);
  EXPECT_EQ(got_b, expected_b);
}

}  // namespace
}  // namespace solros
