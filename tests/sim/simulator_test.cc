#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <memory>
#include <vector>

#include "src/base/units.h"
#include "src/sim/task.h"

namespace solros {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Post(Microseconds(30), [&] { order.push_back(3); });
  sim.Post(Microseconds(10), [&] { order.push_back(1); });
  sim.Post(Microseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Microseconds(30));
}

TEST(SimulatorTest, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Post(Microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.Post(10, [&] {
    ++fired;
    sim.Post(10, [&] { ++fired; });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(SimulatorTest, PostAtInPastClampsToNow) {
  Simulator sim;
  SimTime seen = ~0ull;
  sim.Post(100, [&] {
    sim.PostAt(5, [&] { seen = sim.now(); });  // 5 < now (100)
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Post(10, [&] { ++fired; });
  sim.Post(20, [&] { ++fired; });
  sim.Post(30, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(sim.now(), Seconds(1));
}

TEST(SimulatorTest, MaxEventsBoundsRunUntilIdle) {
  Simulator sim;
  // A self-perpetuating event chain.
  std::function<void()> tick = [&] { sim.Post(1, tick); };
  sim.Post(1, tick);
  EXPECT_EQ(sim.RunUntilIdle(1000), 1000u);
  EXPECT_GT(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ZeroDelayPostRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.Post(10, [&] {
    order.push_back(1);
    sim.Post(0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// Parks the awaiting task and hands its handle to the test, which then
// schedules the resumption itself with Simulator::ResumeAt.
struct Park {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) { *slot = handle; }
  void await_resume() const noexcept {}
};

Task<void> ParkThenRecord(std::coroutine_handle<>* slot, Simulator* sim,
                          std::vector<int>* order, int id,
                          SimTime* resumed_at) {
  co_await Park{slot};
  order->push_back(id);
  *resumed_at = sim->now();
}

TEST(SimulatorTest, CallbackAndHandleEventsAtSameTimeAreFifo) {
  Simulator sim;
  std::vector<int> order;
  std::vector<std::coroutine_handle<>> handles(4);
  std::vector<SimTime> resumed_at(4);
  for (int i = 0; i < 4; ++i) {
    Spawn(sim, ParkThenRecord(&handles[i], &sim, &order, 2 * i + 1,
                              &resumed_at[i]));
  }
  sim.RunUntilIdle();
  ASSERT_TRUE(order.empty());
  // Alternate the two event kinds at one timestamp: even ids are callbacks,
  // odd ids are coroutine resumptions.
  for (int i = 0; i < 4; ++i) {
    sim.Post(Microseconds(10), [&order, i] { order.push_back(2 * i); });
    sim.ResumeAt(Microseconds(10), handles[i]);
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (SimTime t : resumed_at) {
    EXPECT_EQ(t, Microseconds(10));
  }
}

TEST(SimulatorTest, ResumeAtInPastClampsToNow) {
  Simulator sim;
  std::vector<int> order;
  std::coroutine_handle<> handle;
  SimTime resumed_at = 0;
  Spawn(sim, ParkThenRecord(&handle, &sim, &order, 1, &resumed_at));
  sim.RunUntilIdle();
  sim.Post(100, [&] {
    sim.ResumeAt(5, handle);  // 5 < now (100)
    order.push_back(0);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(resumed_at, 100u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulatorTest, DestroyingWithPendingCallbacksReleasesThem) {
  auto token = std::make_shared<int>(0);
  int fired = 0;
  {
    Simulator sim;
    for (int i = 0; i < 8; ++i) {
      sim.Post(10 * (i + 1), [token, &fired] { ++fired; });
    }
    // Run three, so their slots are freed and then reused by new posts.
    sim.RunUntil(30);
    for (int i = 0; i < 3; ++i) {
      sim.Post(100, [token, &fired] { ++fired; });
    }
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.pending_events(), 8u);
    EXPECT_EQ(token.use_count(), 9);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace solros
