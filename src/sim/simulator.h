// Discrete-event simulator core.
//
// The simulator is a single-threaded event loop over (time, sequence)-ordered
// events. All device and OS-service models in this repository run as C++20
// coroutines (src/sim/task.h) scheduled on this loop; simulated time only
// advances between events, so every run is deterministic.
//
// Events at equal timestamps execute in FIFO posting order, whatever their
// kind. An event is a trivially copyable 24-byte record: its time, its
// sequence number, and either the frame address of a coroutine to resume
// (ResumeAt; every event the models post) or the index of a slot holding a
// posted std::function (Post/PostAt; tests and probes).
#ifndef SOLROS_SRC_SIM_SIMULATOR_H_
#define SOLROS_SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/base/units.h"

namespace solros {

// Absolute simulated time in nanoseconds since simulation start.
using SimTime = Nanos;

class Tracer;
class TelemetryHub;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Optional span/event recorder (src/sim/trace.h). Instrumentation sites
  // are no-ops while unset; the tracer must outlive everything that may
  // still close a span against it (bind it before the components under
  // test, or keep it alive past the Simulator's owner).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // Optional USE-telemetry hub (src/base/metrics.h). Same contract as the
  // tracer: instrumentation sites skip all bookkeeping while unset, and the
  // hub must outlive the components recording into it (the Machine owns it
  // and binds it before constructing any component).
  void set_telemetry(TelemetryHub* hub) { telemetry_ = hub; }
  TelemetryHub* telemetry() const { return telemetry_; }

  // Schedules `fn` to run `delay` ns from now (0 = end of current event).
  void Post(Nanos delay, std::function<void()> fn) {
    PostAt(now_ + delay, std::move(fn));
  }

  // Schedules `fn` at absolute time `when` (clamped to now). The callback
  // waits in a slot of a table whose freed slots are reused.
  void PostAt(SimTime when, std::function<void()> fn) {
    uint64_t slot;
    if (free_slots_.empty()) {
      slot = callbacks_.size();
      callbacks_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      callbacks_[slot] = std::move(fn);
    }
    Push(when, (slot << 1) | kCallbackTag);
  }

  // Schedules resumption of a suspended coroutine at absolute time `when`
  // (clamped to now).
  void ResumeAt(SimTime when, std::coroutine_handle<> handle) {
    const auto frame = reinterpret_cast<uintptr_t>(handle.address());
    DCHECK((frame & kCallbackTag) == 0);
    Push(when, frame);
  }

  // Runs until the event queue drains or `max_events` have been processed.
  // Returns the number of events processed.
  uint64_t RunUntilIdle(uint64_t max_events = ~0ull) {
    uint64_t processed = 0;
    while (!queue_.empty() && processed < max_events) {
      StepOne();
      ++processed;
    }
    return processed;
  }

  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline` (even if idle). Returns the number of events processed.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t processed = 0;
    while (!queue_.empty() && queue_.top().when <= deadline) {
      StepOne();
      ++processed;
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
    return processed;
  }

  size_t pending_events() const { return queue_.size(); }

 private:
  // Tag bit of Event::target: set for a callback slot index (shifted left
  // by one), clear for a coroutine frame address (frames are at least
  // 16-byte aligned).
  static constexpr uintptr_t kCallbackTag = 1;

  struct Event {
    SimTime when;
    uint64_t seq;
    uintptr_t target;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  void Push(SimTime when, uintptr_t target) {
    if (when < now_) {
      when = now_;
    }
    queue_.push(Event{when, seq_++, target});
  }

  void StepOne() {
    const Event event = queue_.top();
    queue_.pop();
    now_ = event.when;
    if ((event.target & kCallbackTag) == 0) {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(event.target))
          .resume();
      return;
    }
    // Take the callback out and free its slot before running it: the
    // callback may post new events and reuse or grow the table.
    const uint64_t slot = event.target >> 1;
    std::function<void()> fn = std::exchange(callbacks_[slot], nullptr);
    free_slots_.push_back(slot);
    fn();
  }

  SimTime now_ = 0;
  Tracer* tracer_ = nullptr;
  TelemetryHub* telemetry_ = nullptr;
  uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<uint64_t> free_slots_;
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_SIMULATOR_H_
