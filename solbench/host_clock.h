// Host-side measurement helpers for the benchmark driver: a wall clock, a
// reference kernel that measures how fast this host is running right
// now, the process's peak RSS, and a count of heap allocations.
//
// Why a reference kernel: on a shared VM the same fixed simulation runs up
// to 1.5x slower for seconds at a time, in spells that come and go within
// one process, while the simulated results stay identical. The kernel is a
// fixed piece of work shaped like the simulator's own — an event loop over
// a binary heap of std::function callbacks, each doing a hash-table lookup,
// a dependent read-modify-write into a buffer larger than the last-level
// cache, and small allocations — but written here, so a change to the
// simulator cannot change it. Run between the simulator's timed slices, it
// sees the same host conditions, and scaling by its time cancels much of
// that noise.
#ifndef SOLBENCH_HOST_CLOCK_H_
#define SOLBENCH_HOST_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace solbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class RefKernel {
 public:
  // Allocates and touches all of its memory up front, so that memory stays
  // resident, at a constant size, for the rest of the process.
  RefKernel();

  // Runs one fixed amount of work; returns its host time in seconds.
  double Run();

 private:
  struct Event {
    uint64_t when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  void Step(uint64_t key);

  std::vector<uint64_t> words_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::unordered_map<uint64_t, std::unique_ptr<std::vector<uint64_t>>> table_;
  uint64_t now_ = 0;
  uint64_t seq_ = 0;
};

// Maps, writes and unmaps a fixed amount of fresh memory; returns its host
// time in seconds. Set-up is dominated by first-touch page faults of the
// machine's memories (NVMe media, the files written to it), whose cost on a
// shared VM differs by up to 1.3x from one process to the next while
// staying steady within a process. This kernel pays the same faults, so
// scaling set-up time by its time cancels most of that difference, which
// RefKernel (whose memory is resident throughout) does not.
double RunFaultKernel();

// Peak resident set of the process so far, in MiB.
double PeakRssMb();

// Number of global operator new calls so far in this process.
uint64_t AllocationCount();

}  // namespace solbench

#endif  // SOLBENCH_HOST_CLOCK_H_
