// The benchmark's workloads. Each one builds its own Machine, generates its
// inputs from the seed, drives the load with simulator coroutines and
// checks every output against a model of what it sent or wrote.
//
//   fs_cached_rw   closed loop, 8 workers on one co-processor: O_BUFFER
//                  4 KiB random reads (70%) and writes (30%) over a file
//                  that fits the host buffer cache, warmed before timing.
//                  Stresses the per-op control plane (stub -> ring -> proxy
//                  -> cache); the device is idle.
//   fs_device_p2p  closed loop, 2 co-processors: O_BUFFER 4-16 KiB random
//                  reads over a file 6x the cache, beside 256 KiB direct
//                  (peer-to-peer) reads and writes. Stresses misses,
//                  eviction, I/O scheduling, NVMe and DMA.
//   fs_device_rw   as fs_device_p2p, but 40% of the O_BUFFER ops are
//                  writes, adding dirty eviction and write-back. Not one of
//                  the benchmark's workloads: it currently fails its read
//                  checks (see MakeFsDevice in workloads.cc).
//   net_echo_open  open loop: Poisson arrivals at one fixed rate over 256
//                  connections through the shared listening socket to echo
//                  servers on 4 co-processors, 64 B - 1 KiB payloads.
//                  Stresses the TCP proxy, stub dispatch, wire and rings.
#ifndef SOLBENCH_WORKLOADS_H_
#define SOLBENCH_WORKLOADS_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/machine.h"

namespace solbench {

using solros::Nanos;

// What the load generators record about each operation they finish.
class OpLog {
 public:
  // Records one finished operation: a success with its latency, or a
  // failure (the call failed or returned wrong bytes) saying how.
  void Succeeded(Nanos latency);
  void Failed(const std::string& why);
  // Counts bytes a successful write put on the device (write amplification
  // base); only writes finished inside the window count.
  void AddBytesWritten(uint64_t bytes);
  // Open loop: how late a request went out after its due time (only
  // requests sent inside the window count).
  void RecordLateness(Nanos late);

  // Compares returned bytes with the model's expected bytes. With
  // CorruptNextExpected() armed, the first comparison flips one expected
  // byte first, so the check must report a mismatch (self-test hook).
  bool Matches(std::span<const uint8_t> actual,
               std::span<const uint8_t> expected);
  void CorruptNextExpected() { corrupt_next_ = true; }

  // The engine opens the window for exactly the simulated span whose
  // operations make up the simulated metrics.
  void set_window_open(bool open) { window_open_ = open; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& first_failure() const { return first_failure_; }
  uint64_t window_ops() const { return window_ops_; }
  uint64_t window_bytes_written() const { return window_bytes_written_; }
  // Latencies of the successful operations finished inside the window.
  const std::vector<Nanos>& window_latencies() const {
    return window_latencies_;
  }
  const std::vector<Nanos>& window_lateness() const {
    return window_lateness_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_failure_;
  bool window_open_ = false;
  uint64_t window_ops_ = 0;
  uint64_t window_bytes_written_ = 0;
  std::vector<Nanos> window_latencies_;
  std::vector<Nanos> window_lateness_;
  bool corrupt_next_ = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Simulated span of one timed slice, and how many slices make up the
  // fixed window the simulated metrics are taken over.
  virtual Nanos slice() const = 0;
  virtual int window_slices() const = 0;

  // Prints every resolved configuration value the run depends on.
  virtual void PrintConfig(std::ostream& os) const = 0;

  // Set-up stages, called once each in this order and timed separately.
  virtual void BuildMachine() = 0;
  virtual void Format() = 0;
  virtual void Fill() = 0;
  // Starts the load and runs it until the pipeline is in steady state.
  virtual void Warm() = 0;

  // Stops issuing new operations and runs until in-flight ones finish.
  virtual void Drain() = 0;

  solros::Machine& machine() { return *machine_; }
  OpLog& log() { return log_; }

 protected:
  std::unique_ptr<solros::Machine> machine_;
  OpLog log_;
};

// Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace solbench

#endif  // SOLBENCH_WORKLOADS_H_
