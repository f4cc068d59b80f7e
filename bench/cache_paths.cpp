// E-cache — the staged path's cache mechanisms (scan-resistant segmented
// LRU, sequential readahead, coalesced write-back), one scenario each:
//
//   seq-read    O_BUFFER sequential 64 KiB reads through one data plane;
//               readahead turns one NVMe command per request into one per
//               window. The printed reduction is requests per command (an
//               unbatched path issues one command per request);
//               tools/bench_baseline.sh gates it at >=4x.
//   scan-mix    warm a hot set, stream a scan 2x the cache size through
//               the same cache, then re-read the hot set; the segmented
//               LRU keeps the hot set in the protected segment, so the
//               re-read must issue no NVMe command (exit 1 otherwise).
//   rand-write  fig12-style random O_BUFFER writes + fsync; write-back
//               absorbs the writes as dirty pages and flushes them as
//               sorted, coalesced vectors.
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "bench/fs_workload.h"

using namespace solros;

namespace {

// Rows keep a "mode" column so the perf ledger's row keys stay stable.
constexpr const char* kMode = "current";

MachineConfig CacheMachine(int num_phis) {
  MachineConfig config;
  config.num_phis = num_phis;
  config.nvme_capacity = GiB(1);
  config.enable_network = false;
  config.fs_options.cache_blocks = 8192;  // 32 MiB shared cache
  return config;
}

Task<Status> SeqRead(FsStub* stub, uint64_t ino, DeviceId device,
                     uint64_t file_bytes, uint64_t chunk) {
  DeviceBuffer buffer(device, chunk);
  for (uint64_t off = 0; off < file_bytes; off += chunk) {
    SOLROS_CO_ASSIGN_OR_RETURN(
        uint64_t n, co_await stub->Read(ino, off, MemRef::Of(buffer)));
    if (n != chunk) {
      co_return IoError("short sequential read");
    }
  }
  co_return OkStatus();
}

// --- scenario 1: sequential read ------------------------------------------

struct SeqNumbers {
  double gbps = 0;
  uint64_t requests = 0;
  uint64_t commands = 0;
  uint64_t doorbells = 0;
};

SeqNumbers MeasureSeqRead() {
  const uint64_t file_bytes = BenchQuickMode() ? MiB(16) : MiB(64);
  const uint64_t chunk = KiB(64);
  Machine machine(CacheMachine(1));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/seq", file_bytes));
  CHECK_OK(ino);
  FsStub& stub = machine.fs_stub(0);
  stub.set_buffered(true);  // O_BUFFER: exercise the staged path
  uint64_t commands0 = machine.nvme().commands_completed();
  uint64_t doorbells0 = machine.nvme().doorbells_rung();
  SimTime t0 = machine.sim().now();
  CHECK_OK(RunSim(machine.sim(), SeqRead(&stub, *ino, machine.phi_device(0),
                                         file_bytes, chunk)));
  SeqNumbers out;
  out.gbps = RateBps(file_bytes, machine.sim().now() - t0) / 1e9;
  out.requests = file_bytes / chunk;
  out.commands = machine.nvme().commands_completed() - commands0;
  out.doorbells = machine.nvme().doorbells_rung() - doorbells0;
  return out;
}

// --- scenario 2: hot set vs streaming scan --------------------------------

Task<Status> RandomRead(FsStub* stub, uint64_t ino, DeviceId device,
                        uint64_t file_bytes, int ops, uint64_t seed,
                        uint64_t* bytes_done) {
  Prng prng(seed);
  DeviceBuffer buffer(device, KiB(64));
  uint64_t chunks = file_bytes / KiB(64);
  for (int i = 0; i < ops; ++i) {
    uint64_t off = prng.NextBelow(chunks) * KiB(64);
    SOLROS_CO_ASSIGN_OR_RETURN(
        uint64_t n, co_await stub->Read(ino, off, MemRef::Of(buffer)));
    *bytes_done += n;
  }
  co_return OkStatus();
}

struct MixNumbers {
  double hot_gbps = 0;    // re-read bandwidth after the scan
  uint64_t commands = 0;  // NVMe commands during the re-read (0 = all hits)
};

MixNumbers MeasureScanMix() {
  const uint64_t hot_bytes = BenchQuickMode() ? MiB(8) : MiB(16);
  const uint64_t scan_bytes = BenchQuickMode() ? MiB(64) : MiB(256);
  const int hot_ops = BenchQuickMode() ? 256 : 1024;
  Machine machine(CacheMachine(2));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto hot_ino = RunSim(machine.sim(),
                        PrepareWorkloadFile(&machine.fs(), "/hot", hot_bytes));
  CHECK_OK(hot_ino);
  auto scan_ino = RunSim(
      machine.sim(), PrepareWorkloadFile(&machine.fs(), "/scan", scan_bytes));
  CHECK_OK(scan_ino);
  FsStub& hot_stub = machine.fs_stub(0);
  FsStub& scan_stub = machine.fs_stub(1);
  hot_stub.set_buffered(true);
  scan_stub.set_buffered(true);
  // Warm the hot set twice: the second pass gives every page the repeat
  // touch that promotes it into the protected segment.
  for (int pass = 0; pass < 2; ++pass) {
    CHECK_OK(RunSim(machine.sim(),
                    SeqRead(&hot_stub, *hot_ino, machine.phi_device(0),
                            hot_bytes, KiB(64))));
  }
  // Stream a scan twice the cache size through the same cache. The
  // segmented LRU confines it to the probation segment (a plain LRU would
  // let it evict the entire hot set).
  CHECK_OK(RunSim(machine.sim(),
                  SeqRead(&scan_stub, *scan_ino, machine.phi_device(1),
                          scan_bytes, KiB(64))));
  // Measure the hot re-read: bandwidth + device commands it had to issue.
  uint64_t commands0 = machine.nvme().commands_completed();
  uint64_t hot_done = 0;
  SimTime t0 = machine.sim().now();
  CHECK_OK(RunSim(machine.sim(),
                  RandomRead(&hot_stub, *hot_ino, machine.phi_device(0),
                             hot_bytes, hot_ops, 99, &hot_done)));
  MixNumbers out;
  out.hot_gbps = RateBps(hot_done, machine.sim().now() - t0) / 1e9;
  out.commands = machine.nvme().commands_completed() - commands0;
  return out;
}

// --- scenario 3: random buffered write + fsync ----------------------------

struct WriteNumbers {
  double gbps = 0;
  uint64_t commands = 0;
};

WriteNumbers MeasureRandomWrite() {
  const uint64_t file_bytes = BenchQuickMode() ? MiB(32) : MiB(64);
  Machine machine(CacheMachine(1));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/rw", file_bytes));
  CHECK_OK(ino);
  FsStub& stub = machine.fs_stub(0);
  stub.set_buffered(true);
  FsWorkloadConfig config;
  config.file_bytes = file_bytes;
  config.block_size = KiB(64);
  // One writer: a write-through write would wait out the full device round
  // trip, which is exactly the latency that write-back absorption removes.
  config.threads = 1;
  config.ops_per_thread = BenchQuickMode() ? 128 : 512;
  config.is_write = true;
  uint64_t commands0 = machine.nvme().commands_completed();
  SimTime t0 = machine.sim().now();
  FsWorkloadResult result = RunFsWorkload(
      &machine.sim(), &stub, *ino, machine.phi_device(0), config);
  CHECK_OK(RunSim(machine.sim(), stub.Fsync(*ino)));
  WriteNumbers out;
  // Bandwidth includes the fsync: write-back must pay its deferred flush.
  out.gbps = RateBps(result.bytes, machine.sim().now() - t0) / 1e9;
  out.commands = machine.nvme().commands_completed() - commands0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E-cache — staged-path cache: readahead, scan resistance, "
              "write-back",
              "EuroSys'18 Solros §4.3.2 buffered path; 2Q/readahead/"
              "write-back classics");

  std::cout << "--- sequential O_BUFFER reads (64 KiB) ---\n";
  SeqNumbers seq_read = MeasureSeqRead();
  TablePrinter seq({"mode", "GB/s", "nvme cmds", "doorbells"});
  seq.AddRow({kMode, TablePrinter::Num(seq_read.gbps, 3),
              std::to_string(seq_read.commands),
              std::to_string(seq_read.doorbells)});
  EmitTable(seq);
  std::cout << "seq-read command reduction: "
            << TablePrinter::Num(static_cast<double>(seq_read.requests) /
                                     static_cast<double>(seq_read.commands),
                                 2)
            << "x (" << seq_read.requests << " requests over "
            << seq_read.commands << " NVMe commands)\n";

  std::cout << "\n--- hot-set re-read after a 2x-cache streaming scan ---\n";
  MixNumbers scan_mix = MeasureScanMix();
  TablePrinter mix({"mode", "hot GB/s", "nvme cmds"});
  mix.AddRow({kMode, TablePrinter::Num(scan_mix.hot_gbps, 3),
              std::to_string(scan_mix.commands)});
  EmitTable(mix);
  std::cout << "scan-mix hot re-read: " << scan_mix.commands
            << " NVMe commands (must be 0: the scan stays in probation)\n";

  std::cout << "\n--- random O_BUFFER writes (64 KiB) + fsync ---\n";
  WriteNumbers rand_write = MeasureRandomWrite();
  TablePrinter wr({"mode", "GB/s", "nvme cmds"});
  wr.AddRow({kMode, TablePrinter::Num(rand_write.gbps, 3),
             std::to_string(rand_write.commands)});
  EmitTable(wr);

  FinishBench();
  if (scan_mix.commands != 0) {
    std::cerr << "error: scan-mix hot re-read issued " << scan_mix.commands
              << " NVMe commands; the scan evicted the protected hot set\n";
    return 1;
  }
  return 0;
}
