// Shared measurement configurations for Figs. 1(a), 11 and 12: the four
// server-side file-service setups of the paper's evaluation, measured with
// the common random-I/O driver.
#ifndef SOLROS_BENCH_FS_CONFIGS_H_
#define SOLROS_BENCH_FS_CONFIGS_H_

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fs_workload.h"

namespace solros {


constexpr uint64_t kFileBytes = MiB(512);

MachineConfig BenchMachine() {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = GiB(1);
  config.enable_network = false;
  // Cold-cache runs: a modest cache that cannot hold the working set.
  config.fs_options.cache_blocks = 8192;  // 32 MiB
  // SOLROS_JOURNAL=metadata|data: measure the crash-consistency ablation.
  std::string journal = BenchJournalMode();
  if (journal == "metadata") {
    config.journal_mode = JournalMode::kMetadata;
  } else if (journal == "data") {
    config.journal_mode = JournalMode::kData;
  }
  return config;
}

double MeasureSolros(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(4, 64 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &machine.fs_stub(0), *ino,
                       machine.phi_device(0), config)
      .bandwidth();
}

// The staged (buffered) path under O_BUFFER: every request goes through the
// host shared buffer cache — the path the cache overhaul targets. Under
// --telemetry-out each measured point also emits a labeled bottleneck
// report (the staged path is where "what binds?" is non-obvious).
double MeasureSolrosBuffered(uint64_t block, int threads, bool is_write) {
  MachineConfig machine_config = BenchMachine();
  MaybeEnableTelemetry(machine_config);
  Machine machine(std::move(machine_config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  machine.fs_stub(0).set_buffered(true);
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(4, 64 / threads);
  config.is_write = is_write;
  // Report the measured workload, not the workload-file prep above.
  ResetTelemetry(machine);
  double bandwidth =
      RunFsWorkload(&machine.sim(), &machine.fs_stub(0), *ino,
                    machine.phi_device(0), config)
          .bandwidth();
  AppendTelemetryReport(std::string(is_write ? "fs-write" : "fs-read") +
                            "/buffered/" + HumanSize(block) + "x" +
                            std::to_string(threads),
                        machine);
  return bandwidth;
}

double MeasureHost(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  LocalFsService service(machine.params(), &machine.fs(),
                         &machine.host_cpu());
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(4, 64 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &service, *ino,
                       machine.host_device(), config)
      .bandwidth();
}

double MeasureVirtio(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  VirtioBlockStore virtio(&machine.sim(), machine.params(), &machine.nvme(),
                          &machine.host_cpu(), &machine.phi_cpu(0));
  SolrosFs phi_fs(&virtio, &machine.sim());
  CHECK_OK(RunSim(machine.sim(), phi_fs.Format(1024)));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&phi_fs, "/work", kFileBytes));
  CHECK_OK(ino);
  LocalFsService service(machine.params(), &phi_fs, &machine.phi_cpu(0));
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(2, 16 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &service, *ino,
                       machine.phi_device(0), config)
      .bandwidth();
}

double MeasureNfs(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  NfsClientFs service(&machine.sim(), &machine.fabric(), machine.params(),
                      &machine.fs(), &machine.host_cpu(),
                      &machine.phi_cpu(0), machine.phi_device(0));
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(2, 16 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &service, *ino,
                       machine.phi_device(0), config)
      .bandwidth();
}

// One measured point of Figs. 11/12, in bytes per second.
struct FsFigureRow {
  int threads = 0;
  uint64_t block = 0;
  double host = 0;
  double solros = 0;
  double buffered = 0;
  double virtio = 0;
  double nfs = 0;
};

// Prints the figure's tables and returns every measured point in sweep
// order (threads ascending, then block size ascending).
std::vector<FsFigureRow> RunFsFigure(bool is_write) {
  // Quick mode (SOLROS_BENCH_QUICK): CI smoke matrix — enough points for
  // regression tracking without the full figure sweep.
  const std::vector<int> thread_list =
      BenchQuickMode() ? std::vector<int>{1, 8}
                       : std::vector<int>{1, 4, 8, 32, 61};
  const std::vector<uint64_t> block_list =
      BenchQuickMode()
          ? std::vector<uint64_t>{KiB(32), KiB(256), MiB(1)}
          : std::vector<uint64_t>{KiB(32), KiB(64), KiB(128), KiB(256),
                                  KiB(512), MiB(1), MiB(2), MiB(4)};
  std::vector<FsFigureRow> rows;
  for (int threads : thread_list) {
    std::cout << "\n--- " << threads << " thread(s) ---\n";
    TablePrinter table({"block", "Host GB/s", "Phi-Solros GB/s",
                        "Phi-Solros O_BUFFER GB/s", "Phi-virtio GB/s",
                        "Phi-NFS GB/s"});
    for (uint64_t block : block_list) {
      FsFigureRow row;
      row.threads = threads;
      row.block = block;
      row.host = MeasureHost(block, threads, is_write);
      row.solros = MeasureSolros(block, threads, is_write);
      row.buffered = MeasureSolrosBuffered(block, threads, is_write);
      row.virtio = MeasureVirtio(block, threads, is_write);
      row.nfs = MeasureNfs(block, threads, is_write);
      table.AddRow({HumanSize(block), GBps3(row.host), GBps3(row.solros),
                    GBps3(row.buffered), GBps3(row.virtio), GBps3(row.nfs)});
      rows.push_back(row);
    }
    EmitTable(table);
  }
  return rows;
}

// The figures' shape claim, computed at the largest block and highest
// thread count: Host and Phi-Solros reach >=90% of the SSD ceiling, and the
// stock paths' gap is printed as measured. Returns false (the bench then
// exits non-zero) when the ceiling check fails. SOLROS_JOURNAL=data writes
// every direct-path block twice, so the ceiling claim is not checked there.
bool CheckFsFigureShape(const std::vector<FsFigureRow>& rows,
                        double ceiling_gbps) {
  CHECK(!rows.empty());
  const FsFigureRow& top = rows.back();
  const double floor_bps = 0.9 * ceiling_gbps * 1e9;
  const bool reached = top.host >= floor_bps && top.solros >= floor_bps;
  const bool gated = BenchJournalMode() != "data";
  std::cout << "\nshape: at " << HumanSize(top.block) << " x " << top.threads
            << " threads, Host " << GBps3(top.host) << " and Phi-Solros "
            << GBps3(top.solros) << " GB/s "
            << (reached ? "reach" : "do NOT reach") << " 90% of the "
            << TablePrinter::Num(ceiling_gbps, 1) << " GB/s SSD ceiling"
            << (gated ? "" : " (not gated under SOLROS_JOURNAL=data)")
            << "; Phi-Solros is "
            << TablePrinter::Num(top.solros / top.virtio, 1) << "x virtio ("
            << GBps3(top.virtio) << " GB/s) and "
            << TablePrinter::Num(top.solros / top.nfs, 1) << "x NFS ("
            << GBps3(top.nfs) << " GB/s).\n";
  return reached || !gated;
}

}  // namespace solros

#endif  // SOLROS_BENCH_FS_CONFIGS_H_
