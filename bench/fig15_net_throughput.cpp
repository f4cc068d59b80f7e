// E15 — network streaming throughput (reconstructed; see DESIGN.md §2).
//
// One-way client->server streaming across message sizes and connection
// counts: Solros should approach the NIC/PCIe ceiling like the host, while
// the Phi-Linux stack saturates its slow cores first. The "+batch" column
// re-runs Solros with the net data-path batching mechanisms on (segment
// coalescing, vectored ring push, adaptive payload copy, pipelined
// per-plane dispatch — DESIGN.md §5.5). With a handful of wire-bound
// streams the ring is not the bottleneck, so the column shows batching's
// cost side — the plug window delaying flushes — staying within 7% of
// plain Solros (1-connection 4KB is the worst row); the benefit side (doorbell amortization across
// sockets) appears at connection scale in fig19_connection_storm.
// Like fig19, it refuses to run (exit 2) while any SOLROS_NET_* variable is
// set, since that would turn the plain Solros column into a batched one.
#include <iostream>

#include "bench/bench_util.h"
#include "bench/net_workload.h"

using namespace solros;

int main(int argc, char** argv) {
  if (!InitBench(argc, argv) || !NetEnvironmentUnset()) {
    return 2;
  }
  PrintHeader("E15 — TCP streaming throughput (reconstructed)",
              "EuroSys'18 Solros §4.4/§6");
  NetPathOptions batch;
  batch.coalescing = true;
  batch.vectored_push = true;
  batch.adaptive_copy = true;
  batch.drr_dispatch = true;
  for (int connections : {1, 4, 16}) {
    std::cout << "\n--- " << connections << " connection(s) ---\n";
    TablePrinter table({"msg size", "Host GB/s", "Phi-Solros GB/s",
                        "+batch GB/s", "Phi-Linux GB/s"});
    for (uint32_t size : {512u, 4096u, 16384u, 65536u, 262144u}) {
      int messages = size <= 16384u ? 120 : 40;
      table.AddRow(
          {HumanSize(size),
           GBps3(MeasureNetThroughput(NetConfigKind::kHost, size,
                                      connections, messages)),
           GBps3(MeasureNetThroughput(NetConfigKind::kSolros, size,
                                      connections, messages)),
           GBps3(MeasureNetThroughput(NetConfigKind::kSolros, size,
                                      connections, messages, batch)),
           GBps3(MeasureNetThroughput(NetConfigKind::kPhiLinux, size,
                                      connections, messages))});
    }
    EmitTable(table);
  }
  std::cout << "\nshape: Host and Solros scale with size/connections toward "
               "the wire; Phi-Linux is CPU-bound on the co-processor's "
               "slow cores; +batch pays a small plug-window latency tax on "
               "these wire-bound streams — its doorbell amortization shows "
               "at connection scale in fig19.\n";
  FinishBench();
  return 0;
}
