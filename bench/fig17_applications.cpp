// E17 — §6.2's realistic applications (reconstructed past the truncation):
// text indexing (paper: 19x) and image search (paper: 2x), Solros vs the
// stock co-processor configurations, with the host as reference.
#include <iostream>

#include "bench/bench_util.h"
#include "src/apps/image_search.h"
#include "src/apps/text_index.h"
#include "src/core/machine.h"
#include "src/fs/baseline_fs.h"

using namespace solros;

namespace {

MachineConfig AppMachine() {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = GiB(1);
  config.enable_network = false;
  return config;
}

CorpusConfig Corpus() {
  CorpusConfig corpus;
  corpus.num_documents = BenchQuickMode() ? 8 : 32;
  corpus.document_bytes = MiB(2);
  return corpus;
}

ImageDbConfig ImageDb() {
  ImageDbConfig db;
  db.num_images = BenchQuickMode() ? 8 : 32;
  db.descriptors_per_image = 4096;  // 256 KiB features per image
  return db;
}

enum class Config { kSolros, kVirtio, kNfs, kHost };

const char* Name(Config c) {
  switch (c) {
    case Config::kSolros:
      return "Phi-Solros";
    case Config::kVirtio:
      return "Phi-Linux (virtio)";
    case Config::kNfs:
      return "Phi-Linux (NFS)";
    case Config::kHost:
      return "Host";
  }
  return "?";
}

// Runs `app` (a callable taking service/cpu/device) under a configuration,
// returning elapsed simulated time.
template <typename AppFn>
Nanos RunConfig(Config config, AppFn app) {
  Machine machine(AppMachine());
  switch (config) {
    case Config::kSolros: {
      CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
      return app(machine, &machine.fs(), &machine.fs_stub(0),
                 &machine.phi_cpu(0), machine.phi_device(0));
    }
    case Config::kVirtio: {
      VirtioBlockStore virtio(&machine.sim(), machine.params(),
                              &machine.nvme(), &machine.host_cpu(),
                              &machine.phi_cpu(0));
      SolrosFs phi_fs(&virtio, &machine.sim());
      CHECK_OK(RunSim(machine.sim(), phi_fs.Format(4096)));
      LocalFsService service(machine.params(), &phi_fs,
                             &machine.phi_cpu(0));
      return app(machine, &phi_fs, &service, &machine.phi_cpu(0),
                 machine.phi_device(0));
    }
    case Config::kNfs: {
      CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
      NfsClientFs nfs(&machine.sim(), &machine.fabric(), machine.params(),
                      &machine.fs(), &machine.host_cpu(),
                      &machine.phi_cpu(0), machine.phi_device(0));
      return app(machine, &machine.fs(), &nfs, &machine.phi_cpu(0),
                 machine.phi_device(0));
    }
    case Config::kHost: {
      CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
      LocalFsService service(machine.params(), &machine.fs(),
                             &machine.host_cpu());
      return app(machine, &machine.fs(), &service, &machine.host_cpu(),
                 machine.host_device());
    }
  }
  return 0;
}

Nanos RunIndexing(Machine& machine, SolrosFs* setup_fs, FileService* service,
                  Processor* cpu, DeviceId device) {
  auto files = RunSim(machine.sim(), GenerateCorpus(setup_fs, Corpus()));
  CHECK_OK(files);
  TextIndexConfig config;
  config.files = *files;
  config.workers = 61;
  config.read_chunk = MiB(2);
  SimTime t0 = machine.sim().now();
  auto result = RunSim(machine.sim(),
                       RunTextIndex(&machine.sim(), service, cpu, device,
                                    config));
  CHECK_OK(result);
  return machine.sim().now() - t0;
}

Nanos RunSearch(Machine& machine, SolrosFs* setup_fs, FileService* service,
                Processor* cpu, DeviceId device) {
  auto files = RunSim(machine.sim(), GenerateImageDb(setup_fs, ImageDb()));
  CHECK_OK(files);
  ImageSearchConfig config;
  config.files = *files;
  config.workers = 61;
  config.query_descriptors = 128;
  SimTime t0 = machine.sim().now();
  auto result = RunSim(machine.sim(),
                       RunImageSearch(&machine.sim(), service, cpu, device,
                                      config));
  CHECK_OK(result);
  return machine.sim().now() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!InitBench(argc, argv)) {
    return 2;
  }
  PrintHeader("E17 — realistic applications (reconstructed)",
              "EuroSys'18 Solros §6.2: text indexing ~19x, image search ~2x");

  std::cout << "--- text indexing (64 MiB corpus, 61 workers) ---\n";
  TablePrinter index_table({"config", "time ms", "speedup vs virtio"});
  Nanos index_virtio = 0;
  for (Config c : {Config::kVirtio, Config::kNfs, Config::kSolros,
                   Config::kHost}) {
    Nanos t = RunConfig(c, RunIndexing);
    if (c == Config::kVirtio) {
      index_virtio = t;
    }
    index_table.AddRow({Name(c), TablePrinter::Num(ToMillis(t), 1),
                        TablePrinter::Num(
                            static_cast<double>(index_virtio) / t, 1) +
                            "x"});
  }
  EmitTable(index_table);

  std::cout << "\n--- image search (8 MiB features/image x32, 61 workers) "
               "---\n";
  TablePrinter search_table({"config", "time ms", "speedup vs virtio"});
  Nanos search_virtio = 0;
  for (Config c : {Config::kVirtio, Config::kNfs, Config::kSolros,
                   Config::kHost}) {
    Nanos t = RunConfig(c, RunSearch);
    if (c == Config::kVirtio) {
      search_virtio = t;
    }
    search_table.AddRow({Name(c), TablePrinter::Num(ToMillis(t), 1),
                         TablePrinter::Num(
                             static_cast<double>(search_virtio) / t, 1) +
                             "x"});
  }
  EmitTable(search_table);

  std::cout << "\nshape: indexing is I/O-bound (big Solros win); search is "
               "compute-bound (smaller win), matching the paper's 19x/2x.\n";
  FinishBench();
  return 0;
}
