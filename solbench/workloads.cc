#include "solbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <ostream>
#include <utility>

#include "src/base/prng.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"

namespace solbench {
namespace {

using solros::Condition;
using solros::DeviceBuffer;
using solros::DeviceId;
using solros::FileService;
using solros::KiB;
using solros::Machine;
using solros::MachineConfig;
using solros::MemRef;
using solros::MiB;
using solros::Prng;
using solros::RunSim;
using solros::SimTime;
using solros::Simulator;
using solros::Task;
using solros::WaitGroup;

void FillBytes(std::span<uint8_t> out, Prng& prng) {
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const uint64_t word = prng.Next();
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(prng.Next());
  }
}

// Pins every knob a Machine would otherwise take from its defaults or the
// environment, so the printed configuration is the one that ran.
MachineConfig PinnedConfig(int phis, uint64_t nvme_bytes, bool network) {
  MachineConfig config;
  config.num_phis = phis;
  config.nvme_capacity = nvme_bytes;
  config.enable_network = network;
  config.proxy_shards = 1;
  config.journal_mode = solros::JournalMode::kOff;
  config.net_options = solros::NetPathOptions();
  config.telemetry_window = 0;
  return config;
}

void PrintMachineConfig(std::ostream& os, const MachineConfig& c) {
  const solros::FsProxy::Options& f = c.fs_options;
  const solros::NetPathOptions& n = c.net_options;
  os << "config.machine: num_phis=" << c.num_phis
     << " nvme_capacity=" << c.nvme_capacity
     << " enable_network=" << c.enable_network
     << " proxy_shards=" << c.proxy_shards
     << " journal_mode=" << static_cast<int>(c.journal_mode)
     << " rpc_ring_capacity=" << c.rpc_ring_capacity
     << " outbound_ring_capacity=" << c.outbound_ring_capacity
     << " inbound_ring_capacity=" << c.inbound_ring_capacity
     << " telemetry_window=" << c.telemetry_window << "\n";
  os << "config.fs_proxy: cache_blocks=" << f.cache_blocks
     << " coalesce_nvme=" << f.coalesce_nvme << " allow_p2p=" << f.allow_p2p
     << " cache_scan_resistant=" << f.cache_scan_resistant
     << " cache_protected_fraction=" << f.cache_protected_fraction
     << " readahead=" << f.readahead << " readahead_blocks="
     << f.readahead_min_blocks << ".." << f.readahead_max_blocks
     << " readahead_p2p_cutover=" << f.readahead_p2p_cutover
     << " writeback_cache=" << f.writeback_cache
     << " coalesced_writeback=" << f.coalesced_writeback
     << " writeback_max_batch=" << f.writeback_max_batch
     << " fs_vectored_io=" << f.fs_vectored_io << " iosched=" << f.iosched
     << " iosched_single_flight=" << f.iosched_single_flight
     << " iosched_plug=" << f.iosched_plug
     << " iosched_plug_window=" << f.iosched_plug_window
     << " iosched_plug_max_batch=" << f.iosched_plug_max_batch
     << " iosched_priority=" << f.iosched_priority
     << " iosched_fairness=" << f.iosched_fairness
     << " iosched_drr_quantum=" << f.iosched_drr_quantum
     << " iosched_max_inflight=" << f.iosched_max_inflight << "\n";
  os << "config.net_path: coalescing=" << n.coalescing
     << " vectored_push=" << n.vectored_push
     << " adaptive_copy=" << n.adaptive_copy
     << " drr_dispatch=" << n.drr_dispatch
     << " net_coalesce_bytes=" << n.net_coalesce_bytes
     << " net_plug_window_ns=" << n.net_plug_window_ns
     << " max_events_per_push=" << n.max_events_per_push
     << " max_push_bytes=" << n.max_push_bytes
     << " staging_capacity=" << n.staging_capacity
     << " drr_quantum=" << n.drr_quantum << "\n";
}

// ---------------------------------------------------------------------------
// File-system workloads: closed-loop workers, each owning a disjoint region
// of one file so a shadow copy of the file predicts every read exactly.

struct FsWorkerSpec {
  FileService* service = nullptr;
  uint64_t ino = 0;
  DeviceId device;
  uint64_t region_offset = 0;
  uint64_t region_bytes = 0;
  // Op sizes are a uniform multiple of `unit` in [min_units, max_units];
  // offsets are aligned to `unit`.
  uint64_t unit = 0;
  uint32_t min_units = 1;
  uint32_t max_units = 1;
  double read_fraction = 0.0;
  uint64_t seed = 0;
  std::string path;
  std::vector<uint8_t>* shadow = nullptr;
};

Task<void> FsWorker(const FsWorkerSpec* spec, const bool* stop, OpLog* log,
                    WaitGroup* done) {
  Simulator* sim = co_await solros::CurrentSimulator();
  Prng prng(spec->seed);
  DeviceBuffer buffer(spec->device, spec->unit * spec->max_units);
  while (!*stop) {
    const uint64_t bytes =
        spec->unit * prng.NextInRange(spec->min_units, spec->max_units);
    const uint64_t slots = (spec->region_bytes - bytes) / spec->unit + 1;
    const uint64_t offset =
        spec->region_offset + prng.NextBelow(slots) * spec->unit;
    const bool is_read = prng.NextBool(spec->read_fraction);
    const MemRef target = MemRef::Of(buffer, 0, bytes);
    uint8_t* expected = spec->shadow->data() + offset;
    const SimTime start = sim->now();
    auto where = [&] {
      return spec->path + " offset " + std::to_string(offset) + " length " +
             std::to_string(bytes);
    };
    if (is_read) {
      auto n = co_await spec->service->Read(spec->ino, offset, target);
      if (!n.ok()) {
        log->Failed("read failed at " + where() + ": " + n.status().ToString());
      } else if (*n != bytes ||
                 !log->Matches(target.span(), {expected, bytes})) {
        log->Failed("read returned wrong bytes at " + where());
      } else {
        log->Succeeded(sim->now() - start);
      }
    } else {
      FillBytes(target.span(), prng);
      auto n = co_await spec->service->Write(spec->ino, offset, target);
      if (!n.ok() || *n != bytes) {
        log->Failed("write failed at " + where() + ": " +
                    (n.ok() ? "short write" : n.status().ToString()));
      } else {
        std::memcpy(expected, buffer.data(), bytes);
        log->AddBytesWritten(bytes);
        log->Succeeded(sim->now() - start);
      }
    }
  }
  done->Done();
}

// One file: its shadow, the workers' regions and their op mix.
struct FsFileSpec {
  std::string path;
  uint64_t bytes = 0;
  bool buffered = false;  // opened with O_BUFFER
  int workers_per_phi = 0;
  uint64_t unit = 0;
  uint32_t min_units = 1;
  uint32_t max_units = 1;
  double read_fraction = 0.0;
};

class FsWorkload : public Workload {
 public:
  FsWorkload(uint64_t seed, int phis, uint64_t nvme_bytes,
             size_t cache_blocks, std::vector<FsFileSpec> files,
             bool prefetch, Nanos slice, int window_slices, Nanos warm)
      : seed_(seed),
        phis_(phis),
        nvme_bytes_(nvme_bytes),
        cache_blocks_(cache_blocks),
        files_(std::move(files)),
        prefetch_(prefetch),
        slice_(slice),
        window_slices_(window_slices),
        warm_(warm) {}

  Nanos slice() const override { return slice_; }
  int window_slices() const override { return window_slices_; }

  void PrintConfig(std::ostream& os) const override {
    PrintMachineConfig(os, Config());
    for (const FsFileSpec& f : files_) {
      os << "config.file: path=" << f.path << " bytes=" << f.bytes
         << " o_buffer=" << f.buffered
         << " workers_per_phi=" << f.workers_per_phi
         << " op_bytes=" << f.unit * f.min_units << ".."
         << f.unit * f.max_units << " read_fraction=" << f.read_fraction
         << "\n";
    }
    os << "config.load: closed_loop prefetch=" << prefetch_
       << " warm_ns=" << warm_ << " slice_ns=" << slice_
       << " window_slices=" << window_slices_ << "\n";
  }

  void BuildMachine() override {
    machine_ = std::make_unique<Machine>(Config());
  }

  void Format() override {
    CHECK_OK(RunSim(machine_->sim(), machine_->FormatFs()));
  }

  void Fill() override {
    shadows_.resize(files_.size());
    inos_.resize(files_.size());
    for (size_t i = 0; i < files_.size(); ++i) {
      shadows_[i].resize(files_[i].bytes);
      Prng prng(seed_ * 1000003 + i);
      FillBytes(shadows_[i], prng);
      inos_[i] = RunSim(machine_->sim(),
                        WriteFile(&machine_->fs(), files_[i].path,
                                  &shadows_[i]));
    }
  }

  void Warm() override {
    Simulator& sim = machine_->sim();
    if (prefetch_) {
      for (const FsFileSpec& f : files_) {
        CHECK_OK(RunSim(sim, machine_->fs_proxy().Prefetch(f.path)));
      }
    }
    for (size_t i = 0; i < files_.size(); ++i) {
      const FsFileSpec& f = files_[i];
      const int workers = f.workers_per_phi * machine_->num_phis();
      const uint64_t region = f.bytes / workers / f.unit * f.unit;
      for (int p = 0; p < machine_->num_phis(); ++p) {
        solros::FsStub& stub = machine_->fs_stub(p);
        auto ino = RunSim(sim, f.buffered ? stub.OpenBuffered(f.path)
                                          : stub.Open(f.path));
        CHECK_OK(ino);
        CHECK_EQ(*ino, inos_[i]);
        for (int w = 0; w < f.workers_per_phi; ++w) {
          const int index = p * f.workers_per_phi + w;
          auto spec = std::make_unique<FsWorkerSpec>();
          spec->service = &stub;
          spec->ino = *ino;
          spec->device = machine_->phi_device(p);
          spec->region_offset = index * region;
          spec->region_bytes = region;
          spec->unit = f.unit;
          spec->min_units = f.min_units;
          spec->max_units = f.max_units;
          spec->read_fraction = f.read_fraction;
          spec->seed = seed_ * 7919 + i * 131 + index;
          spec->path = f.path;
          spec->shadow = &shadows_[i];
          specs_.push_back(std::move(spec));
        }
      }
    }
    done_ = std::make_unique<WaitGroup>(&sim);
    for (const auto& spec : specs_) {
      done_->Add(1);
      Spawn(sim, FsWorker(spec.get(), &stop_, &log_, done_.get()));
    }
    sim.RunUntil(sim.now() + warm_);
  }

  void Drain() override {
    stop_ = true;
    machine_->sim().RunUntilIdle();
    CHECK_EQ(done_->outstanding(), 0u);
  }

 private:
  MachineConfig Config() const {
    MachineConfig config = PinnedConfig(phis_, nvme_bytes_, /*network=*/false);
    config.fs_options.cache_blocks = cache_blocks_;
    return config;
  }

  static Task<uint64_t> WriteFile(solros::SolrosFs* fs, std::string path,
                                  const std::vector<uint8_t>* content) {
    auto ino = co_await fs->Create(path);
    CHECK_OK(ino);
    const uint64_t chunk = MiB(8);
    for (uint64_t off = 0; off < content->size(); off += chunk) {
      const uint64_t n = std::min<uint64_t>(chunk, content->size() - off);
      auto written =
          co_await fs->WriteAt(*ino, off, {content->data() + off, n});
      CHECK_OK(written);
      CHECK_EQ(*written, n);
    }
    co_return *ino;
  }

  const uint64_t seed_;
  const int phis_;
  const uint64_t nvme_bytes_;
  const size_t cache_blocks_;
  const std::vector<FsFileSpec> files_;
  const bool prefetch_;
  const Nanos slice_;
  const int window_slices_;
  const Nanos warm_;
  std::vector<std::vector<uint8_t>> shadows_;
  std::vector<uint64_t> inos_;
  std::vector<std::unique_ptr<FsWorkerSpec>> specs_;
  std::unique_ptr<WaitGroup> done_;
  bool stop_ = false;
};

std::unique_ptr<Workload> MakeFsCached(uint64_t seed) {
  FsFileSpec file;
  file.path = "/cached";
  file.bytes = MiB(16);
  file.buffered = true;
  file.workers_per_phi = 8;
  file.unit = KiB(4);
  file.read_fraction = 0.7;
  // 8192 cache blocks (32 MiB) hold the whole 16 MiB file.
  return std::make_unique<FsWorkload>(seed, 1, MiB(64), 8192,
                                      std::vector<FsFileSpec>{file},
                                      /*prefetch=*/true,
                                      solros::Milliseconds(20),
                                      /*window_slices=*/100,
                                      solros::Milliseconds(2));
}

// With buffered_read_fraction < 1 the O_BUFFER workers also write, so dirty
// blocks are evicted and written back while other blocks miss. That mix
// (fs_device_rw) currently reads stale data: a buffered read of a block
// can return its previous contents after the same worker's write of it was
// acknowledged. fs_device_p2p keeps the buffered side read-only, so every
// write goes through the direct path.
std::unique_ptr<Workload> MakeFsDevice(uint64_t seed,
                                       double buffered_read_fraction) {
  FsFileSpec buffered;
  buffered.path = "/buffered";
  buffered.bytes = MiB(48);
  buffered.buffered = true;
  buffered.workers_per_phi = 4;
  buffered.unit = KiB(4);
  buffered.min_units = 1;
  buffered.max_units = 4;
  buffered.read_fraction = buffered_read_fraction;
  FsFileSpec direct;
  direct.path = "/direct";
  direct.bytes = MiB(64);
  direct.workers_per_phi = 2;
  direct.unit = KiB(256);
  direct.read_fraction = 0.5;
  // 2048 cache blocks (8 MiB) are 1/6 of the buffered file.
  return std::make_unique<FsWorkload>(
      seed, 2, MiB(256), 2048, std::vector<FsFileSpec>{buffered, direct},
      /*prefetch=*/false, solros::Milliseconds(25), /*window_slices=*/160,
      solros::Milliseconds(5));
}

// ---------------------------------------------------------------------------
// Open-loop echo workload.

constexpr uint16_t kEchoPort = 7000;

Task<void> EchoSession(solros::ServerSocketApi* api, int64_t sock) {
  while (true) {
    auto message = co_await api->Recv(sock);
    if (!message.ok() || !(co_await api->Send(sock, *message)).ok()) {
      break;
    }
  }
}

Task<void> EchoServer(solros::ServerSocketApi* api) {
  Simulator* sim = co_await solros::CurrentSimulator();
  auto listener = co_await api->Listen(kEchoPort, 1024);
  CHECK_OK(listener);
  while (true) {
    auto sock = co_await api->Accept(*listener);
    if (!sock.ok()) {
      break;
    }
    Spawn(*sim, EchoSession(api, *sock));
  }
}

struct EchoRequest {
  uint64_t id = 0;
  SimTime due = 0;
  uint32_t bytes = 0;
};

// One client connection: sends its queued requests in arrival order, one
// in flight at a time, and checks each reply against the request.
struct EchoConn {
  explicit EchoConn(Simulator* sim) : ready(sim) {}
  uint64_t conn_id = 0;
  std::deque<EchoRequest> queue;
  Condition ready;
};

class NetEchoWorkload : public Workload {
 public:
  explicit NetEchoWorkload(uint64_t seed) : seed_(seed) {}

  Nanos slice() const override { return kSlice; }
  int window_slices() const override { return kWindowSlices; }

  void PrintConfig(std::ostream& os) const override {
    PrintMachineConfig(os, Config());
    os << "config.load: open_loop poisson rate_per_s=" << kRatePerSecond
       << " connections=" << kConnections << " payload_bytes=" << kMinBytes
       << ".." << kMaxBytes << " port=" << kEchoPort
       << " policy=round_robin warm_ns=" << kWarm << " slice_ns=" << kSlice
       << " window_slices=" << kWindowSlices << "\n";
  }

  void BuildMachine() override {
    machine_ = std::make_unique<Machine>(Config());
    client_cpu_ = std::make_unique<solros::Processor>(
        &machine_->sim(), machine_->host_device(), 256, 1.0, "client");
  }

  // No file system on this workload; the device only exists because every
  // Machine has one.
  void Format() override {}

  // Starts one echo server per co-processor on the shared listening port
  // and establishes every client connection.
  void Fill() override {
    Simulator& sim = machine_->sim();
    for (int p = 0; p < machine_->num_phis(); ++p) {
      Spawn(sim, EchoServer(&machine_->net_stub(p)));
    }
    sim.RunUntilIdle();
    for (int c = 0; c < kConnections; ++c) {
      conns_.push_back(std::make_unique<EchoConn>(&sim));
      auto conn = RunSim(sim, machine_->ethernet().ClientConnect(
                                  0x0a000000u + static_cast<uint32_t>(c),
                                  kEchoPort, client_cpu_.get()));
      CHECK_OK(conn);
      conns_.back()->conn_id = *conn;
    }
  }

  void Warm() override {
    Simulator& sim = machine_->sim();
    for (auto& conn : conns_) {
      Spawn(sim, Client(conn.get()));
    }
    Spawn(sim, Generator());
    sim.RunUntil(sim.now() + kWarm);
  }

  void Drain() override {
    stop_ = true;
    machine_->sim().RunUntilIdle();
    for (const auto& conn : conns_) {
      CHECK(conn->queue.empty());
    }
  }

 private:
  // About 73% of the ~71k/s at which this configuration's echo path
  // saturates. Sweeping the offered rate when this workload was defined
  // gave p99 0.13 ms at 50k/s, 0.3 ms at 60k/s, 1 ms at 70k/s and 3 ms at
  // 75k/s, so this rate keeps p99 well under a 1 ms limit while queueing
  // still shapes the tail.
  static constexpr double kRatePerSecond = 52000.0;
  static constexpr int kConnections = 256;
  static constexpr uint32_t kMinBytes = 64;
  static constexpr uint32_t kMaxBytes = 1024;
  static constexpr Nanos kWarm = solros::Milliseconds(2);
  static constexpr Nanos kSlice = solros::Milliseconds(40);
  static constexpr int kWindowSlices = 250;

  static MachineConfig Config() {
    return PinnedConfig(4, MiB(16), /*network=*/true);
  }

  // The bytes of request `id`: its id, then seed-derived filler.
  void Payload(const EchoRequest& request, std::vector<uint8_t>* out) const {
    out->resize(request.bytes);
    Prng prng(seed_ ^ (request.id * 0x9e3779b97f4a7c15ull));
    FillBytes(*out, prng);
    std::memcpy(out->data(), &request.id, sizeof(request.id));
  }

  Task<void> Generator() {
    Simulator* sim = co_await solros::CurrentSimulator();
    Prng prng(seed_);
    const double mean_gap_ns = 1e9 / kRatePerSecond;
    SimTime due = sim->now();
    uint64_t id = 0;
    while (!stop_) {
      const double gap = -std::log1p(-prng.NextDouble()) * mean_gap_ns;
      due += static_cast<Nanos>(gap);
      co_await solros::Delay(due - sim->now());
      EchoConn* conn = conns_[prng.NextBelow(conns_.size())].get();
      EchoRequest request;
      request.id = ++id;
      request.due = due;
      request.bytes =
          static_cast<uint32_t>(prng.NextInRange(kMinBytes, kMaxBytes));
      conn->queue.push_back(request);
      conn->ready.NotifyOne();
    }
  }

  Task<void> Client(EchoConn* conn) {
    Simulator* sim = co_await solros::CurrentSimulator();
    solros::EthernetFabric& eth = machine_->ethernet();
    std::vector<uint8_t> payload;
    while (true) {
      while (conn->queue.empty()) {
        co_await conn->ready.Wait();
      }
      const EchoRequest request = conn->queue.front();
      conn->queue.pop_front();
      Payload(request, &payload);
      log_.RecordLateness(sim->now() - request.due);
      // Benchmark root span of this round trip; the stack's wire, ring,
      // proxy and dispatch spans hang off it. The tracer is looked up per
      // request because it is bound only for the traced window.
      solros::Tracer* tracer = sim->tracer();
      uint64_t span = 0;
      solros::TraceContext ctx;
      if (tracer != nullptr) {
        span = tracer->BeginSpan("client", "net.client.op",
                                 {tracer->NewTraceId(), 0});
        ctx = tracer->ContextOf(span);
      }
      solros::Status sent =
          co_await eth.ClientSend(conn->conn_id, payload, client_cpu_.get(),
                                  ctx);
      std::string failure;
      if (!sent.ok()) {
        failure = "send failed: " + sent.ToString();
      } else {
        auto reply = co_await eth.ClientRecv(conn->conn_id);
        if (!reply.ok()) {
          failure = "recv failed: " + reply.status().ToString();
        } else if (!log_.Matches(*reply, payload)) {
          failure = "echo reply for request " + std::to_string(request.id) +
                    " out of order or corrupted";
        }
      }
      if (tracer != nullptr) {
        tracer->EndSpan(span);
      }
      if (failure.empty()) {
        log_.Succeeded(sim->now() - request.due);
      } else {
        log_.Failed(failure);
      }
    }
  }

  const uint64_t seed_;
  std::unique_ptr<solros::Processor> client_cpu_;
  std::vector<std::unique_ptr<EchoConn>> conns_;
  bool stop_ = false;
};

}  // namespace

void OpLog::Succeeded(Nanos latency) {
  ++attempted_;
  if (window_open_) {
    ++window_ops_;
    window_latencies_.push_back(latency);
  }
}

void OpLog::Failed(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (first_failure_.empty()) {
    first_failure_ = why;
  }
  if (window_open_) {
    ++window_ops_;
  }
}

void OpLog::RecordLateness(Nanos late) {
  if (window_open_) {
    window_lateness_.push_back(late);
  }
}

void OpLog::AddBytesWritten(uint64_t bytes) {
  if (window_open_) {
    window_bytes_written_ += bytes;
  }
}

bool OpLog::Matches(std::span<const uint8_t> actual,
                    std::span<const uint8_t> expected) {
  if (actual.size() != expected.size()) {
    return false;
  }
  if (corrupt_next_ && !expected.empty()) {
    corrupt_next_ = false;
    std::vector<uint8_t> corrupted(expected.begin(), expected.end());
    corrupted[corrupted.size() / 2] ^= 0x5a;
    return std::memcmp(actual.data(), corrupted.data(), actual.size()) == 0;
  }
  return std::memcmp(actual.data(), expected.data(), actual.size()) == 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "fs_cached_rw") {
    return MakeFsCached(seed);
  }
  if (name == "fs_device_p2p") {
    return MakeFsDevice(seed, /*buffered_read_fraction=*/1.0);
  }
  if (name == "fs_device_rw") {
    return MakeFsDevice(seed, /*buffered_read_fraction=*/0.6);
  }
  if (name == "net_echo_open") {
    return std::make_unique<NetEchoWorkload>(seed);
  }
  return nullptr;
}

}  // namespace solbench
