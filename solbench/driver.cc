// Benchmark driver: runs one workload in this process and prints every
// metric by name with its unit, ending with one JSON line.
//
//   solbench --workload NAME --seed N --seconds S --trace 0|1
//            [--corrupt-expected]
//
// A run is: set-up (repeated kSetupRepeats times, each after one run of the
// page-fault kernel; setup_s is the median set-up time scaled by the
// kernel's median time, see host_clock.h),
// then the measured phase — the simulator advances in fixed simulated
// slices, each timed on the host and followed by one run of the reference
// kernel (host_clock.h), until S host seconds have passed. The first
// window_slices() slices form the fixed window that every simulated metric
// is taken over, so those metrics are exact for a seed whatever the host's
// speed. With --trace 1 the workload runs once more from a fresh set-up
// with a sampling Tracer bound for the same window, and the per-layer
// metrics are printed instead of the end-to-end ones.
//
// Every SOLROS_* environment variable is refused: each would silently
// change the configuration the numbers describe.
//
// --corrupt-expected flips one byte of the first expected output before it
// is compared; the run must then report a failure and exit non-zero (the
// self-test of the output checks).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solbench/host_clock.h"
#include "solbench/probes.h"
#include "solbench/workloads.h"
#include "src/base/metrics.h"
#include "src/sim/attribution.h"
#include "src/sim/trace.h"

extern char** environ;

namespace solbench {
namespace {

constexpr int kSetupRepeats = 7;
// host_ops_per_s is the raw rate scaled by (median kernel time / this), so
// it reads as ops per host second on a host where one reference-kernel run
// takes 10 ms. Scaling by the median of the per-slice kernel runs narrowed
// the run-to-run spread two- to fourfold on a shared 4-vCPU VM; scaling
// each slice by its own kernel run, or using a kernel of dependent DRAM
// reads alone, did not do as well.
constexpr double kRefNominalSeconds = 0.010;
// setup_s is the median set-up time scaled by (this / median fault-kernel
// time), so it reads as set-up seconds on a host where one fault-kernel run
// takes 100 ms. Unscaled, the median set-up time of a run spread 17-23%
// (quartile distance over median, ten seeds) on a shared 4-vCPU VM, while
// its ratio to the fault kernel's time spread about a third as much.
constexpr double kFaultNominalSeconds = 0.100;
// Traced runs keep one trace in this many (tail sampling), which bounds
// span memory at any run length.
constexpr uint64_t kTraceKeepOneIn = 8;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool corrupt_expected = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      args->corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && args->seconds > 0 &&
         args->trace >= 0;
}

std::vector<std::string> InheritedSolrosKnobs() {
  std::vector<std::string> knobs;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SOLROS_", 7) == 0) {
      knobs.emplace_back(*env, std::strcspn(*env, "="));
    }
  }
  return knobs;
}

double Median(std::vector<double> values) {
  CHECK(!values.empty());
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  const double upper = values[mid];
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2;
}

// Exact nearest-rank quantile of raw samples (not a bucketed histogram).
double Quantile(std::vector<Nanos> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::map<std::string, uint64_t> CounterValues() {
  std::map<std::string, uint64_t> values;
  for (const auto& c : solros::MetricRegistry::Default().Snapshot().counters) {
    values[c.name] = c.value;
  }
  return values;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct SetupResult {
  std::unique_ptr<Workload> workload;
  double machine_s = 0, format_s = 0, fill_s = 0, warm_s = 0;
};

SetupResult SetUp(const std::string& name, uint64_t seed) {
  SetupResult r;
  r.workload = MakeWorkload(name, seed);
  Workload& w = *r.workload;
  double t = NowSeconds();
  auto lap = [&t] {
    const double now = NowSeconds();
    const double elapsed = now - t;
    t = now;
    return elapsed;
  };
  w.BuildMachine();
  r.machine_s = lap();
  w.Format();
  r.format_s = lap();
  w.Fill();
  r.fill_s = lap();
  w.Warm();
  r.warm_s = lap();
  return r;
}

// The window's results; all but host_s are identical for a seed on any
// host.
struct WindowResult {
  uint64_t ops = 0;
  Nanos span = 0;
  uint64_t events = 0;
  uint64_t allocations = 0;
  double host_s = 0;  // host time inside the window's slices
  std::vector<Nanos> latencies;
  uint64_t bytes_written = 0;
};

struct PhaseResult {
  WindowResult window;
  std::map<std::string, uint64_t> counters_before, counters_after;
  uint64_t ops = 0;
  uint64_t events = 0;
  double host_s = 0;
  std::vector<double> ref_s;
  int slices = 0;
};

// Runs the window's slices and, when `ref` is given, one reference-kernel
// run after each slice and further slices until `min_seconds` of measured
// phase have passed. Only the simulator's RunUntil calls are timed.
PhaseResult RunPhase(Workload& w, RefKernel* ref, double min_seconds) {
  PhaseResult r;
  solros::Simulator& sim = w.machine().sim();
  OpLog& log = w.log();
  const double phase_start = NowSeconds();
  const uint64_t ops_start = log.attempted();
  for (int i = 0;; ++i) {
    const bool in_window = i < w.window_slices();
    if (i == 0) {
      r.counters_before = CounterValues();
      log.set_window_open(true);
    }
    const uint64_t allocs_before = AllocationCount();
    const double start = NowSeconds();
    const uint64_t events = sim.RunUntil(sim.now() + w.slice());
    const double host = NowSeconds() - start;
    const uint64_t allocs = AllocationCount() - allocs_before;
    r.events += events;
    r.host_s += host;
    ++r.slices;
    if (ref != nullptr) {
      r.ref_s.push_back(ref->Run());
    }
    if (in_window) {
      r.window.span += w.slice();
      r.window.events += events;
      r.window.allocations += allocs;
      r.window.host_s += host;
    }
    if (i + 1 == w.window_slices()) {
      log.set_window_open(false);
      r.counters_after = CounterValues();
    }
    if (i + 1 >= w.window_slices() &&
        (ref == nullptr || NowSeconds() - phase_start >= min_seconds)) {
      break;
    }
  }
  r.ops = log.attempted() - ops_start;
  r.window.ops = log.window_ops();
  r.window.latencies = log.window_latencies();
  r.window.bytes_written = log.window_bytes_written();
  return r;
}

struct StageQuantiles {
  std::map<std::string, std::vector<Nanos>> fs, net;
  uint64_t traces = 0;
  uint64_t inexact = 0;
};

// Demand blocks served from the buffer cache over all demand blocks of the
// kept traces' buffered reads. The proxy fetches misses itself, so the
// cache.hits/cache.misses counters only ever see hits; the per-request
// outcome is on each cache.read span.
double CacheHitRatio(const solros::Tracer& tracer) {
  double hits = 0;
  double misses = 0;
  for (const solros::SpanRecord& span : tracer.spans()) {
    if (span.name != "cache.read") {
      continue;
    }
    for (const auto& [key, value] : span.args) {
      if (key == "hits") {
        hits += std::stod(value);
      } else if (key == "misses") {
        misses += std::stod(value);
      }
    }
  }
  return Ratio(hits, hits + misses);
}

StageQuantiles CollectStages(const solros::Tracer& tracer) {
  StageQuantiles q;
  for (const solros::StageBreakdown& b :
       solros::ComputeStageBreakdowns(tracer)) {
    const Nanos sum = b.stub + b.queue_wait + b.iosched_wait + b.proxy +
                      b.copy_dma + b.device + b.wire + b.dispatch;
    if (!b.exact || sum != b.total) {
      ++q.inexact;
    }
    if (b.net) {
      if (b.wire == 0) {
        continue;  // control RPC, not an echo round trip
      }
      q.net["stub"].push_back(b.stub);
      q.net["queue_wait"].push_back(b.queue_wait);
      q.net["dispatch"].push_back(b.dispatch);
      q.net["proxy"].push_back(b.proxy);
      q.net["wire"].push_back(b.wire);
      q.net["copy_dma"].push_back(b.copy_dma);
    } else {
      q.fs["stub"].push_back(b.stub);
      q.fs["queue_wait"].push_back(b.queue_wait);
      q.fs["proxy"].push_back(b.proxy);
      q.fs["iosched_wait"].push_back(b.iosched_wait);
      q.fs["copy_dma"].push_back(b.copy_dma);
      q.fs["device"].push_back(b.device);
    }
    ++q.traces;
  }
  return q;
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("0");
  }
}

// Operations attempted and failed over every run in this process.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Add(const OpLog& log) {
    attempted += log.attempted();
    failed += log.failed();
    Note(log.first_failure());
  }
  void Note(const std::string& failure) {
    if (first_failure.empty()) {
      first_failure = failure;
    }
  }
};

struct SetupStats {
  std::vector<double> total, machine, format, fill, warm, fault_kernel;
  double rss_mb = 0;
};

// Sets the workload up kSetupRepeats times, timing each stage, and keeps
// the last one for the measured phase.
std::unique_ptr<Workload> SetUpRepeatedly(const Args& args, double kernel_mb,
                                          SetupStats* stats) {
  SetupResult setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (setup.workload != nullptr) {
      setup.workload->Drain();
      setup.workload.reset();
    }
    // Before the set-up, with no workload alive, so the kernel's memory
    // never adds to the peak RSS.
    stats->fault_kernel.push_back(RunFaultKernel());
    setup = SetUp(args.workload, args.seed);
    stats->machine.push_back(setup.machine_s);
    stats->format.push_back(setup.format_s);
    stats->fill.push_back(setup.fill_s);
    stats->warm.push_back(setup.warm_s);
    stats->total.push_back(setup.machine_s + setup.format_s + setup.fill_s +
                           setup.warm_s);
  }
  stats->rss_mb = PeakRssMb() - kernel_mb;
  return std::move(setup.workload);
}

// The traced run: a fresh set-up of the same seed with a sampling tracer
// bound for exactly the window. Appends the metrics that need the trace.
void TracedRun(const Args& args, const PhaseResult& untraced,
               std::vector<Metric>* metrics, Outcome* outcome) {
  // Declared before the workload: coroutine frames hold spans into it.
  solros::Tracer tracer;
  tracer.EnableSampling(kTraceKeepOneIn);
  SetupResult setup = SetUp(args.workload, args.seed);
  Workload& w = *setup.workload;
  tracer.Bind(&w.machine().sim());
  const PhaseResult traced = RunPhase(w, nullptr, 0);
  w.machine().sim().set_tracer(nullptr);
  w.Drain();
  outcome->Add(w.log());

  const WindowResult& a = untraced.window;
  const WindowResult& b = traced.window;
  const double p50_a = Quantile(a.latencies, 0.5);
  const double p50_b = Quantile(b.latencies, 0.5);
  if (a.ops != b.ops || p50_a != p50_b) {
    std::cout << "finding: tracing changed the simulated results: window ops "
              << a.ops << " -> " << b.ops << ", p50_ns " << p50_a << " -> "
              << p50_b << "\n";
  }
  // Both windows ran the same simulated work; compare their host time.
  metrics->push_back({"trace.overhead_pct",
                      100.0 * (Ratio(b.host_s, a.host_s) - 1.0), "%"});
  metrics->push_back({"cache.hit_ratio", CacheHitRatio(tracer), "ratio"});

  StageQuantiles stages = CollectStages(tracer);
  std::cout << "traced: kept_traces=" << stages.traces
            << " spans_kept=" << tracer.sampler_stats().spans_kept
            << " traces_dropped=" << tracer.sampler_stats().traces_dropped
            << "\n";
  if (stages.inexact > 0) {
    ++outcome->failed;
    outcome->Note(std::to_string(stages.inexact) +
                  " traces whose stages do not sum to their root span");
  }
  for (const char* stage :
       {"stub", "queue_wait", "proxy", "iosched_wait", "copy_dma", "device"}) {
    const std::vector<Nanos>& v = stages.fs[stage];
    const std::string base = std::string("fs.stage.") + stage;
    metrics->push_back({base + ".p50_ns", Quantile(v, 0.5), "ns"});
    metrics->push_back({base + ".p99_ns", Quantile(v, 0.99), "ns"});
  }
  for (const char* stage :
       {"stub", "queue_wait", "dispatch", "proxy", "wire", "copy_dma"}) {
    const std::vector<Nanos>& v = stages.net[stage];
    const std::string base = std::string("net.stage.") + stage;
    metrics->push_back({base + ".p50_ns", Quantile(v, 0.5), "ns"});
    metrics->push_back({base + ".p99_ns", Quantile(v, 0.99), "ns"});
  }
}

double NormalisedSetupSeconds(const SetupStats& setup) {
  return Median(setup.total) * kFaultNominalSeconds /
         Median(setup.fault_kernel);
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    const SetupStats& setup,
                                    const Outcome& outcome,
                                    double peak_rss_mb) {
  const WindowResult& win = phase.window;
  return {
      {"sim_ops_per_s", Ratio(win.ops, win.span * 1e-9), "1/s"},
      {"p50_us", Quantile(win.latencies, 0.5) / 1e3, "us"},
      {"p99_us", Quantile(win.latencies, 0.99) / 1e3, "us"},
      {"p999_us", Quantile(win.latencies, 0.999) / 1e3, "us"},
      {"ok_pct",
       100.0 * Ratio(outcome.attempted - outcome.failed, outcome.attempted),
       "%"},
      {"host_ops_per_s",
       Ratio(phase.ops, phase.host_s) * Median(phase.ref_s) /
           kRefNominalSeconds,
       "1/s"},
      {"setup_s", NormalisedSetupSeconds(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> LayerMetrics(const Args& args, Workload& w,
                                 const PhaseResult& phase,
                                 const SetupStats& setup, Outcome* outcome) {
  const WindowResult& win = phase.window;
  // Growth of a registry counter over the window.
  auto d = [&phase](const std::string& name) -> double {
    auto after = phase.counters_after.find(name);
    if (after == phase.counters_after.end()) {
      return 0;
    }
    auto before = phase.counters_before.find(name);
    return static_cast<double>(
        after->second -
        (before == phase.counters_before.end() ? 0 : before->second));
  };
  const double ops = static_cast<double>(win.ops);
  const double p2p = d("fs.proxy.p2p_reads") + d("fs.proxy.p2p_writes");
  const double buffered =
      d("fs.proxy.buffered_reads") + d("fs.proxy.buffered_writes");
  const double dispatched =
      d("iosched.dispatched.ordered") + d("iosched.dispatched.demand") +
      d("iosched.dispatched.writeback") + d("iosched.dispatched.readahead");
  std::vector<Metric> metrics = {
      {"sim.events_per_op", Ratio(win.events, ops), "count"},
      {"sim.allocs_per_op", Ratio(win.allocations, ops), "count"},
      {"sim.host_ns_per_event", 1e9 * Ratio(phase.host_s, phase.events),
       "ns"},
      {"host.raw_ops_per_s", Ratio(phase.ops, phase.host_s), "1/s"},
      {"bench.ref_ms", Median(phase.ref_s) * 1e3, "ms"},
      {"setup.raw_s", Median(setup.total), "s"},
      {"bench.fault_ref_ms", 1e3 * Median(setup.fault_kernel), "ms"},
      {"setup.machine_s", Median(setup.machine), "s"},
      {"setup.format_s", Median(setup.format), "s"},
      {"setup.fill_s", Median(setup.fill), "s"},
      {"setup.warm_s", Median(setup.warm), "s"},
      {"setup.rss_mb", setup.rss_mb, "MB"},
      {"ring.messages_per_op", Ratio(d("transport.ring.messages_sent"), ops),
       "count"},
      {"ring.control_txns_per_op",
       Ratio(d("transport.ring.control_txns"), ops), "count"},
      {"fs.proxy.p2p_share", Ratio(p2p, p2p + buffered), "ratio"},
      {"cache.evictions_per_op", Ratio(d("cache.evictions"), ops), "count"},
      {"cache.writeback_blocks_per_run",
       Ratio(d("cache.writeback_coalesced_blocks"), d("cache.writeback_runs")),
       "count"},
      {"iosched.requests_per_batch", Ratio(dispatched, d("iosched.batches")),
       "count"},
      {"iosched.dedup_hits_per_op", Ratio(d("iosched.dedup_hits"), ops),
       "count"},
      {"nvme.commands_per_op", Ratio(d("nvme.commands"), ops), "count"},
      {"nvme.doorbells_per_op", Ratio(d("nvme.doorbells"), ops), "count"},
      {"nvme.interrupts_per_op", Ratio(d("nvme.interrupts"), ops), "count"},
      {"nvme.write_amp", Ratio(d("nvme.bytes_written"), win.bytes_written),
       "ratio"},
      {"net.wire.payload_copies_per_msg",
       Ratio(d("net.wire.payload_copies"), 2 * ops), "count"},
      {"net.gen.late_p99_us", Quantile(w.log().window_lateness(), 0.99) / 1e3,
       "us"},
  };
  TracedRun(args, phase, &metrics, outcome);
  for (const auto& [name, ns] : RunMicroProbes()) {
    metrics.push_back({name, ns, "ns"});
  }
  // Last, so it covers the traced run's operations too.
  metrics.push_back(
      {"fail_pct", 100.0 * Ratio(outcome->failed, outcome->attempted), "%"});
  return metrics;
}

void PrintResult(const PhaseResult& phase,
                 const std::vector<Metric>& metrics, const Outcome& outcome) {
  const WindowResult& win = phase.window;
  std::cout << "window: ops=" << win.ops
            << " latency_samples=" << win.latencies.size()
            << " sim_span_ns=" << win.span << " events=" << win.events
            << "\n";
  std::cout << "measured: slices=" << phase.slices << " ops=" << phase.ops
            << " host_s=" << phase.host_s
            << " ref_ms_median=" << Median(phase.ref_s) * 1e3 << "\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << "\n";
  }
  const bool correct = outcome.failed == 0;
  if (!correct) {
    std::cout << "FAILED: " << outcome.failed << " of " << outcome.attempted
              << " operations; first: " << outcome.first_failure << "\n";
  }
  std::cout.flush();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    PrintJsonNumber(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: solbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--corrupt-expected]\n");
    return 2;
  }
  if (!MakeWorkload(args.workload, args.seed)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> knobs = InheritedSolrosKnobs();
  if (!knobs.empty()) {
    for (const std::string& knob : knobs) {
      std::fprintf(stderr, "refusing to run with %s set\n", knob.c_str());
    }
    return 2;
  }

  // Built before anything else: its memory is resident from here on, so
  // subtracting what it added leaves the simulator's and the workload's.
  const double baseline_mb = PeakRssMb();
  RefKernel ref;
  ref.Run();
  const double kernel_mb = PeakRssMb() - baseline_mb;

  SetupStats setup;
  std::unique_ptr<Workload> w = SetUpRepeatedly(args, kernel_mb, &setup);
  std::cout << "workload: " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n";
  w->PrintConfig(std::cout);
  if (args.corrupt_expected) {
    w->log().CorruptNextExpected();
  }

  const PhaseResult phase = RunPhase(*w, &ref, args.seconds);
  w->Drain();
  const double peak_rss_mb = PeakRssMb() - kernel_mb;
  Outcome outcome;
  outcome.Add(w->log());

  const std::vector<Metric> metrics =
      args.trace ? LayerMetrics(args, *w, phase, setup, &outcome)
                 : EndToEndMetrics(phase, setup, outcome, peak_rss_mb);
  PrintResult(phase, metrics, outcome);
  return outcome.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace solbench

int main(int argc, char** argv) { return solbench::Main(argc, argv); }
