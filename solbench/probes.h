// Host-cost probes of single primitives, called directly through their
// public APIs (no Machine): what one simulator event, one ring message, one
// buffer-cache hit, one histogram record and one tracer span cost on this
// host. Each should move host_ops_per_s of the workload where the primitive
// is hottest:
//   micro.sim_post_step_ns     every workload (every simulated event)
//   micro.ring_push_pop_ns     fs_cached_rw, net_echo_open (ring per op)
//   micro.cache_hit_ns         fs_cached_rw (every op is a cache hit)
//   micro.histogram_record_ns  every workload (per-op metric records)
//   micro.tracer_span_ns       the traced runs (trace.overhead_pct)
#ifndef SOLBENCH_PROBES_H_
#define SOLBENCH_PROBES_H_

#include <string>
#include <utility>
#include <vector>

namespace solbench {

// (metric name, median host ns per operation) for every probe.
std::vector<std::pair<std::string, double>> RunMicroProbes();

}  // namespace solbench

#endif  // SOLBENCH_PROBES_H_
