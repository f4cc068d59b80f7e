// Per-request latency attribution over a causally-linked trace.
//
// Fig. 13 of the paper decomposes one file-system RPC's latency into
// file-system, transport, and storage portions. With trace contexts
// threaded through the stack (src/sim/trace.h) each RPC is one span tree,
// so the split can be *measured per request* instead of reconstructed from
// aggregate span sums. For every trace id the pass walks the closed spans
// and buckets them:
//
//   total       the root span (fs.stub.call / net.stub.call): the caller's
//               end-to-end view of the RPC, retries included;
//   queue_wait  rpc.queue.req + rpc.queue.resp: time a fully-written
//               message sat ready in a ring before the peer dequeued it;
//   device      nvme.batch: doorbell-to-interrupt device time;
//   copy_dma    dma.copy: host-initiated DMA moving bytes to/from the
//               co-processor;
//   iosched     iosched.queue: time the request's device I/O sat queued in
//               the host-side I/O scheduler (plug window, class ordering,
//               DRR) before its batch was submitted;
//   proxy       service-span time not spent in device, DMA, or scheduler
//               spans — proxy CPU, cache staging, metadata I/O;
//   stub        the remainder of total: stub CPU, ring copy in/out, and
//               RPC framing on the data-plane side.
//
// The net data path (fig14-16) uses the same machinery with its own
// taxonomy. A net trace roots at net.client.op (one echo round trip) or
// net.stub.call (one control RPC) and adds two stages the FS path lacks:
//
//   wire        net.wire.transit: client<->host NIC link time;
//   dispatch    net.stub.dispatch / net.server.dispatch: the event
//               dispatcher decoding a data event and handing it to the
//               waiting application receive;
//   queue_wait  additionally counts net.queue.event (data-ring waits);
//   proxy       additionally counts net.proxy.inbound / net.proxy.outbound
//               (TCP proxy segment work) and net.server.stack (the
//               direct-server host/Phi-Linux network stacks).
//
// In a fault-free run the stages sum to total *exactly*: the service span
// is contained in the root span, device/DMA spans are contained in the
// service span, and the queue-wait intervals are disjoint from the service
// span. When faults force retries (a dropped response leaves a server span
// running past the stub's timeout) the subtraction can go negative; the
// pass clamps at zero and clears `exact` for that request.
#ifndef SOLROS_SRC_SIM_ATTRIBUTION_H_
#define SOLROS_SRC_SIM_ATTRIBUTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace solros {

struct StageBreakdown {
  uint64_t trace_id = 0;
  Nanos total = 0;
  Nanos stub = 0;
  Nanos queue_wait = 0;
  Nanos proxy = 0;
  Nanos copy_dma = 0;
  Nanos device = 0;
  Nanos iosched_wait = 0;
  // Net-path stages (zero for FS traces).
  Nanos wire = 0;
  Nanos dispatch = 0;
  // True when the root span's name starts with "net." (net taxonomy).
  bool net = false;
  // True when the stages sum to `total` exactly (always, fault-free).
  bool exact = true;
};

// One breakdown per trace id whose root span closed, ordered by trace id
// (deterministic). Traces whose root span never closed are skipped. The
// span-list form also serves tools/trace_summary, which reads the spans
// back from an exported trace file.
std::vector<StageBreakdown> ComputeStageBreakdowns(
    std::span<const SpanRecord> spans);
std::vector<StageBreakdown> ComputeStageBreakdowns(const Tracer& tracer);

// Feeds each breakdown's stages into the process MetricRegistry latency
// histograms: fs.stage.{total,stub,queue_wait,proxy,copy_dma,device,
// iosched_wait}_ns for FS traces and net.stage.{total,stub,queue_wait,
// dispatch,proxy,wire,copy_dma}_ns for net traces, so `--metrics` reports
// per-stage p50/p95/p99 per path.
void RecordStageMetrics(const std::vector<StageBreakdown>& breakdowns);

}  // namespace solros

#endif  // SOLROS_SRC_SIM_ATTRIBUTION_H_
