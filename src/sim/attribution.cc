#include "src/sim/attribution.h"

#include <map>
#include <string_view>

#include "src/base/metrics.h"

namespace solros {
namespace {

// Accumulators for one trace id before the subtraction step.
struct TraceSums {
  Nanos total = 0;    // root spans (parent == 0)
  Nanos queue = 0;    // rpc.queue.{req,resp} / net.queue.event / net.plug.wait
  Nanos service = 0;  // fs.proxy.service / net.proxy.* / net.server.stack
  Nanos device = 0;   // nvme.batch
  Nanos copy = 0;     // dma.copy
  Nanos iosched = 0;  // iosched.queue
  Nanos wire = 0;     // net.wire.transit
  Nanos dispatch = 0; // net.stub.dispatch / net.server.dispatch
  bool net_root = false;  // root span name starts with "net."
  bool root_closed = false;
};

bool IsQueueSpan(std::string_view name) {
  return name == "rpc.queue.req" || name == "rpc.queue.resp" ||
         name == "net.queue.event" || name == "net.plug.wait";
}

bool IsServiceSpan(std::string_view name) {
  return name == "fs.proxy.service" || name == "net.proxy.rpc" ||
         name == "net.proxy.inbound" || name == "net.proxy.outbound" ||
         name == "net.server.stack";
}

bool IsDispatchSpan(std::string_view name) {
  return name == "net.stub.dispatch" || name == "net.server.dispatch";
}

// Subtracts b from a, clamping at zero; clears *exact on clamp.
Nanos ClampSub(Nanos a, Nanos b, bool* exact) {
  if (b > a) {
    *exact = false;
    return 0;
  }
  return a - b;
}

}  // namespace

std::vector<StageBreakdown> ComputeStageBreakdowns(const Tracer& tracer) {
  return ComputeStageBreakdowns(tracer.spans());
}

std::vector<StageBreakdown> ComputeStageBreakdowns(
    std::span<const SpanRecord> spans) {
  // std::map keys the result on trace id => deterministic order.
  std::map<uint64_t, TraceSums> sums;
  for (const SpanRecord& span : spans) {
    if (span.open || span.trace_id == 0) {
      continue;
    }
    TraceSums& s = sums[span.trace_id];
    Nanos dur = span.end - span.begin;
    if (span.parent == 0) {
      s.total += dur;
      s.root_closed = true;
      s.net_root = span.name.rfind("net.", 0) == 0;
    } else if (IsQueueSpan(span.name)) {
      s.queue += dur;
    } else if (IsServiceSpan(span.name)) {
      s.service += dur;
    } else if (IsDispatchSpan(span.name)) {
      s.dispatch += dur;
    } else if (span.name == "net.wire.transit") {
      s.wire += dur;
    } else if (span.name == "nvme.batch") {
      s.device += dur;
    } else if (span.name == "dma.copy") {
      s.copy += dur;
    } else if (span.name == "iosched.queue") {
      s.iosched += dur;
    }
  }

  std::vector<StageBreakdown> out;
  out.reserve(sums.size());
  for (const auto& [trace_id, s] : sums) {
    if (!s.root_closed) {
      continue;
    }
    StageBreakdown b;
    b.trace_id = trace_id;
    b.total = s.total;
    b.queue_wait = s.queue;
    b.device = s.device;
    b.copy_dma = s.copy;
    b.iosched_wait = s.iosched;
    b.wire = s.wire;
    b.dispatch = s.dispatch;
    b.net = s.net_root;
    b.proxy = ClampSub(s.service, s.device + s.copy + s.iosched, &b.exact);
    b.stub = ClampSub(s.total, s.queue + s.service + s.wire + s.dispatch,
                      &b.exact);
    out.push_back(b);
  }
  return out;
}

void RecordStageMetrics(const std::vector<StageBreakdown>& breakdowns) {
  MetricRegistry& registry = MetricRegistry::Default();
  LatencyHistogram* total = registry.GetHistogram("fs.stage.total_ns");
  LatencyHistogram* stub = registry.GetHistogram("fs.stage.stub_ns");
  LatencyHistogram* queue = registry.GetHistogram("fs.stage.queue_wait_ns");
  LatencyHistogram* proxy = registry.GetHistogram("fs.stage.proxy_ns");
  LatencyHistogram* copy = registry.GetHistogram("fs.stage.copy_dma_ns");
  LatencyHistogram* device = registry.GetHistogram("fs.stage.device_ns");
  LatencyHistogram* iosched =
      registry.GetHistogram("fs.stage.iosched_wait_ns");
  LatencyHistogram* net_total = registry.GetHistogram("net.stage.total_ns");
  LatencyHistogram* net_stub = registry.GetHistogram("net.stage.stub_ns");
  LatencyHistogram* net_queue =
      registry.GetHistogram("net.stage.queue_wait_ns");
  LatencyHistogram* net_dispatch =
      registry.GetHistogram("net.stage.dispatch_ns");
  LatencyHistogram* net_proxy = registry.GetHistogram("net.stage.proxy_ns");
  LatencyHistogram* net_wire = registry.GetHistogram("net.stage.wire_ns");
  LatencyHistogram* net_copy =
      registry.GetHistogram("net.stage.copy_dma_ns");
  for (const StageBreakdown& b : breakdowns) {
    if (b.net) {
      net_total->Record(b.total);
      net_stub->Record(b.stub);
      net_queue->Record(b.queue_wait);
      net_dispatch->Record(b.dispatch);
      net_proxy->Record(b.proxy);
      net_wire->Record(b.wire);
      net_copy->Record(b.copy_dma);
      continue;
    }
    total->Record(b.total);
    stub->Record(b.stub);
    queue->Record(b.queue_wait);
    proxy->Record(b.proxy);
    copy->Record(b.copy_dma);
    device->Record(b.device);
    iosched->Record(b.iosched_wait);
  }
}

}  // namespace solros
