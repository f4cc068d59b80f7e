// Net data-path tuning knobs (DESIGN.md §5.5).
//
// Four independent mechanisms, all off by default so the legacy
// one-event-per-push path stays byte-identical:
//
//  * coalescing    — GSO/GRO analogue: same-socket payloads accumulate in a
//    bounded per-socket staging buffer and flush as one multi-segment
//    NetEvent on a plug-window/size trigger; the receive side splits the
//    segments back out, so ServerApi semantics are unchanged.
//  * vectored_push — iosched-style "one doorbell per round": multiple ready
//    events ride one SimRing push as a kBatch frame.
//  * adaptive_copy — payload movement is charged through the rings'
//    memcpy-vs-DMA policy (src/transport/adaptive_copy.h) instead of being
//    a free host-side vector copy, attributed to the copy_dma stage.
//  * drr_dispatch  — pipelined outbound dispatch at the proxy: each data
//    plane's feeder claims ring records ahead of its worker, which hands
//    every record's client-wire delivery off instead of waiting it out;
//    plus byte-backlog (not event-count) refresh of
//    BalanceTarget::queue_depth. The name is historical: no deficit round
//    robin runs on the net path (each plane already has its own ring and
//    worker, so there is nothing to share fairly).
#ifndef SOLROS_SRC_NET_NET_OPTIONS_H_
#define SOLROS_SRC_NET_NET_OPTIONS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "src/base/units.h"

namespace solros {

struct NetPathOptions {
  bool coalescing = false;
  bool vectored_push = false;
  bool adaptive_copy = false;
  bool drr_dispatch = false;

  // Coalescing: per-socket staging cap (a full stage seals immediately) and
  // the plug window after which a partial stage flushes anyway.
  uint32_t net_coalesce_bytes = KiB(64);
  Nanos net_plug_window_ns = Microseconds(5);

  // Vectored push: events per doorbell and bytes per frame (both bounded so
  // one frame never approaches the ring capacity).
  uint32_t max_events_per_push = 32;
  uint64_t max_push_bytes = KiB(256);

  // Total staged+pending bytes per plug before senders backpressure.
  uint64_t staging_capacity = MiB(1);

  // No effect: no net-path code reads it. Kept only because solbench
  // (solbench/workloads.cc) prints every NetPathOptions field.
  uint32_t drr_quantum = KiB(16);

  // True when the send path stages at all (either mechanism needs a plug).
  bool staging_enabled() const { return coalescing || vectored_push; }
};

// Resolved knobs: each SOLROS_NET_* variable that is set overrides the
// field in `base` (the programmatic config, itself defaulted), so the
// environment wins over explicit config — unlike ResolveProxyShards, where
// a configured shard count wins. SOLROS_NET_BATCH=1 turns all four
// mechanisms on; the per-mechanism flags are applied after it, so
// SOLROS_NET_BATCH=1 SOLROS_NET_DRR=0 is batching without pipelined
// dispatch. Sized knobs accept positive values only and are clamped.
inline NetPathOptions ResolveNetPathOptions(NetPathOptions base) {
  auto env_flag = [](const char* name, bool* out) {
    const char* v = std::getenv(name);
    if (v != nullptr) {
      *out = std::atoi(v) != 0;
    }
  };
  auto env_u64 = [](const char* name, uint64_t* out) {
    const char* v = std::getenv(name);
    if (v != nullptr && std::atoll(v) > 0) {
      *out = static_cast<uint64_t>(std::atoll(v));
    }
  };
  bool batch = false;
  env_flag("SOLROS_NET_BATCH", &batch);
  if (batch) {
    base.coalescing = true;
    base.vectored_push = true;
    base.adaptive_copy = true;
    base.drr_dispatch = true;
  }
  env_flag("SOLROS_NET_COALESCE", &base.coalescing);
  env_flag("SOLROS_NET_VECTORED", &base.vectored_push);
  env_flag("SOLROS_NET_ADAPTIVE_COPY", &base.adaptive_copy);
  env_flag("SOLROS_NET_DRR", &base.drr_dispatch);
  uint64_t u = 0;
  u = base.net_coalesce_bytes;
  env_u64("SOLROS_NET_COALESCE_BYTES", &u);
  base.net_coalesce_bytes =
      static_cast<uint32_t>(std::clamp<uint64_t>(u, 1024, MiB(1)));
  u = static_cast<uint64_t>(base.net_plug_window_ns);
  env_u64("SOLROS_NET_PLUG_WINDOW_NS", &u);
  base.net_plug_window_ns =
      static_cast<Nanos>(std::clamp<uint64_t>(u, 100, Milliseconds(10)));
  u = base.max_events_per_push;
  env_u64("SOLROS_NET_PUSH_EVENTS", &u);
  base.max_events_per_push =
      static_cast<uint32_t>(std::clamp<uint64_t>(u, 1, 1024));
  return base;
}

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_OPTIONS_H_
