// Control-plane file-system proxy (§4.3.2).
//
// The proxy runs on the host, owns the only path to the NVMe device, and
// serves file-system RPCs from data-plane stubs. Its defining behaviour is
// the *data-path decision* per read/write:
//
//   peer-to-peer  — translate the file offset to disk extents (fiemap),
//                   translate the target address to the co-processor's
//                   system-mapped window, and issue ONE coalesced NVMe I/O
//                   vector whose DMA lands directly in co-processor memory
//                   (one doorbell, one interrupt — §5);
//   buffered      — stage through the host's shared buffer cache and move
//                   the bytes with a host-initiated DMA.
//
// Buffered is chosen when (§4.3.2): the data is cache-hot; the path would
// cross a NUMA boundary (Fig. 1(a)'s relay collapse); the file was opened
// with O_BUFFER; the transfer is not block-aligned; or the target is host
// memory anyway.
#ifndef SOLROS_SRC_FS_FS_PROXY_H_
#define SOLROS_SRC_FS_FS_PROXY_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/sharding.h"
#include "src/base/status.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/shared_extent_map.h"
#include "src/fs/io_scheduler.h"
#include "src/fs/nvme_block_store.h"
#include "src/fs/solros_fs.h"
#include "src/hw/dma.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/rpc/messages.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"
#include "src/transport/sim_ring.h"

namespace solros {

// Statistics that benchmarks assert on (path decisions, cache behaviour).
struct FsProxyStats {
  uint64_t requests = 0;
  uint64_t p2p_reads = 0;
  uint64_t p2p_writes = 0;
  uint64_t buffered_reads = 0;
  uint64_t buffered_writes = 0;
  // P2P transfers that faulted and were re-served via the buffered path.
  uint64_t degraded_reads = 0;
  uint64_t degraded_writes = 0;
};

class FsProxy;

// Registry for the sharded control plane: every FsProxy shard registers
// here and the broadcast operations (cross-shard cache invalidation,
// write-back flushes, fsync barriers) walk it. The first registered shard
// (shard 0) is the *designated barrier shard*: journal commits route
// through its core so ordered-class flushes keep one global order and the
// crash-consistency guarantees survive sharding unchanged.
class FsShardCoordinator {
 public:
  void Register(FsProxy* shard) { shards_.push_back(shard); }
  const std::vector<FsProxy*>& shards() const { return shards_; }
  FsProxy* barrier_shard() const {
    return shards_.empty() ? nullptr : shards_.front();
  }

 private:
  std::vector<FsProxy*> shards_;
};

// Identity of one proxy shard inside the sharded control plane. The
// defaults describe a standalone (unsharded) proxy, which behaves exactly
// like the historical single instance.
struct FsShardContext {
  int shard_id = 0;
  int shard_count = 1;
  // Shared versioned extent map (may be null: every Fiemap goes to the FS).
  SharedExtentMap* extent_map = nullptr;
  // Cross-shard registry (null: broadcasts degenerate to this shard only).
  FsShardCoordinator* coordinator = nullptr;
};

class FsProxy {
 public:
  struct Options {
    // Buffer cache capacity in fs blocks (0 disables the cache).
    size_t cache_blocks = 32768;  // 128 MiB
    // Coalesce NVMe vectors into one doorbell/interrupt (the §5
    // optimization; ablation A1 and fig01a measure it off).
    bool coalesce_nvme = true;
    // Allow P2P at all (ablation A2: force host-staging).
    bool allow_p2p = true;

    // --- staged-path cache and I/O scheduler. Only the toggles a bench
    // measures off stay settable. ---

    // Always-on mechanisms: the segmented LRU, write-back absorption,
    // coalesced write-back, vectored fs I/O, and the scheduler's
    // single-flight reads, plug batching and priority classes. They stay
    // as named constants only because solbench/workloads.cc echoes every
    // Options field in its config line, and that file stays unchanged
    // until the benchmark-only change of ROADMAP item 1(e).
    static constexpr bool cache_scan_resistant = true;
    static constexpr bool writeback_cache = true;
    static constexpr bool coalesced_writeback = true;
    static constexpr bool fs_vectored_io = true;
    static constexpr bool iosched_single_flight = true;
    static constexpr bool iosched_plug = true;
    static constexpr bool iosched_priority = true;

    // Fraction of the cache reserved for the protected segment.
    double cache_protected_fraction = 0.75;
    // Sequential read-ahead: per-(coprocessor, file) stream detection with
    // an adaptive window, faulted as one vectored NVMe read (fig18's
    // skewed storm turns it off).
    bool readahead = true;
    uint32_t readahead_min_blocks = 8;
    uint32_t readahead_max_blocks = 64;
    // Sequential reads at or below this size are steered to the buffered
    // path so the readahead window batches their device I/O; larger
    // sequential reads keep P2P's zero-copy advantage.
    uint64_t readahead_p2p_cutover = 128 * 1024;
    // Max pages one eviction-triggered write-back cluster may carry.
    uint32_t writeback_max_batch = 256;

    // Route staged-path device traffic through the I/O scheduler
    // (`false` sends it from the cache to the store directly; fig18's
    // iosched-off row).
    bool iosched = true;
    // Idle-arrival plug window (0 = no plug wait) and per-round cap.
    Nanos iosched_plug_window = Microseconds(4);
    uint32_t iosched_plug_max_batch = 32;
    // Deficit-round-robin across co-processors within a class (fig18
    // measures it off).
    bool iosched_fairness = true;
    uint32_t iosched_drr_quantum = 64;
    // Pipeline depth: dispatched-but-uncompleted submissions before
    // arrivals back-pressure at the scheduler (nr_requests analogue).
    uint32_t iosched_max_inflight = 4;
  };

  // `host_cpu` is the processor the proxy's per-request CPU work runs on —
  // the shared host pool for a standalone proxy, or this shard's dedicated
  // core in a sharded control plane. `shard` identifies the shard and wires
  // the explicitly shared structures (extent map, coordinator).
  FsProxy(Simulator* sim, PcieFabric* fabric, const HwParams& params,
          Processor* host_cpu, NvmeBlockStore* store, SolrosFs* fs,
          const Options& options,
          const FsShardContext& shard = FsShardContext());

  // Binds an RPC server on the given ring pair and starts serving.
  void Serve(SimRing* request_ring, SimRing* response_ring);

  // Handles one request (also callable directly, e.g. by HostLocalFs).
  Task<FsResponse> Handle(FsRequest request);

  // Pulls a whole file into the shared buffer cache (§4.3: the control
  // plane "prefetches frequently accessed files ... to the host memory");
  // subsequent buffered reads from any data plane are served from DRAM.
  // No-op without a cache.
  Task<Status> Prefetch(const std::string& path);

  const FsProxyStats& stats() const { return stats_; }
  BufferCache* cache() { return cache_.get(); }
  // The staged-path I/O scheduler (null when options.iosched is off).
  IoScheduler* io_scheduler() { return iosched_.get(); }
  SolrosFs* fs() { return fs_; }

  // -- shard introspection ----------------------------------------------------
  int shard_id() const { return shard_.shard_id; }
  int shard_count() const { return shard_.shard_count; }
  // Telemetry/analyzer component name: "fs.proxy" or "fs.proxy[k]".
  const std::string& label() const { return label_; }
  // Per-shard memo over the shared extent map (null when unwired).
  SharedExtentMap::ShardView* extent_view() { return extent_view_.get(); }
  // Live sequential-stream table size (regression surface for the
  // shard-qualified stream keys).
  size_t read_streams() const { return streams_.size(); }

 private:
  // `ctx` is the request's trace context rooted at the service span; data
  // ops thread it down to the cache/NVMe/DMA spans they cause (metadata I/O
  // stays untagged and is attributed to proxy time).
  Task<FsResponse> HandleRead(const FsRequest& request, TraceContext ctx);
  Task<FsResponse> HandleWrite(const FsRequest& request, TraceContext ctx);
  Task<FsResponse> HandleReaddir(const FsRequest& request, TraceContext ctx);
  Task<FsResponse> HandleMeta(const FsRequest& request);

  // §4.3.2's four buffered-mode triggers, plus the readahead steer: a
  // sequential stream with an open window (`readahead_window > 0`) at or
  // below the P2P cutover goes buffered so its device reads batch.
  Task<Result<bool>> ShouldUseP2p(const FsRequest& request, uint64_t length,
                                  uint32_t readahead_window = 0);

  // Per-(shard, coprocessor, file) sequential-stream state for readahead.
  // The shard id is part of the key so streams can never alias across a
  // re-partitioning when the shard count changes (two shards may both see
  // the same (client, ino) for different block groups of one file).
  using StreamKey = std::tuple<uint32_t, uint32_t, uint64_t>;
  struct ReadStream {
    uint64_t next_offset = 0;   // where a sequential successor would start
    uint32_t window_blocks = 0; // current readahead window (0 = no stream)
    std::list<StreamKey>::iterator lru_it;  // position in stream_lru_
  };
  // Updates the stream for (client, ino) with this read and returns the
  // readahead window (blocks to speculatively stage past the request).
  uint32_t UpdateReadStream(uint32_t client, uint64_t ino, uint64_t offset,
                            uint64_t length);

  // Buffered helpers (cache-aware staging + one host DMA). `ra_blocks`
  // extends the staged range past the request (clipped to `file_size`)
  // with readahead-tagged clean pages.
  Task<Status> BufferedRead(uint64_t ino, uint64_t offset, uint64_t length,
                            MemRef target, uint32_t ra_blocks,
                            uint64_t file_size, uint32_t client,
                            TraceContext ctx);
  Task<Status> BufferedWrite(uint64_t ino, uint64_t offset, uint64_t length,
                             MemRef source, TraceContext ctx);
  // Write-back coherence: pushes dirty cached pages covering `extents` to
  // the device before a path that reads the device directly (P2P read,
  // read-modify-write). Cheap no-op when nothing is dirty.
  Task<Status> FlushExtents(const std::vector<FsExtent>& extents);

  // -- cross-shard coherence protocol -----------------------------------------
  // Fiemap through the per-shard memo of the shared versioned extent map;
  // falls through to the FS (and re-memoizes) on a stale or missing entry.
  Task<Result<std::vector<FsExtent>>> CachedFiemap(uint64_t ino,
                                                   uint64_t offset,
                                                   uint64_t length);
  // Drops cached copies of `extents` on EVERY shard (freed or rewritten
  // blocks may be cached by whichever shard served them).
  void BroadcastInvalidate(const std::vector<FsExtent>& extents);
  // FlushExtents on every shard: any shard may hold dirty pages of a block
  // the caller is about to read from the device.
  Task<Status> BroadcastFlushExtents(const std::vector<FsExtent>& extents);
  // The fsync path under a volatile write cache, shard-wide: flush every
  // shard's cache, fence every shard's scheduler with an ordered barrier,
  // then run the one journal commit via the designated barrier shard.
  Task<Status> FsyncBarrier(uint32_t client);

  // Host DMA with bounded resubmission while faults are armed (the engine
  // aborts before moving bytes, so a reissue is safe).
  Task<Status> DmaCopyWithRetry(MemRef dst, MemRef src,
                                TraceContext ctx = {});

  // P2P health tracking: a run of faulted P2P transfers puts the P2P path
  // on cooldown so requests stop paying the fault-and-degrade latency and
  // go straight to the (working) buffered path for a while.
  void NoteP2pFault();
  void NoteP2pSuccess() { p2p_fault_streak_ = 0; }

  static FsResponse ErrorResponse(const Status& status);

  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  Processor* host_cpu_;
  NvmeBlockStore* store_;
  SolrosFs* fs_;
  Options options_;
  FsShardContext shard_;
  std::string label_;  // "fs.proxy" or "fs.proxy[k]"
  DmaEngine host_dma_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<IoScheduler> iosched_;
  std::unique_ptr<SharedExtentMap::ShardView> extent_view_;
  std::vector<std::unique_ptr<RpcServer<FsRequest, FsResponse>>> servers_;
  FsProxyStats stats_;
  // USE telemetry (label_): depth counts requests in service, errors count
  // system-error responses; the shard's dedicated core records its busy
  // intervals into the same series.
  UseSeries* use_ = nullptr;
  std::map<StreamKey, ReadStream> streams_;
  // MRU-first key list; back() is the victim when the table is full, so a
  // saturated table evicts in O(log n) instead of scanning every stream.
  std::list<StreamKey> stream_lru_;
  uint32_t p2p_fault_streak_ = 0;
  uint64_t p2p_cooldown_until_ = 0;  // request ordinal; 0 = not cooling down
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_FS_PROXY_H_
