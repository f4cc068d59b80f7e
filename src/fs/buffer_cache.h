// Host-side shared buffer cache (§4.3.2).
//
// The control-plane proxy keeps a cache of file-system blocks in host DRAM,
// shared by all data-plane OSes ("Solros is a shared-something
// architecture"). Pages live in a host DeviceBuffer arena so a hit can be
// served to a co-processor with a host-initiated DMA directly out of the
// cache — no disk access and no staging copy.
//
// Eviction is a segmented LRU (2Q-style): new pages enter a *probation*
// segment and are promoted to the *protected* segment on their second
// touch. A streaming scan from one co-processor therefore churns only
// probation and cannot flush another co-processor's hot (protected) working
// set.
//
// Write policy is write-back: dirty pages are flushed on eviction and on
// Flush(). Evictions gather the LBA-contiguous dirty cluster around the
// victim and Flush() sorts all dirty pages by LBA, so both go to the device
// as vectored multi-block writes (one command per contiguous run, one
// doorbell for the batch). Write-back snapshots content and clears dirty
// bits up front; every submission is tracked as an in-flight LBA range
// until the device confirms it, so (a) Flush/FlushRange wait out
// overlapping in-flight writes instead of treating snapshot-cleaned pages
// as durable, (b) no
// second write is ever submitted for an LBA that overlaps an in-flight one
// (NVMe gives no ordering across submissions), (c) a page re-dirtied
// while its snapshot is in flight keeps its dirty bit and is written again
// later rather than evicted with the new bytes dropped, and (d) a miss
// never reads, and InsertClean never installs, a block whose write-back is
// still in flight (its page may have been evicted clean meanwhile).
//
// Counters live in the process MetricRegistry (cache.hits, cache.misses,
// cache.evictions, cache.readahead_hits, cache.readahead_blocks,
// cache.writeback_coalesced_blocks, cache.writeback_runs) with segment and
// dirty sizes as gauges. The per-instance accessors read instance-local
// mirrors incremented alongside the globals, so multiple caches in one
// process each report their own traffic (the gauges, being process-global,
// reflect whichever instance updated last).
#ifndef SOLROS_SRC_FS_BUFFER_CACHE_H_
#define SOLROS_SRC_FS_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/fs/block_store.h"
#include "src/hw/memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace solros {

class IoScheduler;

struct BufferCacheOptions {
  // Fraction of capacity reserved for the protected segment.
  double protected_fraction = 0.75;
  // Max pages one eviction-triggered write-back cluster may carry.
  uint32_t writeback_max_batch = 256;
  // Batch vectored write-back under a single doorbell/interrupt.
  bool coalesce_nvme = true;
};

class BufferCache {
 public:
  // `arena_device` is where pages live (the host socket device).
  BufferCache(BlockStore* backing, DeviceId arena_device,
              size_t capacity_blocks,
              const BufferCacheOptions& options = BufferCacheOptions());

  // Routes backing-store traffic through `sched` (demand class for miss
  // fills, write-back class for flushes) instead of hitting the store
  // directly. Null (the default) goes to the store directly.
  void set_io_scheduler(IoScheduler* sched) { sched_ = sched; }

  // Attaches USE telemetry (default series "fs.cache"; a sharded proxy
  // passes "fs.cache[k]"): depth = dirty pages awaiting write-back, ops =
  // lookups, wait unused. No-op when the simulator has no telemetry hub.
  // The cache is built without a Simulator, so the owner (FsProxy, tests)
  // wires this explicitly.
  void set_telemetry(Simulator* sim, const std::string& series = "fs.cache");

  // Returns a reference to the cached page for `lba`, faulting it in from
  // the backing store on a miss (possibly evicting). The MemRef stays valid
  // until the page is evicted — use it immediately (single-threaded sim).
  Task<Result<MemRef>> GetBlock(uint64_t lba);

  // Marks a cached page dirty after the caller mutated it through GetBlock.
  void MarkDirty(uint64_t lba);

  // Installs a clean page from caller-provided content without touching the
  // backing store (the caller just read it, e.g. into a bounce buffer).
  // No-op if the block is already cached, or if a write-back of it is in
  // flight (the content may predate that write). Pages installed with
  // `readahead=true` count one cache.readahead_hits on their first
  // GetBlock touch (speculation that paid off).
  Task<Status> InsertClean(uint64_t lba, std::span<const uint8_t> content,
                           bool readahead = false);

  // Installs a full-block overwrite as a dirty page without faulting the
  // old content in from disk (write-back absorption). If the block is
  // already cached its content is replaced in place.
  Task<Status> InsertDirty(uint64_t lba, std::span<const uint8_t> content);

  // Convenience byte-span access through the cache.
  Task<Status> ReadThrough(uint64_t lba, uint32_t nblocks,
                           std::span<uint8_t> out);
  Task<Status> WriteThrough(uint64_t lba, uint32_t nblocks,
                            std::span<const uint8_t> in);

  // Drops a page without writeback (used when P2P bypasses the cache and
  // the cached copy would go stale).
  void Invalidate(uint64_t lba);
  void InvalidateRange(uint64_t lba, uint64_t nblocks);
  bool Contains(uint64_t lba) const;

  Task<Status> Flush();
  // Writes back (but keeps cached, now clean) every dirty page inside
  // [lba, lba+nblocks). Fast no-op when the cache holds no dirty pages —
  // the proxy calls this before P2P reads for write-back coherence.
  Task<Status> FlushRange(uint64_t lba, uint64_t nblocks);

  uint64_t hits() const { return local_hits_; }
  uint64_t misses() const { return local_misses_; }
  uint64_t evictions() const { return local_evictions_; }
  uint64_t readahead_hits() const { return local_readahead_hits_; }
  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  size_t dirty_pages() const { return dirty_count_; }
  // Whether a write-back submission covering part of [lba, lba+nblocks) is
  // still outstanding, and a wait until none is. A device read of such a
  // block may return the bytes the write-back replaces, and the page may
  // already have left the cache (it turned clean at snapshot time and can
  // be evicted mid-flight): whoever fills the cache from the device must
  // wait these out first.
  bool OverlapsInflight(uint64_t lba, uint64_t nblocks) const;
  Task<void> AwaitInflight(uint64_t lba, uint64_t nblocks);

  // True while a write-back submission is outstanding at the device. Pages
  // covered by it are already clean, so "dirty_pages() == 0" alone must
  // not be read as "everything durable".
  bool writeback_in_flight() const { return !inflight_.empty(); }
  size_t protected_pages() const { return protected_.size(); }
  size_t probation_pages() const { return probation_.size(); }

 private:
  enum class Segment : uint8_t { kProbation, kProtected };

  struct Page {
    uint64_t lba;
    size_t slot;
    bool dirty = false;
    bool readahead = false;  // speculative fill, not yet touched
    Segment segment = Segment::kProbation;
    std::list<uint64_t>::iterator lru_it;
  };

  // Dirty pages staged for write-back: content is snapshotted so the arena
  // slots may be concurrently evicted/reused while the write is in flight.
  struct WritebackPlan {
    std::vector<uint64_t> lbas;           // sorted, one per page
    std::vector<uint8_t> scratch;         // snapshot, lbas.size() blocks
    std::vector<ConstBlockRun> runs;      // contiguous groups over scratch
  };

  // One write-back submission not yet confirmed by the device. Pages in
  // [lo, hi] had their dirty bits cleared at snapshot time, so "no dirty
  // pages" alone does not mean the range is durable — flushes must wait
  // these out, and no new write may be submitted for an overlapping LBA
  // (the device gives no ordering across submissions).
  struct InflightWriteback {
    uint64_t lo;
    uint64_t hi;  // inclusive
  };

  Task<Status> EvictOne();
  // Backing-store I/O, routed through the I/O scheduler when one is set.
  Task<Status> BackingRead(uint64_t lba, uint32_t nblocks,
                           std::span<uint8_t> out);
  Task<Status> BackingWriteV(std::span<const ConstBlockRun> runs);
  // Writes `plan` to the backing store as one vectored submission tracked
  // as an in-flight range, re-marking still-cached pages dirty if the
  // write fails.
  Task<Status> WritebackRuns(WritebackPlan plan);
  Task<void> AwaitAllInflight();
  Task<void> WaitInflightChange();
  void NotifyInflight();
  // Snapshots the (sorted) dirty pages in `lbas` into a plan and clears
  // their dirty bits. Caller guarantees lbas are cached and dirty.
  WritebackPlan PlanWriteback(std::vector<uint64_t> lbas);
  Task<Status> InsertLocked(uint64_t lba, std::span<const uint8_t> content,
                            bool dirty, bool readahead);
  void TouchHit(Page& page, bool promote = true);
  void LinkNew(Page& page);
  void Unlink(const Page& page);
  std::list<uint64_t>& SegmentList(Segment segment) {
    return segment == Segment::kProtected ? protected_ : probation_;
  }
  void SetDirty(Page& page, bool dirty);
  void UpdateGauges();
  MemRef SlotRef(size_t slot);

  BlockStore* backing_;
  IoScheduler* sched_ = nullptr;
  size_t capacity_;
  uint32_t block_size_;
  BufferCacheOptions options_;
  size_t protected_cap_;
  DeviceBuffer arena_;
  std::vector<size_t> free_slots_;
  std::unordered_map<uint64_t, Page> map_;
  // front = most recent in both segments.
  std::list<uint64_t> probation_;
  std::list<uint64_t> protected_;
  size_t dirty_count_ = 0;
  std::list<InflightWriteback> inflight_;
  // Lazily built on first wait: the cache is constructed without a
  // Simulator, which Condition needs; waiters obtain it from their task.
  std::unique_ptr<Condition> inflight_cond_;

  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Counter* readahead_hits_;
  Counter* readahead_blocks_;
  Counter* writeback_coalesced_blocks_;
  Counter* writeback_runs_;
  Gauge* probation_gauge_;
  Gauge* protected_gauge_;
  Gauge* dirty_gauge_;
  Simulator* telemetry_sim_ = nullptr;  // time source for use_ stamps
  UseSeries* use_ = nullptr;
  // Instance-local mirrors of the global counters, so the accessors never
  // see another live cache's traffic.
  uint64_t local_hits_ = 0;
  uint64_t local_misses_ = 0;
  uint64_t local_evictions_ = 0;
  uint64_t local_readahead_hits_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_BUFFER_CACHE_H_
