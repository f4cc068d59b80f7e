#include "src/fs/buffer_cache.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/fs/io_scheduler.h"
#include "src/sim/simulator.h"

namespace solros {

namespace {

size_t ProtectedCap(const BufferCacheOptions& options, size_t capacity) {
  if (capacity < 2) {
    return 0;
  }
  auto cap = static_cast<size_t>(static_cast<double>(capacity) *
                                 options.protected_fraction);
  return std::clamp<size_t>(cap, 1, capacity - 1);
}

}  // namespace

Task<Status> BufferCache::BackingRead(uint64_t lba, uint32_t nblocks,
                                      std::span<uint8_t> out) {
  if (sched_ != nullptr) {
    co_return co_await sched_->Read(lba, nblocks, out, IoClass::kDemand);
  }
  co_return co_await backing_->Read(lba, nblocks, out);
}

Task<Status> BufferCache::BackingWriteV(std::span<const ConstBlockRun> runs) {
  if (sched_ != nullptr) {
    // The scheduler applies its own coalescing policy for the round.
    co_return co_await sched_->WriteV(runs, IoClass::kWriteback);
  }
  co_return co_await backing_->WriteV(runs, options_.coalesce_nvme);
}

BufferCache::BufferCache(BlockStore* backing, DeviceId arena_device,
                         size_t capacity_blocks,
                         const BufferCacheOptions& options)
    : backing_(backing),
      capacity_(capacity_blocks),
      block_size_(backing->block_size()),
      options_(options),
      protected_cap_(ProtectedCap(options, capacity_blocks)),
      arena_(arena_device, capacity_blocks * backing->block_size()) {
  CHECK_GT(capacity_blocks, 0u);
  free_slots_.reserve(capacity_blocks);
  for (size_t i = 0; i < capacity_blocks; ++i) {
    free_slots_.push_back(capacity_blocks - 1 - i);
  }
  MetricRegistry& registry = MetricRegistry::Default();
  hits_ = registry.GetCounter("cache.hits");
  misses_ = registry.GetCounter("cache.misses");
  evictions_ = registry.GetCounter("cache.evictions");
  readahead_hits_ = registry.GetCounter("cache.readahead_hits");
  readahead_blocks_ = registry.GetCounter("cache.readahead_blocks");
  writeback_coalesced_blocks_ =
      registry.GetCounter("cache.writeback_coalesced_blocks");
  writeback_runs_ = registry.GetCounter("cache.writeback_runs");
  probation_gauge_ = registry.GetGauge("cache.probation_pages");
  protected_gauge_ = registry.GetGauge("cache.protected_pages");
  dirty_gauge_ = registry.GetGauge("cache.dirty_pages");
}

void BufferCache::set_telemetry(Simulator* sim, const std::string& series) {
  if (sim == nullptr || sim->telemetry() == nullptr) {
    return;
  }
  telemetry_sim_ = sim;
  use_ = sim->telemetry()->GetSeries(series);
}

bool BufferCache::OverlapsInflight(uint64_t lba, uint64_t nblocks) const {
  if (inflight_.empty() || nblocks == 0) {
    return false;
  }
  uint64_t last = lba + nblocks - 1;
  for (const InflightWriteback& w : inflight_) {
    if (w.lo <= last && w.hi >= lba) {
      return true;
    }
  }
  return false;
}

Task<void> BufferCache::WaitInflightChange() {
  if (inflight_cond_ == nullptr) {
    inflight_cond_ = std::make_unique<Condition>(co_await CurrentSimulator());
  }
  co_await inflight_cond_->Wait();
}

Task<void> BufferCache::AwaitInflight(uint64_t lba, uint64_t nblocks) {
  while (OverlapsInflight(lba, nblocks)) {
    co_await WaitInflightChange();
  }
}

Task<void> BufferCache::AwaitAllInflight() {
  while (!inflight_.empty()) {
    co_await WaitInflightChange();
  }
}

void BufferCache::NotifyInflight() {
  if (inflight_cond_ != nullptr) {
    inflight_cond_->NotifyAll();
  }
}

MemRef BufferCache::SlotRef(size_t slot) {
  return MemRef::Of(arena_, slot * block_size_, block_size_);
}

void BufferCache::SetDirty(Page& page, bool dirty) {
  if (page.dirty == dirty) {
    return;
  }
  page.dirty = dirty;
  dirty_count_ += dirty ? 1 : -1;
  dirty_gauge_->Set(static_cast<int64_t>(dirty_count_));
  if (use_ != nullptr) {
    use_->QueueDelta(telemetry_sim_->now(), dirty ? +1 : -1);
  }
}

void BufferCache::UpdateGauges() {
  probation_gauge_->Set(static_cast<int64_t>(probation_.size()));
  protected_gauge_->Set(static_cast<int64_t>(protected_.size()));
}

void BufferCache::LinkNew(Page& page) {
  probation_.push_front(page.lba);
  page.segment = Segment::kProbation;
  page.lru_it = probation_.begin();
}

void BufferCache::Unlink(const Page& page) {
  SegmentList(page.segment).erase(page.lru_it);
}

void BufferCache::TouchHit(Page& page, bool promote) {
  if (page.segment == Segment::kProtected) {
    protected_.splice(protected_.begin(), protected_, page.lru_it);
    page.lru_it = protected_.begin();
    return;
  }
  if (!promote) {
    // First real reference to a readahead page: refresh recency only. A
    // sequential scan consumes each prefetched page exactly once, so
    // counting that touch as reuse would promote the whole stream and
    // flush the protected segment.
    probation_.splice(probation_.begin(), probation_, page.lru_it);
    page.lru_it = probation_.begin();
    return;
  }
  // Second touch: promote probation -> protected.
  probation_.erase(page.lru_it);
  protected_.push_front(page.lba);
  page.segment = Segment::kProtected;
  page.lru_it = protected_.begin();
  if (protected_.size() > protected_cap_) {
    // Demote the protected tail back to probation (most-recent end, so it
    // still outlives a concurrent scan's churn).
    uint64_t demoted = protected_.back();
    auto it = map_.find(demoted);
    CHECK(it != map_.end());
    protected_.pop_back();
    probation_.push_front(demoted);
    it->second.segment = Segment::kProbation;
    it->second.lru_it = probation_.begin();
  }
}

BufferCache::WritebackPlan BufferCache::PlanWriteback(
    std::vector<uint64_t> lbas) {
  WritebackPlan plan;
  plan.lbas = std::move(lbas);
  plan.scratch.resize(plan.lbas.size() * block_size_);
  // Snapshot contents and clear dirty bits before any suspension: a page
  // re-dirtied mid-flight stays dirty (its new bytes get a later
  // write-back) and a concurrently evicted/reused slot cannot corrupt the
  // in-flight write.
  for (size_t i = 0; i < plan.lbas.size(); ++i) {
    auto it = map_.find(plan.lbas[i]);
    CHECK(it != map_.end());
    std::memcpy(plan.scratch.data() + i * block_size_,
                SlotRef(it->second.slot).span().data(), block_size_);
    SetDirty(it->second, false);
  }
  size_t i = 0;
  while (i < plan.lbas.size()) {
    size_t j = i + 1;
    while (j < plan.lbas.size() && plan.lbas[j] == plan.lbas[j - 1] + 1) {
      ++j;
    }
    plan.runs.push_back(ConstBlockRun{
        plan.lbas[i], static_cast<uint32_t>(j - i),
        std::span<const uint8_t>(plan.scratch.data() + i * block_size_,
                                 (j - i) * block_size_)});
    i = j;
  }
  return plan;
}

Task<Status> BufferCache::WritebackRuns(WritebackPlan plan) {
  if (plan.lbas.empty()) {
    co_return OkStatus();
  }
  writeback_runs_->Increment(plan.runs.size());
  writeback_coalesced_blocks_->Increment(plan.lbas.size());
  auto inflight = inflight_.insert(
      inflight_.end(),
      InflightWriteback{plan.lbas.front(), plan.lbas.back()});
  Status status = co_await BackingWriteV(plan.runs);
  inflight_.erase(inflight);
  NotifyInflight();
  if (!status.ok()) {
    // Put the pages back on the dirty list so a later flush retries them.
    for (uint64_t lba : plan.lbas) {
      auto it = map_.find(lba);
      if (it != map_.end()) {
        SetDirty(it->second, true);
      }
    }
  }
  co_return status;
}

Task<Status> BufferCache::EvictOne() {
  CHECK(!(probation_.empty() && protected_.empty()));
  std::list<uint64_t>& list = probation_.empty() ? protected_ : probation_;
  uint64_t victim = list.back();
  auto it = map_.find(victim);
  CHECK(it != map_.end());
  if (it->second.dirty) {
    if (OverlapsInflight(victim, 1)) {
      // An older snapshot of this page is already on its way to the device;
      // submitting the new bytes now would race it (the device gives no
      // ordering across submissions). Wait it out; the caller's eviction
      // loop retries.
      co_await AwaitInflight(victim, 1);
      co_return OkStatus();
    }
    // Gather the LBA-contiguous dirty cluster around the victim so one
    // eviction absorbs its neighbours' write-back too. Neighbours with an
    // older snapshot still in flight stay out (same ordering rule as
    // above).
    uint64_t lo = victim;
    uint64_t hi = victim;
    uint32_t count = 1;
    while (count < options_.writeback_max_batch && lo > 0) {
      auto p = map_.find(lo - 1);
      if (p == map_.end() || !p->second.dirty || OverlapsInflight(lo - 1, 1))
        break;
      --lo;
      ++count;
    }
    while (count < options_.writeback_max_batch) {
      auto p = map_.find(hi + 1);
      if (p == map_.end() || !p->second.dirty || OverlapsInflight(hi + 1, 1))
        break;
      ++hi;
      ++count;
    }
    std::vector<uint64_t> lbas;
    lbas.reserve(count);
    for (uint64_t lba = lo; lba <= hi; ++lba) {
      lbas.push_back(lba);
    }
    SOLROS_CO_RETURN_IF_ERROR(
        co_await WritebackRuns(PlanWriteback(std::move(lbas))));
    // The write-back suspended; re-resolve the victim, which may have been
    // invalidated (slot already freed), touched, or re-dirtied meanwhile.
    it = map_.find(victim);
    if (it == map_.end()) {
      co_return OkStatus();
    }
    if (it->second.dirty) {
      // Re-dirtied mid-flight: the cached bytes are newer than what just
      // reached the device. Keep the page for a later write-back; the
      // caller's eviction loop picks another victim.
      co_return OkStatus();
    }
  }
  free_slots_.push_back(it->second.slot);
  Unlink(it->second);
  map_.erase(it);
  evictions_->Increment();
  ++local_evictions_;
  UpdateGauges();
  co_return OkStatus();
}

Task<Result<MemRef>> BufferCache::GetBlock(uint64_t lba) {
  if (use_ != nullptr) {
    use_->CompleteOp(telemetry_sim_->now(), 0);
  }
  auto it = map_.find(lba);
  if (it == map_.end() && OverlapsInflight(lba, 1)) {
    // The device may still hold this block's previous bytes: wait for the
    // write-back, then look again (the wait suspends).
    co_await AwaitInflight(lba, 1);
    it = map_.find(lba);
  }
  if (it != map_.end()) {
    hits_->Increment();
    ++local_hits_;
    bool was_readahead = it->second.readahead;
    if (was_readahead) {
      readahead_hits_->Increment();
      ++local_readahead_hits_;
      it->second.readahead = false;
    }
    // A readahead page's first demand hit is its first reference, not a
    // reuse — it must not promote (see TouchHit).
    TouchHit(it->second, /*promote=*/!was_readahead);
    UpdateGauges();
    co_return SlotRef(it->second.slot);
  }
  misses_->Increment();
  ++local_misses_;
  while (free_slots_.empty()) {
    SOLROS_CO_RETURN_IF_ERROR(co_await EvictOne());
  }
  size_t slot = free_slots_.back();
  free_slots_.pop_back();
  MemRef ref = SlotRef(slot);
  SOLROS_CO_RETURN_IF_ERROR(co_await BackingRead(lba, 1, ref.span()));
  // Another task may have faulted the same block while we were reading
  // (the backing Read suspends); keep the established page and return our
  // slot to the free list.
  auto raced = map_.find(lba);
  if (raced != map_.end()) {
    free_slots_.push_back(slot);
    co_return SlotRef(raced->second.slot);
  }
  Page page;
  page.lba = lba;
  page.slot = slot;
  LinkNew(page);
  map_.emplace(lba, page);
  UpdateGauges();
  co_return ref;
}

Task<Status> BufferCache::InsertLocked(uint64_t lba,
                                       std::span<const uint8_t> content,
                                       bool dirty, bool readahead) {
  if (content.size() < block_size_) {
    co_return InvalidArgumentError("short page content");
  }
  if (!dirty && OverlapsInflight(lba, 1)) {
    co_return OkStatus();
  }
  auto it = map_.find(lba);
  if (it == map_.end() && free_slots_.empty()) {
    SOLROS_CO_RETURN_IF_ERROR(co_await EvictOne());
    // EvictOne may suspend (dirty writeback); re-check for a racing insert.
    it = map_.find(lba);
  }
  if (it != map_.end()) {
    if (dirty) {
      // Full-block overwrite of the established page.
      std::memcpy(SlotRef(it->second.slot).span().data(), content.data(),
                  block_size_);
      it->second.readahead = false;
      SetDirty(it->second, true);
      TouchHit(it->second);
      UpdateGauges();
    }
    co_return OkStatus();
  }
  if (free_slots_.empty()) {
    // A racing insert consumed the slot EvictOne freed; make another.
    while (free_slots_.empty()) {
      SOLROS_CO_RETURN_IF_ERROR(co_await EvictOne());
    }
    if (auto raced = map_.find(lba); raced != map_.end()) {
      if (dirty) {
        std::memcpy(SlotRef(raced->second.slot).span().data(), content.data(),
                    block_size_);
        raced->second.readahead = false;
        SetDirty(raced->second, true);
      }
      co_return OkStatus();
    }
  }
  size_t slot = free_slots_.back();
  free_slots_.pop_back();
  std::memcpy(SlotRef(slot).span().data(), content.data(), block_size_);
  Page page;
  page.lba = lba;
  page.slot = slot;
  page.readahead = readahead;
  LinkNew(page);
  auto [inserted, ok] = map_.emplace(lba, page);
  CHECK(ok);
  if (dirty) {
    SetDirty(inserted->second, true);
  }
  if (readahead) {
    readahead_blocks_->Increment();
  }
  UpdateGauges();
  co_return OkStatus();
}

Task<Status> BufferCache::InsertClean(uint64_t lba,
                                      std::span<const uint8_t> content,
                                      bool readahead) {
  co_return co_await InsertLocked(lba, content, /*dirty=*/false, readahead);
}

Task<Status> BufferCache::InsertDirty(uint64_t lba,
                                      std::span<const uint8_t> content) {
  co_return co_await InsertLocked(lba, content, /*dirty=*/true,
                                  /*readahead=*/false);
}

void BufferCache::MarkDirty(uint64_t lba) {
  auto it = map_.find(lba);
  CHECK(it != map_.end()) << "MarkDirty on uncached block " << lba;
  SetDirty(it->second, true);
}

Task<Status> BufferCache::ReadThrough(uint64_t lba, uint32_t nblocks,
                                      std::span<uint8_t> out) {
  if (out.size() < uint64_t{nblocks} * block_size_) {
    co_return InvalidArgumentError("span too short");
  }
  for (uint32_t i = 0; i < nblocks; ++i) {
    SOLROS_CO_ASSIGN_OR_RETURN(MemRef page, co_await GetBlock(lba + i));
    std::memcpy(out.data() + uint64_t{i} * block_size_, page.span().data(),
                block_size_);
  }
  co_return OkStatus();
}

Task<Status> BufferCache::WriteThrough(uint64_t lba, uint32_t nblocks,
                                       std::span<const uint8_t> in) {
  if (in.size() < uint64_t{nblocks} * block_size_) {
    co_return InvalidArgumentError("span too short");
  }
  for (uint32_t i = 0; i < nblocks; ++i) {
    SOLROS_CO_ASSIGN_OR_RETURN(MemRef page, co_await GetBlock(lba + i));
    std::memcpy(page.span().data(), in.data() + uint64_t{i} * block_size_,
                block_size_);
    MarkDirty(lba + i);
  }
  co_return OkStatus();
}

void BufferCache::Invalidate(uint64_t lba) {
  auto it = map_.find(lba);
  if (it == map_.end()) {
    return;
  }
  SetDirty(it->second, false);
  free_slots_.push_back(it->second.slot);
  Unlink(it->second);
  map_.erase(it);
  UpdateGauges();
}

void BufferCache::InvalidateRange(uint64_t lba, uint64_t nblocks) {
  for (uint64_t i = 0; i < nblocks; ++i) {
    Invalidate(lba + i);
  }
}

bool BufferCache::Contains(uint64_t lba) const {
  return map_.find(lba) != map_.end();
}

Task<Status> BufferCache::Flush() {
  // Loop until nothing is dirty AND nothing is in flight: waiting first
  // keeps us from racing a concurrent submission for the same LBAs, and a
  // failed in-flight write re-marks its pages dirty for the next pass.
  for (;;) {
    if (!inflight_.empty()) {
      co_await AwaitAllInflight();
      continue;
    }
    if (dirty_count_ == 0) {
      break;
    }
    std::vector<uint64_t> dirty;
    dirty.reserve(dirty_count_);
    for (const auto& [lba, page] : map_) {
      if (page.dirty) {
        dirty.push_back(lba);
      }
    }
    std::sort(dirty.begin(), dirty.end());
    SOLROS_CO_RETURN_IF_ERROR(
        co_await WritebackRuns(PlanWriteback(std::move(dirty))));
  }
  co_return co_await backing_->Flush();
}

Task<Status> BufferCache::FlushRange(uint64_t lba, uint64_t nblocks) {
  if (nblocks == 0) {
    co_return OkStatus();
  }
  // Loop until the range is clean AND no overlapping write-back is still
  // in flight: PlanWriteback clears dirty bits at snapshot time, so "no
  // dirty pages" alone does not mean the device has the bytes yet — a P2P
  // read issued after a no-wait return here could see stale data. Waiting
  // before snapshotting also ensures we never submit a second write for an
  // LBA whose older snapshot is still in flight. Still a free no-op when
  // nothing overlapping is dirty or in flight.
  for (;;) {
    if (OverlapsInflight(lba, nblocks)) {
      co_await AwaitInflight(lba, nblocks);
      continue;
    }
    if (dirty_count_ == 0) {
      co_return OkStatus();
    }
    std::vector<uint64_t> dirty;
    if (nblocks < map_.size()) {
      for (uint64_t i = 0; i < nblocks; ++i) {
        auto it = map_.find(lba + i);
        if (it != map_.end() && it->second.dirty) {
          dirty.push_back(lba + i);
        }
      }
    } else {
      for (const auto& [cached, page] : map_) {
        if (page.dirty && cached >= lba && cached < lba + nblocks) {
          dirty.push_back(cached);
        }
      }
      std::sort(dirty.begin(), dirty.end());
    }
    if (dirty.empty()) {
      co_return OkStatus();
    }
    SOLROS_CO_RETURN_IF_ERROR(
        co_await WritebackRuns(PlanWriteback(std::move(dirty))));
  }
}

}  // namespace solros
