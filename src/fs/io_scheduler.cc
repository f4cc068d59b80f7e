#include "src/fs/io_scheduler.h"

#include <algorithm>
#include <cstring>

#include "src/base/fault.h"
#include "src/base/logging.h"

namespace solros {

namespace {
// Host-side submission-path stall injected by the iosched.stall fault
// point (IRQ storm, CPU contention between unplug and doorbell).
constexpr Nanos kStallDelay = Microseconds(100);
}  // namespace

IoScheduler::IoScheduler(Simulator* sim, NvmeBlockStore* store,
                         const IoSchedulerOptions& options)
    : sim_(sim),
      store_(store),
      options_(options),
      block_size_(store->block_size()),
      work_cond_(sim),
      plug_cond_(sim),
      done_cond_(sim) {
  CHECK(sim != nullptr);
  CHECK(store != nullptr);
  MetricRegistry& registry = MetricRegistry::Default();
  batches_ = registry.GetCounter("iosched.batches");
  merges_ = registry.GetCounter("iosched.merges");
  plugs_ = registry.GetCounter("iosched.plugs");
  dedup_hits_ = registry.GetCounter("iosched.dedup_hits");
  stalls_ = registry.GetCounter("iosched.stalls");
  dispatched_[static_cast<int>(IoClass::kOrdered)] =
      registry.GetCounter("iosched.dispatched.ordered");
  dispatched_[static_cast<int>(IoClass::kDemand)] =
      registry.GetCounter("iosched.dispatched.demand");
  dispatched_[static_cast<int>(IoClass::kWriteback)] =
      registry.GetCounter("iosched.dispatched.writeback");
  dispatched_[static_cast<int>(IoClass::kReadahead)] =
      registry.GetCounter("iosched.dispatched.readahead");
  queue_ns_ = registry.GetHistogram("iosched.queue_ns");
  if (sim->telemetry() != nullptr) {
    const std::string& sfx = options_.telemetry_suffix;
    use_[static_cast<int>(IoClass::kOrdered)] =
        sim->telemetry()->GetSeries("iosched.ordered" + sfx);
    use_[static_cast<int>(IoClass::kDemand)] =
        sim->telemetry()->GetSeries("iosched.demand" + sfx);
    use_[static_cast<int>(IoClass::kWriteback)] =
        sim->telemetry()->GetSeries("iosched.writeback" + sfx);
    use_[static_cast<int>(IoClass::kReadahead)] =
        sim->telemetry()->GetSeries("iosched.readahead" + sfx);
  }
}

Task<Status> IoScheduler::Read(uint64_t lba, uint32_t nblocks,
                               std::span<uint8_t> out, IoClass cls,
                               uint32_t client, TraceContext ctx) {
  if (nblocks == 0) {
    co_return OkStatus();
  }
  const uint64_t bytes = uint64_t{nblocks} * block_size_;
  if (out.size() < bytes) {
    co_return InvalidArgumentError("iosched read span too short");
  }
  IoRequest req;
  req.cls = cls;
  req.client = client;
  req.ctx = ctx;
  req.blocks = nblocks;
  req.lba = lba;
  req.nblocks = nblocks;
  req.out = out.first(bytes);
  co_return co_await Submit(&req);
}

Task<Status> IoScheduler::WriteV(std::span<const ConstBlockRun> runs,
                                 IoClass cls, uint32_t client,
                                 TraceContext ctx) {
  if (runs.empty()) {
    co_return OkStatus();
  }
  IoRequest req;
  req.is_write = true;
  req.cls = cls;
  req.client = client;
  req.ctx = ctx;
  req.wruns.reserve(runs.size());
  for (const ConstBlockRun& run : runs) {
    const uint64_t bytes = uint64_t{run.nblocks} * block_size_;
    if (run.data.size() < bytes) {
      co_return InvalidArgumentError("iosched writev span too short");
    }
    req.blocks += run.nblocks;
    req.wruns.push_back(ConstBlockRun{run.lba, run.nblocks,
                                      run.data.first(bytes)});
  }
  co_return co_await Submit(&req);
}

Task<Status> IoScheduler::Flush(uint32_t client, TraceContext ctx) {
  IoRequest req;
  req.is_flush = true;
  req.cls = IoClass::kOrdered;
  req.client = client;
  req.ctx = ctx;
  req.blocks = 1;  // DRR accounting: a barrier charges one block
  co_return co_await Submit(&req);
}

IoScheduler::InflightReads* IoScheduler::FindInflightCover(uint64_t lba,
                                                           uint32_t nblocks) {
  for (InflightReads* batch : inflight_reads_) {
    for (const MergedRun& m : batch->runs) {
      if (lba >= m.lba && lba + nblocks <= m.lba + m.nblocks) {
        return batch;
      }
    }
  }
  return nullptr;
}

void IoScheduler::RecordQueueSpan(const IoRequest& req, SimTime end) {
  Tracer* tracer = sim_->tracer();
  if (tracer == nullptr || !req.ctx.traced()) {
    return;
  }
  tracer->RecordSpan("iosched", "iosched.queue", req.enqueued, end, req.ctx);
}

void IoScheduler::FinishRequest(IoRequest* req, const Status& status) {
  req->status = status;
  req->done = true;
}

Task<Status> IoScheduler::Submit(IoRequest* req) {
  req->enqueued = sim_->now();
  req->seq = ++arrivals_;
  if (!req->is_write) {
    if (InflightReads* cover = FindInflightCover(req->lba, req->nblocks);
        cover != nullptr) {
      // Single-flight attach: the bytes are already on their way; wait for
      // that submission (its Status included — a shared fetch that fails
      // fails every waiter) instead of re-reading flash.
      dedup_hits_->Increment();
      ++local_dedup_hits_;
      cover->waiters.push_back(req);
      while (!req->done) {
        co_await done_cond_.Wait();
      }
      co_return req->status;
    }
  }
  const uint32_t key = options_.fairness ? req->client : 0;
  ClassQueue& cq = classes_[static_cast<int>(req->cls)];
  auto [it, inserted] = cq.clients.try_emplace(key);
  if (inserted) {
    cq.rr.push_back(key);
  }
  it->second.fifo.push_back(req);
  ++pending_;
  if (UseSeries* use = use_[static_cast<int>(req->cls)]; use != nullptr) {
    use->QueueDelta(req->enqueued, +1);
  }
  EnsureDispatcher();
  work_cond_.NotifyAll();
  if (plugged_ && pending_ >= options_.plug_max_batch) {
    plug_cond_.NotifyAll();
  }
  while (!req->done) {
    co_await done_cond_.Wait();
  }
  co_return req->status;
}

void IoScheduler::EnsureDispatcher() {
  if (dispatcher_started_) {
    return;
  }
  dispatcher_started_ = true;
  Spawn(*sim_, DispatchLoop());
}

Task<void> IoScheduler::DispatchLoop() {
  // The arrival that started the dispatcher found the scheduler idle.
  bool idle_arrival = true;
  for (;;) {
    while (pending_ == 0) {
      co_await work_cond_.Wait();
      idle_arrival = true;
    }
    if (idle_arrival && options_.plug_window > 0) {
      co_await PlugWait();
    }
    // Back-pressure: past max_inflight_batches the backlog stays queued
    // here, where SelectBatch can still reorder it, instead of draining
    // into the device's FIFO queue slots. A pending barrier fences the
    // pipeline completely: nothing dispatches past an ordered flush.
    while (barrier_pending_ > 0 ||
           inflight_batches_ >=
               std::max<uint32_t>(options_.max_inflight_batches, 1)) {
      co_await done_cond_.Wait();
    }
    co_await DispatchRound();
    // A backlog deeper than one round drains in back-to-back rounds with
    // no plug window between them; only a fresh idle-arrival plugs.
    idle_arrival = false;
  }
}

Task<void> IoScheduler::PlugWait() {
  plugs_->Increment();
  ++local_plugs_;
  plugged_ = true;
  const uint64_t epoch = ++plug_epoch_;
  Spawn(*sim_, PlugTimer(epoch));
  while (plugged_ && pending_ < options_.plug_max_batch) {
    co_await plug_cond_.Wait();
  }
  plugged_ = false;
}

Task<void> IoScheduler::PlugTimer(uint64_t epoch) {
  co_await Delay(options_.plug_window);
  if (plugged_ && plug_epoch_ == epoch) {
    plugged_ = false;
    plug_cond_.NotifyAll();
  }
}

Task<void> IoScheduler::DispatchRound() {
  std::vector<IoRequest*> batch = SelectBatch();
  if (batch.empty()) {
    co_return;
  }
  const SimTime now = sim_->now();
  for (IoRequest* r : batch) {
    if (r->is_flush) {
      // Barriers record their span and telemetry at completion (inside
      // SubmitFlushes) so the drain + device-flush time is attributed to
      // them rather than vanishing between stages.
      continue;
    }
    RecordQueueSpan(*r, now);
    queue_ns_->Record(now - r->enqueued);
    dispatched_[static_cast<int>(r->cls)]->Increment();
    ++local_dispatched_[static_cast<int>(r->cls)];
    if (UseSeries* use = use_[static_cast<int>(r->cls)]; use != nullptr) {
      use->QueueDelta(now, -1);
      use->CompleteOp(now, now - r->enqueued);
    }
  }
  batches_->Increment();
  ++local_batches_;
  static FaultPoint* const stall = Faults().GetPoint("iosched.stall");
  if (stall->ShouldFire()) {
    stalls_->Increment();
    ++local_stalls_;
    TRACE_INSTANT(sim_, "iosched", "iosched.stall");
    if (UseSeries* use = use_[static_cast<int>(batch.front()->cls)];
        use != nullptr) {
      use->AddError(sim_->now());
    }
    co_await Delay(kStallDelay);
  }
  std::vector<IoRequest*> reads;
  std::vector<IoRequest*> writes;
  std::vector<IoRequest*> flushes;
  for (IoRequest* r : batch) {
    (r->is_flush ? flushes : r->is_write ? writes : reads).push_back(r);
  }
  // Fire-and-forget: the round's submissions complete on their own frames
  // so the dispatcher can keep the device's queue slots fed with further
  // rounds instead of pinning queue depth at one submission.
  if (!reads.empty()) {
    ++inflight_batches_;
    Spawn(*sim_, SubmitReads(std::move(reads)));
  }
  if (!writes.empty()) {
    ++inflight_batches_;
    Spawn(*sim_, SubmitWrites(std::move(writes)));
  }
  if (!flushes.empty()) {
    ++inflight_batches_;
    ++barrier_pending_;  // fences DispatchLoop until the flush completes
    Spawn(*sim_, SubmitFlushes(std::move(flushes)));
  }
}

Task<void> IoScheduler::SubmitReads(std::vector<IoRequest*> reads) {
  std::sort(reads.begin(), reads.end(),
            [](const IoRequest* a, const IoRequest* b) {
              return a->lba != b->lba ? a->lba < b->lba : a->seq < b->seq;
            });
  InflightReads batch;
  struct Placement {
    size_t run;
    uint64_t block_off;
  };
  std::vector<Placement> place;
  place.reserve(reads.size());
  uint64_t scratch_blocks = 0;
  for (const IoRequest* r : reads) {
    const uint64_t lo = r->lba;
    const uint64_t hi = lo + r->nblocks;
    if (!batch.runs.empty()) {
      MergedRun& m = batch.runs.back();
      const uint64_t mend = m.lba + m.nblocks;
      // Adjacent runs merge into one command (plug batching); overlapping
      // ranges union-merge so each block is fetched once (single flight).
      if (lo <= mend) {
        if (hi <= mend) {
          dedup_hits_->Increment();
          ++local_dedup_hits_;
        } else {
          m.nblocks += static_cast<uint32_t>(hi - mend);
          scratch_blocks += hi - mend;
          merges_->Increment();
          ++local_merges_;
        }
        place.push_back({batch.runs.size() - 1, lo - m.lba});
        continue;
      }
    }
    place.push_back({batch.runs.size(), 0});
    batch.runs.push_back(MergedRun{lo, r->nblocks, scratch_blocks});
    scratch_blocks += r->nblocks;
  }
  batch.scratch.resize(scratch_blocks * block_size_);
  std::vector<BlockRun> runs;
  runs.reserve(batch.runs.size());
  for (const MergedRun& m : batch.runs) {
    runs.push_back(BlockRun{
        m.lba, m.nblocks,
        std::span<uint8_t>(
            batch.scratch.data() + m.scratch_block * block_size_,
            uint64_t{m.nblocks} * block_size_)});
  }
  TraceContext batch_ctx;
  for (const IoRequest* r : reads) {
    if (r->ctx.traced()) {
      batch_ctx = r->ctx;
      break;
    }
  }
  // Expose the merged coverage while the device works so late-arriving
  // covered reads can attach. Retries happen below, in ReadRuns.
  inflight_reads_.push_back(&batch);
  Status status =
      co_await store_->ReadRuns(runs, options_.coalesce_nvme, batch_ctx);
  inflight_reads_.erase(
      std::find(inflight_reads_.begin(), inflight_reads_.end(), &batch));
  for (size_t i = 0; i < reads.size(); ++i) {
    IoRequest* r = reads[i];
    if (status.ok()) {
      const MergedRun& m = batch.runs[place[i].run];
      std::memcpy(r->out.data(),
                  batch.scratch.data() +
                      (m.scratch_block + place[i].block_off) * block_size_,
                  uint64_t{r->nblocks} * block_size_);
    }
    FinishRequest(r, status);
  }
  const SimTime now = sim_->now();
  for (IoRequest* w : batch.waiters) {
    if (status.ok()) {
      const MergedRun* m = nullptr;
      for (const MergedRun& run : batch.runs) {
        if (w->lba >= run.lba &&
            w->lba + w->nblocks <= run.lba + run.nblocks) {
          m = &run;
          break;
        }
      }
      CHECK(m != nullptr);
      std::memcpy(w->out.data(),
                  batch.scratch.data() +
                      (m->scratch_block + (w->lba - m->lba)) * block_size_,
                  uint64_t{w->nblocks} * block_size_);
    }
    RecordQueueSpan(*w, now);
    queue_ns_->Record(now - w->enqueued);
    FinishRequest(w, status);
  }
  --inflight_batches_;
  done_cond_.NotifyAll();
}

Task<void> IoScheduler::SubmitWrites(std::vector<IoRequest*> writes) {
  struct Piece {
    uint64_t lba;
    uint32_t nblocks;
    std::span<const uint8_t> data;
    uint64_t seq;
  };
  std::vector<Piece> pieces;
  uint64_t total_blocks = 0;
  for (const IoRequest* r : writes) {
    for (const ConstBlockRun& run : r->wruns) {
      pieces.push_back({run.lba, run.nblocks, run.data, r->seq});
      total_blocks += run.nblocks;
    }
  }
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    return a.lba != b.lba ? a.lba < b.lba : a.seq < b.seq;
  });
  // Copy into one contiguous scratch so adjacent runs become one command.
  // Overlapping writes never merge: the device gives no ordering within a
  // submission, and the cache's in-flight range tracking means callers
  // never overlap anyway.
  std::vector<uint8_t> scratch(total_blocks * block_size_);
  std::vector<ConstBlockRun> runs;
  uint64_t cursor = 0;  // blocks copied into scratch
  for (const Piece& p : pieces) {
    const uint64_t bytes = uint64_t{p.nblocks} * block_size_;
    std::memcpy(scratch.data() + cursor * block_size_, p.data.data(), bytes);
    if (!runs.empty() &&
        runs.back().lba + runs.back().nblocks == p.lba) {
      ConstBlockRun& last = runs.back();
      last = ConstBlockRun{
          last.lba, last.nblocks + p.nblocks,
          std::span<const uint8_t>(
              last.data.data(),
              last.data.size() + bytes)};
      merges_->Increment();
      ++local_merges_;
    } else {
      runs.push_back(ConstBlockRun{
          p.lba, p.nblocks,
          std::span<const uint8_t>(scratch.data() + cursor * block_size_,
                                   bytes)});
    }
    cursor += p.nblocks;
  }
  TraceContext batch_ctx;
  for (const IoRequest* r : writes) {
    if (r->ctx.traced()) {
      batch_ctx = r->ctx;
      break;
    }
  }
  Status status =
      co_await store_->WriteRuns(runs, options_.coalesce_nvme, batch_ctx);
  for (IoRequest* r : writes) {
    FinishRequest(r, status);
  }
  --inflight_batches_;
  done_cond_.NotifyAll();
}

Task<void> IoScheduler::SubmitFlushes(std::vector<IoRequest*> flushes) {
  // The barrier half: every submission dispatched before this round (reads
  // or writes, possibly spawned in the same round) must complete before
  // the flush command goes down, so the flush covers them. Our own batch
  // holds one inflight slot.
  while (inflight_batches_ > 1) {
    co_await done_cond_.Wait();
  }
  Status status = co_await store_->Flush();
  const SimTime now = sim_->now();
  for (IoRequest* r : flushes) {
    RecordQueueSpan(*r, now);
    queue_ns_->Record(now - r->enqueued);
    dispatched_[static_cast<int>(IoClass::kOrdered)]->Increment();
    ++local_dispatched_[static_cast<int>(IoClass::kOrdered)];
    if (UseSeries* use = use_[static_cast<int>(IoClass::kOrdered)];
        use != nullptr) {
      use->QueueDelta(now, -1);
      use->CompleteOp(now, now - r->enqueued);
      if (!status.ok()) {
        use->AddError(now);
      }
    }
    FinishRequest(r, status);
  }
  --inflight_batches_;
  --barrier_pending_;
  done_cond_.NotifyAll();
}

std::vector<IoScheduler::IoRequest*> IoScheduler::SelectBatch() {
  peak_queued_ = std::max(peak_queued_, pending_);
  std::vector<IoRequest*> out;
  const uint32_t cap = std::max<uint32_t>(options_.plug_max_batch, 1);
  for (int c = 0; c < kIoClassCount; ++c) {
    ClassQueue& cq = classes_[c];
    if (cq.rr.empty()) {
      continue;
    }
    if (!options_.fairness) {
      // One queue (key 0), pure arrival order.
      ClientQueue& q = cq.clients.begin()->second;
      while (!q.fifo.empty() && out.size() < cap) {
        out.push_back(q.fifo.front());
        q.fifo.pop_front();
      }
      if (q.fifo.empty()) {
        cq.clients.clear();
        cq.rr.clear();
      }
    } else {
      const uint64_t quantum =
          std::max<uint32_t>(options_.drr_quantum_blocks, 1);
      while (!cq.rr.empty() && out.size() < cap) {
        const uint32_t key = cq.rr.front();
        cq.rr.pop_front();
        auto it = cq.clients.find(key);
        CHECK(it != cq.clients.end());
        ClientQueue& q = it->second;
        q.deficit += quantum;
        while (!q.fifo.empty() && out.size() < cap &&
               q.fifo.front()->blocks <= q.deficit) {
          q.deficit -= q.fifo.front()->blocks;
          out.push_back(q.fifo.front());
          q.fifo.pop_front();
        }
        if (q.fifo.empty()) {
          // Deficit resets when a client goes idle (standard DRR).
          cq.clients.erase(it);
        } else {
          cq.rr.push_back(key);  // backlogged: rotate, deficit carries
          if (out.size() >= cap) {
            break;
          }
        }
      }
    }
    if (!out.empty()) {
      // Strict class priority: one class per round.
      break;
    }
  }
  pending_ -= out.size();
  return out;
}

}  // namespace solros
