#include "solbench/host_clock.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace solbench {
namespace {

// 128 MiB: above the 105 MiB last-level cache of the Xeon hosts this was
// tuned on, so the kernel's buffer accesses go to DRAM as the simulator's
// cold accesses do.
constexpr uint64_t kWords = uint64_t{1} << 24;
constexpr uint64_t kTableSlots = 1 << 16;
constexpr uint64_t kPending = 1024;
constexpr int kEventsPerRun = 10000;
// Four fresh 32 MiB mappings per fault-kernel run: 32768 page faults.
constexpr int kFaultMappings = 4;
constexpr size_t kFaultMappingBytes = size_t{32} << 20;

std::atomic<uint64_t> g_allocations{0};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

RefKernel::RefKernel() : words_(kWords) {
  for (uint64_t i = 0; i < kWords; ++i) {
    words_[i] = Mix(i);
  }
  for (uint64_t i = 0; i < kTableSlots; ++i) {
    table_[i] = std::make_unique<std::vector<uint64_t>>(4 + (i & 31), i);
  }
  for (uint64_t i = 0; i < kPending; ++i) {
    events_.push(Event{i, seq_++, [this, i] { Step(Mix(i)); }});
  }
}

// One event: look up (and now and then replace) a small heap object, fold
// it into a random word of the big buffer, and post the next event at a
// pseudo-random delay, keeping kPending events queued.
void RefKernel::Step(uint64_t key) {
  auto& object = table_[key & (kTableSlots - 1)];
  if ((key & 7) == 0) {
    object = std::make_unique<std::vector<uint64_t>>(4 + (key & 31), key);
  }
  uint64_t& word = words_[key & (kWords - 1)];
  word += (*object)[key % object->size()];
  const uint64_t next = Mix(key ^ word);
  events_.push(
      Event{now_ + (next & 1023), seq_++, [this, next] { Step(next); }});
}

double RefKernel::Run() {
  const double start = NowSeconds();
  for (int i = 0; i < kEventsPerRun; ++i) {
    Event event = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = event.when;
    event.fn();
  }
  return NowSeconds() - start;
}

double RunFaultKernel() {
  const double start = NowSeconds();
  for (int i = 0; i < kFaultMappings; ++i) {
    void* p = mmap(nullptr, kFaultMappingBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::abort();
    }
    std::memset(p, i + 1, kFaultMappingBytes);
    asm volatile("" : : "r"(p) : "memory");
    munmap(p, kFaultMappingBytes);
  }
  return NowSeconds() - start;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace solbench

// Counting replacements for the global allocation functions (the
// sim.allocs_per_op metric). They forward to malloc/free like the library
// defaults do.
namespace {

void* CountedAlloc(std::size_t size) {
  solbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  solbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
