// Slab-pooled allocation for simulator coroutine frames.
//
// Every `Task` (src/sim/task.h) allocates its frame through FramePool, and a
// busy simulation creates and destroys tens of frames per simulated
// operation. FramePool keeps one LIFO free list per 64-byte size class, so a
// frame of a size that just finished reuses that frame's memory without a
// trip through malloc. Frames larger than kMaxPooledBytes go to the global
// allocator.
//
// Free lists are carved from 64 KiB slabs by a bump pointer shared by all
// size classes, not from one heap block per frame: per-frame blocks that
// stay on the free lists pin holes across the heap and slow down unrelated
// large allocations.
//
// The pool is per thread (thread_local), so concurrent simulators on
// different threads never share a list. Slabs are never returned: a frame
// freed on another thread than the one that allocated it joins the freeing
// thread's list, and that stays valid only because no slab is ever freed.
//
// Under AddressSanitizer a free chunk is poisoned (only its list link is
// briefly unpoisoned while it is read or written), so touching a destroyed
// frame is still reported, as use-after-poison.
#ifndef SOLROS_SRC_SIM_FRAME_POOL_H_
#define SOLROS_SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SOLROS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SOLROS_ASAN 1
#endif
#endif

#if defined(SOLROS_ASAN)
#include <sanitizer/asan_interface.h>
#define SOLROS_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define SOLROS_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define SOLROS_POISON(addr, size) ((void)(addr), (void)(size))
#define SOLROS_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace solros {

class FramePool {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kMaxPooledBytes = 4096;
  static constexpr size_t kSlabBytes = 64 * 1024;

  static void* Allocate(size_t bytes) {
    if (bytes > kMaxPooledBytes) {
      return ::operator new(bytes);
    }
    State& state = state_;
    FreeChunk*& head = state.free[ClassOf(bytes)];
    if (head != nullptr) {
      FreeChunk* chunk = head;
      SOLROS_UNPOISON(chunk, sizeof(FreeChunk));
      head = chunk->next;
      SOLROS_UNPOISON(chunk, ClassSize(bytes));
      return chunk;
    }
    return Carve(ClassSize(bytes));
  }

  static void Free(void* frame, size_t bytes) {
    if (bytes > kMaxPooledBytes) {
      ::operator delete(frame);
      return;
    }
    FreeChunk*& head = state_.free[ClassOf(bytes)];
    FreeChunk* chunk = static_cast<FreeChunk*>(frame);
    chunk->next = head;
    head = chunk;
    SOLROS_POISON(chunk, ClassSize(bytes));
  }

  // Slabs this thread has taken from the global allocator so far.
  static size_t slab_count() { return state_.slabs; }

 private:
  struct FreeChunk {
    FreeChunk* next;
  };
  // Zero-initialized and trivially destructible, so a thread_local access
  // needs no initialization guard.
  struct State {
    FreeChunk* free[kMaxPooledBytes / kClassBytes];
    char* bump;
    char* bump_end;
    size_t slabs;
  };

  static size_t ClassOf(size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kClassBytes;
  }
  static size_t ClassSize(size_t bytes) {
    return (ClassOf(bytes) + 1) * kClassBytes;
  }

  // Takes `chunk_bytes` from the current slab, starting a new slab when it
  // is exhausted (the old slab's tail, under kMaxPooledBytes, is dropped).
  [[gnu::noinline]] static void* Carve(size_t chunk_bytes) {
    State& state = state_;
    if (static_cast<size_t>(state.bump_end - state.bump) < chunk_bytes) {
      state.bump = static_cast<char*>(::operator new(kSlabBytes));
      state.bump_end = state.bump + kSlabBytes;
      ++state.slabs;
      SOLROS_POISON(state.bump, kSlabBytes);
    }
    void* chunk = state.bump;
    state.bump += chunk_bytes;
    SOLROS_UNPOISON(chunk, chunk_bytes);
    return chunk;
  }

  static constinit inline thread_local State state_{};
};

}  // namespace solros

#undef SOLROS_POISON
#undef SOLROS_UNPOISON

#endif  // SOLROS_SRC_SIM_FRAME_POOL_H_
