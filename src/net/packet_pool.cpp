#include "net/packet_pool.hpp"

#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ESM_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ESM_POOL_ASAN 1
#endif
#endif

#ifdef ESM_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace esm::net::packet_pool {
namespace {

// Size classes are kGranule bytes apart: class c holds blocks of
// c * kGranule + 8 bytes. A malloc that keeps an 8-byte header per
// 16-byte-aligned chunk (glibc's does) fills its chunk exactly with such a
// block, so a pooled packet costs the same memory as a make_shared one
// instead of a chunk one granule larger.
constexpr std::size_t kGranule = 16;
constexpr std::size_t kClasses = kMaxBlock / kGranule + 1;

std::size_t class_of(std::size_t bytes) { return (bytes + 7) / kGranule; }

std::size_t class_bytes(std::size_t cls) { return cls * kGranule + 8; }

void poison(void* block, std::size_t bytes) {
#ifdef ESM_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

void unpoison(void* block, std::size_t bytes) {
#ifdef ESM_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

/// One thread's free lists, one stack of blocks per size class.
struct ThreadPool {
  std::vector<void*> lists[kClasses];

  ThreadPool() = default;
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();
};

// Trivially destructible, so it stays readable after the thread's
// ThreadPool has been destroyed (late releases at thread or process exit).
thread_local bool t_pool_gone = false;

ThreadPool* local_pool() {
  if (t_pool_gone) return nullptr;
  thread_local ThreadPool pool;
  return &pool;
}

ThreadPool::~ThreadPool() {
  t_pool_gone = true;
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    for (void* block : lists[cls]) {
      unpoison(block, class_bytes(cls));
      ::operator delete(block);
    }
  }
}

}  // namespace

void* allocate(std::size_t bytes) {
  if (bytes == 0 || bytes > kMaxBlock) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  if (ThreadPool* pool = local_pool()) {
    std::vector<void*>& list = pool->lists[cls];
    if (!list.empty()) {
      void* block = list.back();
      list.pop_back();
      unpoison(block, class_bytes(cls));
      return block;
    }
  }
  return ::operator new(class_bytes(cls));
}

void release(void* block, std::size_t bytes) noexcept {
  if (bytes != 0 && bytes <= kMaxBlock) {
    const std::size_t cls = class_of(bytes);
    ThreadPool* pool = local_pool();
    if (pool != nullptr && pool->lists[cls].size() < kPoolListCap) {
      try {
        pool->lists[cls].push_back(block);
        poison(block, class_bytes(cls));
        return;
      } catch (const std::bad_alloc&) {
        // The list could not grow: free the block instead.
      }
    }
  }
  ::operator delete(block);
}

std::size_t free_blocks(std::size_t bytes) {
  if (bytes == 0 || bytes > kMaxBlock) return 0;
  const ThreadPool* pool = local_pool();
  return pool == nullptr ? 0 : pool->lists[class_of(bytes)].size();
}

}  // namespace esm::net::packet_pool
