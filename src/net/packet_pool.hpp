// Pooled storage for transport packets.
//
// Every protocol send builds one short-lived packet (an IHAVE, an IWANT, a
// MSG, ...) that lives from send() until the receiver's handler returns.
// With std::make_shared each of those is one operator new and one
// operator delete; make_packet() instead places the packet and its
// shared_ptr control block in a block taken from a per-thread, size-class
// free list, so the steady-state packet path allocates nothing.
//
// Ownership rules:
//   * each thread has its own free lists; a block goes back to the list of
//     the thread that RELEASES it, which need not be the one that made it
//     (sharded runs hand packets across shard threads, and shard workers
//     are joined while packets they made may still be alive);
//   * each list is capped (kPoolListCap blocks), so a one-way flow of
//     packets into one thread cannot grow its list without bound — the
//     surplus goes straight back to operator delete;
//   * a thread's blocks are freed when the thread exits; a release after
//     that (a packet outliving its last user thread's pool) goes straight
//     to operator delete.
//
// Every block is an individual operator-new allocation, so any block can be
// freed by any thread at any time. Blocks larger than the largest size
// class bypass the pool entirely. Under AddressSanitizer a block is
// poisoned while it sits on a free list, so a use after release still
// reports.
//
// PacketPtr stays std::shared_ptr<const Packet>: pooled and make_shared
// packets mix freely, and static_pointer_cast works on both.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace esm::net {

namespace packet_pool {

/// Requests above kMaxBlock bytes bypass the pool.
inline constexpr std::size_t kMaxBlock = 256;
/// Most blocks one thread keeps per size class.
inline constexpr std::size_t kPoolListCap = std::size_t{1} << 16;

/// A block of at least `bytes` bytes, aligned for std::max_align_t.
void* allocate(std::size_t bytes);
/// Returns a block from allocate(bytes) to the calling thread's list.
void release(void* block, std::size_t bytes) noexcept;

/// Blocks on the calling thread's free list for `bytes`' size class
/// (test helper).
std::size_t free_blocks(std::size_t bytes);

/// Minimal allocator over the pool, for std::allocate_shared.
template <typename T>
struct Allocator {
  using value_type = T;
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "pooled blocks are only max_align_t aligned");

  Allocator() = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(packet_pool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    packet_pool::release(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const Allocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace packet_pool

/// Builds a packet of type T in pooled storage. Same semantics as
/// std::make_shared<T>(args...).
template <typename T, typename... Args>
std::shared_ptr<T> make_packet(Args&&... args) {
  return std::allocate_shared<T>(packet_pool::Allocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace esm::net
