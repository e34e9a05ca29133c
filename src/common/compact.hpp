// Compact, cache-conscious containers for per-node protocol state.
//
// The simulator's footprint at large N is dominated by millions of small
// per-node hash tables: `std::unordered_map` costs one heap node (~56-88
// bytes) per entry plus a bucket array per table, and every lookup chases
// at least two pointers. The containers here replace that with flat
// storage sized for the access patterns the protocol actually has:
//
//   * FlatMap   — open-addressing hash map over *integer* keys (interned
//     message keys, node ids, packed link ids) with linear probing and
//     backward-shift deletion. One contiguous slot array, no per-entry
//     allocation, O(1) amortized everything at load factor <= 0.75.
//   * DynamicBitset — membership sets over dense integer keys (the
//     received/known sets, which only ever grow within a run) at one bit
//     per key instead of one hash-set node.
//   * Slab      — index-addressed object pool with a LIFO free list.
//     Freed objects are *reset, not destroyed*, so any heap the payload
//     type owns (e.g. a Pending's source vectors) is recycled on reuse —
//     steady-state operation performs zero per-message allocation.
//   * InlineVector — vector of trivially copyable values with N inline
//     slots that spills to the heap beyond them (the one-id IHAVE id list
//     costs no allocation).
//   * Ring      — FIFO ring buffer that keeps its capacity, with O(i)
//     erase near the front (a node's egress queue).
//
// Determinism: none of these containers ever iterates in an order that
// depends on pointer values or randomized hashing. FlatMap's slot order is
// a pure function of the insertion/erase sequence, Slab hands out indices
// in a pure LIFO discipline, and the bitset is index-ordered. Two runs
// performing the same operation sequence see bit-identical behavior — the
// property the equivalence goldens (tests/test_equivalence.cpp) pin.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace esm::compact {

/// Fibonacci multiplicative mix: spreads sequential integer keys (interned
/// message keys are assigned densely) across the table.
inline std::uint64_t mix_key(std::uint64_t k) {
  return k * 0x9e3779b97f4a7c15ULL;
}

/// Open-addressing hash map from an integer key to V.
///
/// K must be an unsigned integer type; the all-ones value of K is reserved
/// as the empty-slot sentinel and must never be inserted (protocol keys —
/// interned message keys, node ids, packed link ids — never take it).
/// Linear probing with backward-shift deletion keeps probe chains intact
/// without tombstones, so heavy insert/erase cycling (message GC) cannot
/// degrade the table.
template <typename K, typename V>
class FlatMap {
  static_assert(std::numeric_limits<K>::is_integer &&
                    !std::numeric_limits<K>::is_signed,
                "FlatMap keys must be unsigned integers");

 public:
  static constexpr K kEmpty = std::numeric_limits<K>::max();

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` entries so inserts up to n never rehash.
  void reserve(std::size_t n) {
    std::size_t want = 8;
    while (want * 3 < n * 4) want <<= 1;  // load factor <= 0.75
    if (want > keys_.size()) rehash(want);
  }

  bool contains(K key) const { return find(key) != nullptr; }

  const V* find(K key) const {
    if (keys_.empty()) return nullptr;
    std::size_t i = slot(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  V* find(K key) {
    return const_cast<V*>(static_cast<const FlatMap*>(this)->find(key));
  }

  /// Inserts default-constructed V if absent; returns (value, inserted).
  std::pair<V*, bool> try_emplace(K key) {
    ESM_CHECK(key != kEmpty, "FlatMap key collides with the empty sentinel");
    if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) {
      rehash(keys_.empty() ? 8 : keys_.size() * 2);
    }
    std::size_t i = slot(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return {&vals_[i], false};
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    vals_[i] = V{};
    ++size_;
    return {&vals_[i], true};
  }

  V& operator[](K key) { return *try_emplace(key).first; }

  /// Erases `key` if present (backward-shift: later entries of the probe
  /// chain move up, so no tombstones accumulate). Returns true if erased.
  bool erase(K key) {
    if (keys_.empty()) return false;
    std::size_t i = slot(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) break;
      i = (i + 1) & mask_;
    }
    if (keys_[i] == kEmpty) return false;
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (keys_[j] != kEmpty) {
      const std::size_t home = slot(keys_[j]);
      // Move j into the hole unless j's probe path does not pass the hole
      // (cyclic distance check).
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        vals_[hole] = std::move(vals_[j]);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    keys_[hole] = kEmpty;
    vals_[hole] = V{};
    --size_;
    return true;
  }

  void clear() {
    for (auto& k : keys_) k = kEmpty;
    for (auto& v : vals_) v = V{};
    size_ = 0;
  }

  /// Visits every (key, value) in slot order — a deterministic function of
  /// the operation sequence, but NOT insertion order. Callers for whom
  /// visit order is behavior-relevant must sort or index externally.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], vals_[i]);
    }
  }

  /// Bytes of heap owned by the table itself (not by values).
  std::size_t table_bytes() const {
    return keys_.size() * (sizeof(K) + sizeof(V));
  }

 private:
  std::size_t slot(K key) const {
    return static_cast<std::size_t>(mix_key(key) >> shift_) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    keys_.assign(new_cap, kEmpty);
    vals_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    shift_ = 1;
    while ((std::size_t{1} << (64 - shift_)) > new_cap) ++shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = slot(old_keys[i]);
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = std::move(old_vals[i]);
      ++size_;
    }
  }

  std::vector<K> keys_;
  std::vector<V> vals_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::size_t size_ = 0;
};

/// Growable bitset over dense integer keys. Unset bits beyond the current
/// capacity read as false; set() grows as needed.
class DynamicBitset {
 public:
  void reserve(std::size_t bits) { words_.reserve((bits + 63) / 64); }

  bool test(std::size_t i) const {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) return false;
    return (words_[w] >> (i & 63)) & 1u;
  }

  /// Sets bit i; returns true if it was previously clear.
  bool set(std::size_t i) {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const bool fresh = (words_[w] & bit) == 0;
    words_[w] |= bit;
    count_ += fresh;
    return fresh;
  }

  /// Clears bit i; returns true if it was previously set.
  bool reset(std::size_t i) {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) return false;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const bool was = (words_[w] & bit) != 0;
    words_[w] &= ~bit;
    count_ -= was;
    return was;
  }

  /// Number of set bits (maintained incrementally).
  std::size_t count() const { return count_; }

  /// Visits every set bit in ascending index order (deterministic).
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  void clear() {
    words_.clear();
    count_ = 0;
  }

  std::size_t capacity_bits() const { return words_.size() * 64; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

/// Index-addressed object pool with a LIFO free list.
///
/// alloc() returns a reusable slot index; free() returns the slot to the
/// pool WITHOUT destroying the object — the caller resets logical state
/// and any heap the object owns (vector capacity, string storage) is kept
/// for the next occupant. At steady state (message churn with GC) this
/// makes per-message bookkeeping allocation-free.
template <typename T>
class Slab {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNull = std::numeric_limits<Index>::max();

  void reserve(std::size_t n) {
    items_.reserve(n);
    free_.reserve(n);
  }

  Index alloc() {
    if (!free_.empty()) {
      const Index i = free_.back();
      free_.pop_back();
      return i;
    }
    ESM_CHECK(items_.size() < kNull, "slab exhausted");
    items_.emplace_back();
    return static_cast<Index>(items_.size() - 1);
  }

  /// Returns slot i to the free list. The object is left as the caller
  /// reset it — typically cleared but with capacity intact.
  void free(Index i) { free_.push_back(i); }

  T& operator[](Index i) { return items_[i]; }
  const T& operator[](Index i) const { return items_[i]; }

  /// Live + free slots ever allocated.
  std::size_t slots() const { return items_.size(); }
  std::size_t free_slots() const { return free_.size(); }

 private:
  std::vector<T> items_;
  std::vector<Index> free_;
};

/// Vector of trivially copyable values holding up to N of them inline and
/// spilling to one heap block beyond that. Offers only the vector
/// operations its callers use; clear() keeps a spilled block for reuse.
template <typename T, std::size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVector copies its elements with memcpy");
  static_assert(N >= 1, "InlineVector needs at least one inline slot");

 public:
  InlineVector() = default;
  InlineVector(std::initializer_list<T> init) {
    append(init.begin(), init.size());
  }
  InlineVector(const InlineVector& other) {
    append(other.data(), other.size());
  }
  InlineVector(InlineVector&& other) noexcept { steal(other); }
  InlineVector& operator=(const InlineVector& other) {
    if (this != &other) {
      clear();
      append(other.data(), other.size());
    }
    return *this;
  }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      free_heap();
      steal(other);
    }
    return *this;
  }
  InlineVector& operator=(std::initializer_list<T> init) {
    clear();
    append(init.begin(), init.size());
    return *this;
  }
  ~InlineVector() { free_heap(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  /// True once the elements live in a heap block.
  bool spilled() const { return heap_ != nullptr; }

  T* data() { return heap_ != nullptr ? heap_ : inline_; }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n <= cap_) return;
    ESM_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
              "InlineVector capacity overflow");
    T* block = static_cast<T*>(::operator new(n * sizeof(T)));
    if (size_ != 0) std::memcpy(block, data(), size_ * sizeof(T));
    free_heap();
    heap_ = block;
    cap_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block reserve() frees
    if (size_ == cap_) reserve(std::size_t{cap_} * 2);
    data()[size_++] = copy;
  }

  void clear() { size_ = 0; }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  void append(const T* items, std::size_t n) {
    reserve(size_ + n);
    if (n != 0) std::memcpy(data() + size_, items, n * sizeof(T));
    size_ += static_cast<std::uint32_t>(n);
  }

  void steal(InlineVector& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      other.heap_ = nullptr;
      other.cap_ = N;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      cap_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void free_heap() noexcept {
    if (heap_ != nullptr) {
      ::operator delete(heap_);
      heap_ = nullptr;
      cap_ = N;
    }
  }

  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  T inline_[N]{};
};

/// FIFO ring buffer over a power-of-two slot array that only ever grows,
/// so a queue that fills and drains repeatedly stops allocating once it
/// has seen its peak depth. Popped and erased slots are reset to T{},
/// releasing whatever the element owned.
template <typename T>
class Ring {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  /// The i-th element from the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Erases the i-th element, keeping the order of the rest: the i
  /// elements before it move back one slot, then the front pops. O(i).
  void erase(std::size_t i) {
    for (std::size_t j = i; j > 0; --j) (*this)[j] = std::move((*this)[j - 1]);
    pop_front();
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> bigger(cap);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace esm::compact
