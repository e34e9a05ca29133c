// Unit tests for the compact containers (common/compact.hpp) and the
// message intern table (core/msg_arena.hpp): FlatMap probe/erase
// correctness against a reference map, bitset grow/count semantics, slab
// reuse discipline, and — the property the whole compact node core rests
// on — deterministic intern-key assignment in first-sight order.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/compact.hpp"
#include "common/rng.hpp"
#include "core/msg_arena.hpp"

namespace {

using esm::MsgId;
using esm::MsgKey;
using esm::compact::DynamicBitset;
using esm::compact::FlatMap;
using esm::compact::InlineVector;
using esm::compact::Ring;
using esm::compact::Slab;
using esm::core::MessageArena;

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint32_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7u), nullptr);

  auto [v, inserted] = map.try_emplace(7u);
  EXPECT_TRUE(inserted);
  *v = 42;
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(7u), nullptr);
  EXPECT_EQ(*map.find(7u), 42);

  auto [again, fresh] = map.try_emplace(7u);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(*again, 42);
  EXPECT_EQ(map.size(), 1u);

  EXPECT_TRUE(map.erase(7u));
  EXPECT_FALSE(map.erase(7u));
  EXPECT_EQ(map.find(7u), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint64_t, std::uint32_t> map;
  EXPECT_EQ(map[5u], 0u);
  map[5u] = 9u;
  EXPECT_EQ(map[5u], 9u);
  EXPECT_EQ(map.size(), 1u);
}

// Heavy random insert/erase churn against std::map: probe chains must
// survive backward-shift deletion with no lost or phantom entries.
TEST(FlatMap, MatchesReferenceUnderChurn) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  std::map<std::uint32_t, std::uint32_t> ref;
  esm::Rng rng(99);
  for (int iter = 0; iter < 20000; ++iter) {
    // Small key range forces collisions and long probe chains.
    const auto key = static_cast<std::uint32_t>(rng.below(512));
    if (rng.chance(0.4)) {
      EXPECT_EQ(map.erase(key), ref.erase(key) == 1u);
    } else {
      const auto val = static_cast<std::uint32_t>(rng.below(1u << 30));
      map[key] = val;
      ref[key] = val;
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(map.find(k), nullptr) << "missing key " << k;
    EXPECT_EQ(*map.find(k), v);
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t k, std::uint32_t v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(it->second, v);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, ReservePreventsRehash) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  map.reserve(1000);
  const std::size_t bytes = map.table_bytes();
  for (std::uint32_t i = 0; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(map.table_bytes(), bytes) << "rehashed despite reserve";
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_NE(map.find(i), nullptr);
    EXPECT_EQ(*map.find(i), i);
  }
}

TEST(DynamicBitset, SetTestResetCount) {
  DynamicBitset bits;
  EXPECT_FALSE(bits.test(1000));  // beyond capacity reads false
  EXPECT_TRUE(bits.set(3));
  EXPECT_FALSE(bits.set(3));  // already set
  EXPECT_TRUE(bits.set(200));
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_TRUE(bits.test(3));
  EXPECT_TRUE(bits.reset(3));
  EXPECT_FALSE(bits.reset(3));
  EXPECT_FALSE(bits.reset(9999));  // beyond capacity: no-op
  EXPECT_EQ(bits.count(), 1u);
}

TEST(DynamicBitset, ForEachSetAscending) {
  DynamicBitset bits;
  const std::vector<std::size_t> keys = {0, 63, 64, 100, 1023, 1024};
  for (auto k : keys) bits.set(k);
  std::vector<std::size_t> seen;
  bits.for_each_set([&](std::size_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, keys);  // already sorted ascending
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(Slab, LifoReuseKeepsCapacity) {
  Slab<std::vector<int>> slab;
  const auto a = slab.alloc();
  slab[a].assign(100, 7);
  const std::size_t cap = slab[a].capacity();
  slab[a].clear();  // caller resets logical state...
  slab.free(a);     // ...free keeps the object's heap

  const auto b = slab.alloc();
  EXPECT_EQ(b, a) << "free list must be LIFO";
  EXPECT_TRUE(slab[b].empty());
  EXPECT_GE(slab[b].capacity(), cap) << "capacity lost across reuse";
  EXPECT_EQ(slab.slots(), 1u);

  const auto c = slab.alloc();
  EXPECT_NE(c, b);
  EXPECT_EQ(slab.slots(), 2u);
  slab.free(c);
  slab.free(b);
  EXPECT_EQ(slab.alloc(), b) << "LIFO: last freed is first reused";
  EXPECT_EQ(slab.alloc(), c);
}

TEST(MessageArena, InternIsIdempotentAndDense) {
  MessageArena arena;
  esm::Rng rng(7);
  std::vector<MsgId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(rng.next_msg_id());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(arena.intern(ids[i]), static_cast<MsgKey>(i))
        << "keys must be assigned densely in first-sight order";
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(arena.intern(ids[i]), static_cast<MsgKey>(i));
    EXPECT_EQ(arena.find(ids[i]), static_cast<MsgKey>(i));
    EXPECT_EQ(arena.id(static_cast<MsgKey>(i)), ids[i]);
  }
  EXPECT_EQ(arena.size(), ids.size());
  EXPECT_EQ(arena.find(rng.next_msg_id()), esm::kInvalidMsgKey);
}

// The determinism invariant: two arenas fed the same id sequence assign
// identical keys — key assignment is a pure function of first-sight
// order, independent of table capacity history.
TEST(MessageArena, InternDeterministicAcrossInstances) {
  esm::Rng rng(2007);
  std::vector<MsgId> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(rng.next_msg_id());

  MessageArena cold;            // grows through every rehash
  MessageArena warm;            // pre-sized, never rehashes
  warm.reserve(ids.size());
  for (const MsgId& id : ids) {
    ASSERT_EQ(cold.intern(id), warm.intern(id));
  }
  // Interleaved re-interning must not mint new keys.
  for (std::size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_EQ(cold.intern(ids[i]), warm.intern(ids[i]));
  }
  ASSERT_EQ(cold.size(), warm.size());
}

TEST(MessageArena, StoreKeepsCanonicalMessage) {
  MessageArena arena;
  esm::Rng rng(11);
  esm::core::AppMessage msg;
  msg.id = rng.next_msg_id();
  msg.origin = 4;
  msg.seq = 9;
  msg.payload_bytes = 1234;
  msg.multicast_time = 5 * esm::kSecond;

  const MsgKey key = arena.store(msg);
  EXPECT_TRUE(arena.has_message(key));
  EXPECT_EQ(arena.message(key).seq, 9u);
  EXPECT_EQ(arena.message(key).payload_bytes, 1234u);
  // Storing again is a no-op returning the same key.
  EXPECT_EQ(arena.store(msg), key);
  EXPECT_EQ(arena.size(), 1u);

  // Interned-but-never-stored ids have a key but no payload.
  const MsgKey bare = arena.intern(rng.next_msg_id());
  EXPECT_FALSE(arena.has_message(bare));
}

TEST(InlineVector, StaysInlineUpToNThenSpills) {
  InlineVector<MsgId, 1> ids;
  EXPECT_TRUE(ids.empty());
  ids.push_back(MsgId{1, 1});
  EXPECT_FALSE(ids.spilled());
  EXPECT_EQ(ids.capacity(), 1u);
  for (std::uint64_t i = 2; i <= 100; ++i) ids.push_back(MsgId{i, i});
  EXPECT_TRUE(ids.spilled());
  ASSERT_EQ(ids.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ids[i], (MsgId{i + 1, i + 1}));
  }
  EXPECT_EQ(ids.front(), (MsgId{1, 1}));
  EXPECT_EQ(ids.back(), (MsgId{100, 100}));
  const std::size_t cap = ids.capacity();
  ids.clear();  // keeps the spilled block
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(ids.capacity(), cap);
}

TEST(InlineVector, CopyMoveAndAssignKeepContents) {
  InlineVector<std::uint32_t, 1> one = {7};
  InlineVector<std::uint32_t, 1> many = {1, 2, 3};
  InlineVector<std::uint32_t, 1> copy = many;
  EXPECT_TRUE(copy == many);
  InlineVector<std::uint32_t, 1> moved = std::move(copy);
  EXPECT_TRUE(moved == many);
  EXPECT_TRUE(copy.empty());
  InlineVector<std::uint32_t, 1> moved_inline = std::move(one);
  ASSERT_EQ(moved_inline.size(), 1u);
  EXPECT_EQ(moved_inline[0], 7u);
  EXPECT_FALSE(moved_inline.spilled());
  moved_inline = many;
  EXPECT_TRUE(moved_inline == many);
  moved_inline = moved_inline;  // self-assignment is a no-op
  EXPECT_TRUE(moved_inline == many);
  many = {9};
  EXPECT_EQ(many.size(), 1u);
  EXPECT_FALSE(many == moved_inline);
  std::uint32_t sum = 0;
  for (const std::uint32_t v : moved_inline) sum += v;
  EXPECT_EQ(sum, 6u);
}

TEST(InlineVector, PushBackOfOwnElementSurvivesSpill) {
  InlineVector<std::uint32_t, 1> v = {5};
  v.push_back(v[0]);  // reallocates while reading v[0]
  v.push_back(v[1]);
  EXPECT_TRUE(v == (InlineVector<std::uint32_t, 1>{5, 5, 5}));
}

TEST(Ring, MatchesDequeUnderRandomPushPopErase) {
  // Same operation sequence on a Ring and a std::deque, including
  // erase at 0 and 1 (the egress purge) across many wrap-arounds.
  Ring<int> ring;
  std::deque<int> ref;
  esm::Rng rng(17);
  int next = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.below(4);
    if (op <= 1 || ref.empty()) {
      ring.push_back(next);
      ref.push_back(next);
      ++next;
    } else if (op == 2) {
      ring.pop_front();
      ref.pop_front();
    } else {
      const std::size_t at = ref.size() > 1 ? rng.below(2) : 0;
      ring.erase(at);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at));
    }
    ASSERT_EQ(ring.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ring[i], ref[i]);
    peak = std::max(peak, ref.size());
  }
  EXPECT_LT(ring.capacity(), 2 * peak);  // grown only to the peak depth
}

TEST(Ring, PopAndEraseReleaseTheElement) {
  Ring<std::shared_ptr<int>> ring;
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  auto c = std::make_shared<int>(3);
  ring.push_back(a);
  ring.push_back(b);
  ring.push_back(c);
  ring.erase(1);  // b
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(*ring[0], 1);
  EXPECT_EQ(*ring[1], 3);
  ring.pop_front();
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(*ring.front(), 3);
}

}  // namespace
