// Unit tests for the id-indexed tables (common/id_table.hpp): IdSet and
// IdTable, keyed by message ids and consensus instances, and IdTable's
// erase, which A1's pending table uses.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/id_table.hpp"

namespace wanmc {
namespace {

const std::vector<uint64_t> kFarIds = {0, uint64_t{1} << 20,
                                       uint64_t{1} << 40, UINT64_MAX};

std::vector<uint64_t> idsOf(const IdSet& s) {
  std::vector<uint64_t> out;
  s.forEach([&](uint64_t id) { out.push_back(id); });
  return out;
}

TEST(IdSet, DenseIdsFromOne) {
  IdSet s;
  for (uint64_t id = 1; id <= 10000; ++id) s.insert(id);
  for (uint64_t id = 1; id <= 10000; ++id) EXPECT_TRUE(s.contains(id)) << id;
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(10001));
  EXPECT_EQ(s.pages(), 3u);  // 4,096 ids a page
  const std::vector<uint64_t> ids = idsOf(s);
  ASSERT_EQ(ids.size(), 10000u);
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
}

TEST(IdSet, FarIdsCostOnePageEach) {
  IdSet s;
  for (size_t i = 0; i < kFarIds.size(); ++i) {
    s.insert(kFarIds[i]);
    EXPECT_EQ(s.pages(), i + 1) << kFarIds[i];
  }
  for (uint64_t id : kFarIds) EXPECT_TRUE(s.contains(id)) << id;
  EXPECT_EQ(idsOf(s), kFarIds);
}

TEST(IdSet, MissingIdInAllocatedAndAbsentPages) {
  IdSet s;
  s.insert(5);
  s.insert(uint64_t{1} << 40);
  EXPECT_FALSE(s.contains(6));     // page allocated, bit clear
  EXPECT_FALSE(s.contains(4096));  // no page
  EXPECT_FALSE(s.contains((uint64_t{1} << 40) + 1));
  EXPECT_FALSE(s.contains(UINT64_MAX));
  EXPECT_EQ(s.pages(), 2u);  // lookups allocate nothing
}

TEST(IdSet, IteratesAscendingAcrossPages) {
  // Inserted out of order, on pages added before and after the others.
  IdSet s;
  const std::vector<uint64_t> in = {9000, 3, 70000, 4095, 4096, 1, 8191};
  for (uint64_t id : in) s.insert(id);
  s.insert(3);  // again: no effect
  EXPECT_EQ(idsOf(s),
            (std::vector<uint64_t>{1, 3, 4095, 4096, 8191, 9000, 70000}));
}

TEST(IdTable, DenseIdsFromOne) {
  IdTable<uint64_t> t;
  for (uint64_t id = 1; id <= 1000; ++id) {
    auto [v, added] = t.tryEmplace(id);
    EXPECT_TRUE(added);
    EXPECT_EQ(v, 0u);  // a new slot holds T{}
    v = id * 10;
  }
  for (uint64_t id = 1; id <= 1000; ++id) {
    const uint64_t* v = t.find(id);
    ASSERT_NE(v, nullptr) << id;
    EXPECT_EQ(*v, id * 10);
  }
  auto [again, added] = t.tryEmplace(7);
  EXPECT_FALSE(added);
  EXPECT_EQ(again, 70u);
  EXPECT_EQ(t.pages(), 16u);  // 64 slots a page
}

TEST(IdTable, LargeValuesTakeSmallerPages) {
  // A page stays near 512 bytes: 64 slots of 8 bytes, 2 of 200, and
  // never fewer than 2, so UINT64_MAX still has a page of its own.
  IdTable<std::array<char, 200>> t;
  for (uint64_t id = 0; id < 8; ++id) t.tryEmplace(id);
  EXPECT_EQ(t.pages(), 4u);
  EXPECT_NE(t.find(7), nullptr);
  EXPECT_EQ(t.find(8), nullptr);
  IdTable<std::array<char, 1000>> huge;
  EXPECT_EQ(huge.find(UINT64_MAX), nullptr);
  EXPECT_TRUE(huge.tryEmplace(UINT64_MAX).second);
  EXPECT_NE(huge.find(UINT64_MAX), nullptr);
  EXPECT_EQ(huge.pages(), 1u);
}

TEST(IdTable, FarIdsCostOnePageEach) {
  IdTable<uint64_t> t;
  for (size_t i = 0; i < kFarIds.size(); ++i) {
    t.tryEmplace(kFarIds[i]).first = i + 1;
    EXPECT_EQ(t.pages(), i + 1) << kFarIds[i];
  }
  for (size_t i = 0; i < kFarIds.size(); ++i) {
    const uint64_t* v = t.find(kFarIds[i]);
    ASSERT_NE(v, nullptr) << kFarIds[i];
    EXPECT_EQ(*v, i + 1);
  }
}

TEST(IdTable, MissingIdInAllocatedAndAbsentPages) {
  IdTable<uint64_t> t;
  t.tryEmplace(5);
  t.tryEmplace(uint64_t{1} << 40);
  EXPECT_EQ(t.find(6), nullptr);   // page allocated, slot unused
  EXPECT_EQ(t.find(64), nullptr);  // no page
  EXPECT_EQ(t.find((uint64_t{1} << 40) - 1), nullptr);
  EXPECT_EQ(t.find(UINT64_MAX), nullptr);
  EXPECT_EQ(t.pages(), 2u);  // lookups allocate nothing
}

TEST(IdTable, IteratesAscendingAcrossPages) {
  IdTable<uint64_t> t;
  const std::vector<uint64_t> in = {900, 3, UINT64_MAX, 63, 64, 1, 127};
  for (uint64_t id : in) t.tryEmplace(id).first = id + 1;
  std::vector<uint64_t> ids;
  t.forEach([&](uint64_t id, uint64_t v) {
    EXPECT_EQ(v, id + 1);
    ids.push_back(id);
  });
  EXPECT_EQ(ids,
            (std::vector<uint64_t>{1, 3, 63, 64, 127, 900, UINT64_MAX}));
}

TEST(IdTable, StoredValueNeverMoves) {
  // Callers keep a pointer or reference into the table across inserts
  // (ConsensusService::decision, rmcast's record index): a new page or a
  // grown directory must not move a stored value.
  // The 100,000 ids below land on pages ahead of the stored one in the
  // directory, so each new page shifts its directory entry too.
  const uint64_t kept = uint64_t{1} << 30;
  IdTable<std::vector<int>> t;
  t.tryEmplace(kept).first = {1, 2, 3};
  const std::vector<int>* first = t.find(kept);
  ASSERT_NE(first, nullptr);
  for (uint64_t id = 1; id <= 100000; ++id) t.tryEmplace(id);
  EXPECT_EQ(t.find(kept), first);
  EXPECT_EQ(*first, (std::vector<int>{1, 2, 3}));
}

TEST(IdTable, EraseOfAnAbsentIdIsANoOp) {
  IdTable<uint64_t> t;
  t.erase(5);  // empty table
  t.tryEmplace(5).first = 50;
  t.erase(6);                  // page allocated, slot unused
  t.erase(uint64_t{1} << 40);  // no page
  t.erase(UINT64_MAX);
  EXPECT_EQ(t.pages(), 1u);
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(*t.find(5), 50u);
}

TEST(IdTable, ErasingThePagesLastIdFreesIt) {
  // Ids 2 and 3 share a page whatever the page size (a power of two >= 2).
  // Values own heap memory, so a slot read or written through a freed page
  // shows under ASan.
  const uint64_t far = uint64_t{1} << 40;
  IdTable<std::vector<int>> t;
  t.tryEmplace(2).first = {2};
  t.tryEmplace(3).first = {3};
  t.tryEmplace(far).first = {4};  // the last insert: far's is the shortcut
  ASSERT_EQ(t.pages(), 2u);
  t.erase(2);
  EXPECT_EQ(t.pages(), 2u);  // 3 keeps the page
  EXPECT_EQ(t.find(2), nullptr);
  t.erase(3);
  EXPECT_EQ(t.pages(), 1u);
  EXPECT_EQ(t.find(3), nullptr);
  auto [low, lowAdded] = t.tryEmplace(3);
  EXPECT_TRUE(lowAdded);
  EXPECT_TRUE(low.empty());  // a fresh page: T{}
  EXPECT_EQ(t.pages(), 2u);
  // Now 3's page is the shortcut; erase the other page, then this one.
  t.erase(far);
  EXPECT_EQ(t.pages(), 1u);
  EXPECT_EQ(t.find(far), nullptr);
  t.erase(3);
  EXPECT_EQ(t.pages(), 0u);
  EXPECT_EQ(t.find(3), nullptr);
  auto [again, added] = t.tryEmplace(3);
  EXPECT_TRUE(added);
  EXPECT_TRUE(again.empty());
  again.push_back(5);
  EXPECT_EQ(*t.find(3), std::vector<int>{5});
  EXPECT_EQ(t.pages(), 1u);
}

TEST(IdTable, ErasedSlotHoldsAFreshValue) {
  // An id erased from a page that stays holds T{} when added again.
  IdTable<std::vector<int>> t;
  t.tryEmplace(2).first = {1, 2, 3};
  t.tryEmplace(3);
  t.erase(2);
  auto [v, added] = t.tryEmplace(2);
  EXPECT_TRUE(added);
  EXPECT_TRUE(v.empty());
}

TEST(IdTable, ErasesThatShiftTheDirectoryMoveNoValue) {
  // Pages freed ahead of a stored value's page in the directory shift its
  // directory entry, never the page.
  const uint64_t kept = uint64_t{1} << 30;
  const uint64_t mid = 5000;
  IdTable<std::vector<int>> t;
  t.tryEmplace(kept).first = {1, 2, 3};
  for (uint64_t id = 1; id <= 10000; ++id)
    t.tryEmplace(id).first = {static_cast<int>(id)};
  const std::vector<int>* keptAt = t.find(kept);
  const std::vector<int>* midAt = t.find(mid);
  for (uint64_t id = 1; id <= 10000; ++id)
    if (id != mid) t.erase(id);
  EXPECT_EQ(t.pages(), 2u);
  EXPECT_EQ(t.find(kept), keptAt);
  EXPECT_EQ(*keptAt, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(t.find(mid), midAt);
  EXPECT_EQ(*midAt, std::vector<int>{5000});
}

TEST(IdTable, ForEachSkipsErasedIds) {
  IdTable<uint64_t> t;
  for (uint64_t id = 1; id <= 300; ++id) t.tryEmplace(id).first = id;
  for (uint64_t id = 1; id <= 300; ++id)
    if (id % 3 != 0 || (id >= 64 && id < 128)) t.erase(id);  // and a page
  std::vector<uint64_t> ids;
  t.forEach([&](uint64_t id, uint64_t v) {
    EXPECT_EQ(v, id);
    ids.push_back(id);
  });
  std::vector<uint64_t> want;
  for (uint64_t id = 3; id <= 300; id += 3)
    if (id < 64 || id >= 128) want.push_back(id);
  EXPECT_EQ(ids, want);
  EXPECT_EQ(t.pages(), 4u);  // 64 slots a page: 0-63, 128-191, ...
}

}  // namespace
}  // namespace wanmc
