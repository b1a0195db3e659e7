#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace prvm {
namespace {

TEST(FlatMap, EmptyFindsNothing) {
  FlatMap64<int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(42), nullptr);
}

TEST(FlatMap, ZeroIsAValidKey) {
  // ProfileKey 0 is the empty profile, so 0 must behave like any other key.
  FlatMap64<int> map;
  EXPECT_EQ(map.find(0), nullptr);
  map.try_emplace(0, 7);
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 7);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, InsertFindUpdate) {
  FlatMap64<int> map;
  auto [first, inserted] = map.try_emplace(10, 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first, 1);
  auto [again, reinserted] = map.try_emplace(10, 2);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, 1);  // try_emplace keeps the existing value
  again = 5;
  EXPECT_EQ(*map.find(10), 5);  // the returned reference writes through
  map[11] = 9;
  EXPECT_EQ(*map.find(11), 9);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, GrowsPastManyInsertsAndMatchesReference) {
  FlatMap64<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    // Mix of random and dense sequential keys exercises probe chains.
    const std::uint64_t key =
        (i % 3 == 0) ? static_cast<std::uint64_t>(i / 3) : rng.engine()();
    map.try_emplace(key, key * 2 + 1);
    reference.try_emplace(key, key * 2 + 1);
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const auto* found = map.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value);
  }
  // Absent keys stay absent after all the rehashing.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = 0x8000000000000000ULL + static_cast<std::uint64_t>(i);
    if (!reference.contains(key)) EXPECT_EQ(map.find(key), nullptr);
  }
}

TEST(FlatMap, CollidingProbeChains) {
  // Adjacent keys whose hashes land wherever they land: force a tiny table
  // so chains must wrap around.
  FlatMap64<int> map;
  for (int i = 0; i < 100; ++i) map.try_emplace(static_cast<std::uint64_t>(i), i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(map.find(static_cast<std::uint64_t>(i)), nullptr);
    EXPECT_EQ(*map.find(static_cast<std::uint64_t>(i)), i);
  }
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ((map.capacity() & (map.capacity() - 1)), 0u) << "capacity must stay a power of two";
}

TEST(FlatMap, ReserveAvoidsGrowthAndClearResets) {
  FlatMap64<int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  for (int i = 0; i < 1000; ++i) map.try_emplace(static_cast<std::uint64_t>(i * 7919), i);
  EXPECT_EQ(map.capacity(), cap) << "reserve(1000) must absorb 1000 inserts without rehash";
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(0), nullptr);
  map.try_emplace(3, 4);
  EXPECT_EQ(*map.find(3), 4);
}

TEST(FlatIdMap, InsertFindEraseBasics) {
  FlatIdMap map;
  EXPECT_EQ(map.find(0), FlatIdMap::kNone);
  EXPECT_EQ(map.erase(0), FlatIdMap::kNone);
  EXPECT_TRUE(map.insert(0, 5));
  EXPECT_TRUE(map.insert(0xFFFFFFFFu, 6)) << "every key is valid, the all-ones key too";
  EXPECT_FALSE(map.insert(0, 7)) << "insert keeps the existing value";
  EXPECT_EQ(map.find(0), 5u);
  EXPECT_EQ(map.find(0xFFFFFFFFu), 6u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.erase(0), 5u);
  EXPECT_EQ(map.erase(0), FlatIdMap::kNone);
  EXPECT_EQ(map.find(0), FlatIdMap::kNone);
  EXPECT_EQ(map.size(), 1u);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0xFFFFFFFFu), FlatIdMap::kNone);
}

// Random inserts and erases against std::unordered_map: backward-shift
// erase must keep every surviving key reachable, including across probe
// runs that wrap the end of the table, and churn must not grow the table.
TEST(FlatIdMap, ChurnMatchesReferenceWithoutGrowing) {
  FlatIdMap map;
  std::unordered_map<std::uint32_t, std::uint32_t> reference;
  Rng rng(7);
  const auto key_of = [&] { return static_cast<std::uint32_t>(rng.uniform_index(3000)); };
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t key = key_of();
    EXPECT_EQ(map.insert(key, key + 1), reference.try_emplace(key, key + 1).second);
  }
  const std::size_t capacity = map.capacity();
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t key = key_of();
    if (i % 2 == 0) {
      const auto it = reference.find(key);
      const std::uint32_t expected = it == reference.end() ? FlatIdMap::kNone : it->second;
      if (it != reference.end()) reference.erase(it);
      ASSERT_EQ(map.erase(key), expected) << "erase #" << i;
    } else {
      ASSERT_EQ(map.insert(key, key + 1), reference.try_emplace(key, key + 1).second);
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  EXPECT_LE(map.capacity(), 2 * capacity) << "a churning population must not keep growing";
  for (std::uint32_t key = 0; key < 3000; ++key) {
    const auto it = reference.find(key);
    EXPECT_EQ(map.find(key), it == reference.end() ? FlatIdMap::kNone : it->second) << key;
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t key, std::uint32_t value) {
    EXPECT_EQ(reference.at(key), value);
    ++visited;
  });
  EXPECT_EQ(visited, reference.size());
}

// A RecordIndex hash that collides on purpose: three tags, so most tag
// matches are other keys, and six homes, so probe runs are long. A quarter
// of the keys set every low bit and home on the table's last entry, so
// their runs wrap to entry 0.
struct CollidingHash {
  std::uint64_t operator()(std::uint32_t key) const {
    const std::uint64_t tag = std::uint64_t{key % 3} << 56;
    const std::uint64_t home = key % 4 == 0 ? 0x00FFFFFFFFFFFFFFull : key % 5;
    return tag | home;
  }
};

// Random finds, inserts and erases against std::unordered_map, over a pool
// of records that hold their keys and are reused LIFO, as the datacenter's
// VM slots are. Backward-shift erase must keep every surviving record
// reachable, and churn must not grow the table.
template <typename Hash>
void fuzz_record_index(std::uint64_t seed, std::size_t key_space, int ops) {
  using Index = RecordIndex<std::uint32_t, Hash>;
  Index index;
  std::vector<std::uint32_t> keys;  // by record
  std::vector<std::uint32_t> free_records;
  std::unordered_map<std::uint32_t, std::uint32_t> reference;  // key -> record
  const auto key_of = [&](std::uint32_t record) { return keys[record]; };
  Rng rng(seed);
  std::size_t settled_capacity = 0;
  for (int i = 0; i < ops; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.uniform_index(key_space));
    const auto it = reference.find(key);
    const std::uint32_t expected = it == reference.end() ? Index::kNone : it->second;
    ASSERT_EQ(index.find(key, key_of), expected) << "find #" << i << " of key " << key;
    const std::size_t op = rng.uniform_index(2);
    if (op == 0 && it == reference.end()) {
      std::uint32_t record = static_cast<std::uint32_t>(keys.size());
      if (free_records.empty()) {
        keys.push_back(key);
      } else {
        record = free_records.back();
        free_records.pop_back();
        keys[record] = key;
      }
      index.insert(record, key_of);
      reference.emplace(key, record);
    } else if (op == 1 && it != reference.end()) {
      index.erase(it->second, key_of);
      free_records.push_back(it->second);
      keys[it->second] = ~key;  // a freed record no longer holds its key
      reference.erase(it);
    }
    ASSERT_EQ(index.size(), reference.size());
    if (i == ops / 4) settled_capacity = index.capacity();
  }
  EXPECT_LE(index.capacity(), 2 * settled_capacity) << "a churning population kept growing";
  for (std::uint32_t key = 0; key < key_space; ++key) {
    const auto it = reference.find(key);
    EXPECT_EQ(index.find(key, key_of), it == reference.end() ? Index::kNone : it->second) << key;
  }
  std::vector<int> visits(keys.size(), 0);
  index.for_each([&](std::uint32_t record) { ++visits[record]; });
  for (const auto& [key, record] : reference) EXPECT_EQ(visits[record], 1) << key;
  for (const std::uint32_t record : free_records) EXPECT_EQ(visits[record], 0) << record;
}

TEST(RecordIndex, ChurnMatchesReference) { fuzz_record_index<IdHash>(11, 5000, 200000); }

TEST(RecordIndex, CollidingTagsAndWrappedRunsMatchReference) {
  fuzz_record_index<CollidingHash>(12, 400, 60000);
}

TEST(RecordIndex, NamesAndBounds) {
  std::vector<std::string> names = {"web", "db", "", "cache"};
  RecordIndex<std::string_view, NameHash> index;
  const auto name_of = [&](std::uint32_t record) { return std::string_view(names[record]); };
  EXPECT_EQ(index.find("web", name_of), index.kNone) << "an empty index finds nothing";
  for (std::uint32_t record = 0; record < names.size(); ++record) index.insert(record, name_of);
  EXPECT_EQ(index.find("db", name_of), 1u);
  EXPECT_EQ(index.find("", name_of), 2u) << "the empty name is a key like any other";
  EXPECT_EQ(index.find("dbx", name_of), index.kNone);
  index.erase(0, name_of);
  EXPECT_EQ(index.find("web", name_of), index.kNone);
  EXPECT_EQ(index.find("cache", name_of), 3u);
  EXPECT_THROW(index.erase(0, name_of), std::logic_error) << "an absent record";
  EXPECT_THROW(index.insert(index.kMaxRecords, name_of), std::logic_error)
      << "record numbers have 24 bits";
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find("cache", name_of), index.kNone);
}

}  // namespace
}  // namespace prvm
