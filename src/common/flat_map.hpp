// A small open-addressing hash map for 64-bit keys.
//
// The profile machinery keys everything by packed 64-bit ProfileKeys: the
// graph build probes the node index once per discovered edge, the
// datacenter's bucket index once per place/remove, and the engine's
// representative cache once per place. A power-of-two flat table with
// linear probing turns each of those into one or two cache lines instead of
// std::unordered_map's pointer chase. Keys are arbitrary (0 is a valid
// ProfileKey), so occupancy is tracked in a separate byte array rather than
// with a sentinel key. No erase: every current user only ever grows (the
// bucket index tombstones by value instead). The score table needs no hash:
// its keys are sorted, and node_of binary-searches them.
//
// FlatIdMap is the erasable sibling for 32-bit ids: the admission
// controller's VM id -> group, which gains and loses an entry on every
// grouped place and release.
//
// RecordIndex finds records that hold their own keys (the datacenter's VM
// slots by id, the admission controller's groups by name) with 4-byte
// entries and no copy of any key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace prvm {

namespace flatmap_detail {

/// SplitMix64 finalizer: full-avalanche, so low and high bits are both
/// usable directly.
inline std::uint64_t mix(std::uint64_t key) {
  std::uint64_t h = key;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

inline std::size_t probe_start(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>(mix(key)) & mask;
}

}  // namespace flatmap_detail

template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;
  explicit FlatMap64(std::size_t expected) { reserve(expected); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return keys_.size(); }
  /// Heap bytes of the slot arrays.
  std::size_t bytes() const { return capacity() * (sizeof(std::uint64_t) + sizeof(Value) + 1); }

  void clear() {
    keys_.clear();
    values_.clear();
    full_.clear();
    size_ = 0;
  }

  /// Pre-sizes the table for `expected` entries without rehashing later.
  void reserve(std::size_t expected) {
    std::size_t cap = 16;
    // Grow past 7/8 load at the target size.
    while (cap * 7 < expected * 8) cap *= 2;
    if (cap > keys_.size()) rehash(cap);
  }

  Value* find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = probe_start(key);
    while (full_[i]) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  const Value* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Inserts `(key, value)` if the key is absent. Returns the stored value
  /// (existing or new) and whether an insert happened. The reference stays
  /// valid until the next insert.
  std::pair<Value&, bool> try_emplace(std::uint64_t key, Value value = Value{}) {
    if (keys_.empty() || (size_ + 1) * 8 > keys_.size() * 7) {
      rehash(keys_.empty() ? 16 : keys_.size() * 2);
    }
    std::size_t i = probe_start(key);
    while (full_[i]) {
      if (keys_[i] == key) return {values_[i], false};
      i = (i + 1) & mask_;
    }
    place_at(i, key, std::move(value));
    return {values_[i], true};
  }

  Value& operator[](std::uint64_t key) { return try_emplace(key).first; }

  /// Calls fn(value) on every stored value (e.g. to renumber them in place).
  template <typename Fn>
  void for_each_value(Fn fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (full_[i]) fn(values_[i]);
    }
  }

 private:
  std::size_t probe_start(std::uint64_t key) const {
    return flatmap_detail::probe_start(key, mask_);
  }

  void place_at(std::size_t i, std::uint64_t key, Value value) {
    keys_[i] = key;
    values_[i] = std::move(value);
    full_[i] = 1;
    ++size_;
  }

  void rehash(std::size_t new_capacity) {
    PRVM_CHECK((new_capacity & (new_capacity - 1)) == 0, "capacity must be a power of two");
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    keys_.assign(new_capacity, 0);
    values_.assign(new_capacity, Value{});
    full_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_full[i]) continue;
      // Keys are distinct, so a plain probe-to-empty insert suffices (and
      // cannot re-trigger a rehash mid-loop).
      std::size_t j = probe_start(old_keys[i]);
      while (full_[j]) j = (j + 1) & mask_;
      place_at(j, old_keys[i], std::move(old_values[i]));
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Value> values_;
  std::vector<std::uint8_t> full_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Open-addressing map from 32-bit keys to 32-bit values, with erase. Key
/// and value share one 8-byte entry, so a probe reads both from one cache
/// line. Any key is valid; the value kNone marks an empty entry and cannot
/// be stored. Linear probing at load <= 3/4; erase shifts the rest of the
/// probe run back (no tombstones), so a long-lived table with churn never
/// degrades or needs a rebuild.
class FlatIdMap {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return entries_.size(); }

  void clear() {
    entries_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// The value stored for `key`, or kNone.
  std::uint32_t find(std::uint32_t key) const {
    if (entries_.empty()) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.value == kNone) return kNone;
      if (e.key == key) return e.value;
    }
  }

  /// Stores `(key, value)` if the key is absent; false (and no change) when
  /// it is present.
  bool insert(std::uint32_t key, std::uint32_t value) {
    PRVM_CHECK(value != kNone, "FlatIdMap cannot store its empty marker");
    if ((size_ + 1) * 4 > entries_.size() * 3) {
      rehash(entries_.empty() ? 16 : entries_.size() * 2);
    }
    std::size_t i = home(key);
    while (entries_[i].value != kNone) {
      if (entries_[i].key == key) return false;
      i = (i + 1) & mask_;
    }
    entries_[i] = Entry{key, value};
    ++size_;
    return true;
  }

  /// Removes `key`; returns its value, or kNone when it was absent.
  std::uint32_t erase(std::uint32_t key) {
    if (entries_.empty()) return kNone;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (entries_[hole].value == kNone) return kNone;
      if (entries_[hole].key == key) break;
    }
    const std::uint32_t value = entries_[hole].value;
    // Backward shift: walk the rest of the run and move back every entry
    // whose home does not lie cyclically in (hole, j] — it would otherwise
    // become unreachable behind the new gap.
    for (std::size_t j = (hole + 1) & mask_; entries_[j].value != kNone; j = (j + 1) & mask_) {
      const std::size_t h = home(entries_[j].key);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      entries_[hole] = entries_[j];
      hole = j;
    }
    entries_[hole].value = kNone;
    --size_;
    return value;
  }

  /// Calls fn(key, value) on every entry, in table order.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Entry& e : entries_) {
      if (e.value != kNone) fn(e.key, e.value);
    }
  }

 private:
  struct Entry {
    std::uint32_t key = 0;
    std::uint32_t value = kNone;
  };

  std::size_t home(std::uint32_t key) const { return flatmap_detail::probe_start(key, mask_); }

  void rehash(std::size_t new_capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(new_capacity, Entry{});
    mask_ = new_capacity - 1;
    for (const Entry& e : old) {
      if (e.value == kNone) continue;
      std::size_t i = home(e.key);
      while (entries_[i].value != kNone) i = (i + 1) & mask_;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// RecordIndex hash of a 32-bit id.
struct IdHash {
  std::uint64_t operator()(std::uint32_t id) const { return flatmap_detail::mix(id); }
};

/// RecordIndex hash of a name.
struct NameHash {
  std::uint64_t operator()(std::string_view name) const {
    return flatmap_detail::mix(std::hash<std::string_view>{}(name));
  }
};

/// Open-addressing index of records that hold their own keys: it maps a key
/// to the number of the record holding it, and stores nothing else. An entry
/// is 4 bytes, the record number and an 8-bit tag taken from the top of the
/// key's hash: half a FlatIdMap's, and a fraction of a node-based map's for
/// string keys. The caller owns the records and passes `key_of(record)` to
/// every call that needs a key back. A probe reads a record only when its
/// tag matches, so a miss reads one in 256 of the entries it passes. The low
/// bits of the hash choose the home entry. Linear probing at load <= 3/4;
/// erase shifts the rest of the probe run back (no tombstones), reading the
/// key of each entry it passes to find its home.
template <typename Key, typename Hash>
class RecordIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Record numbers run from 0 to kMaxRecords - 1: 24 bits of an entry.
  static constexpr std::uint32_t kMaxRecords = (std::uint32_t{1} << 24) - 1;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return entries_.size(); }

  void clear() {
    entries_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// The record whose key is `key`, or kNone.
  template <typename KeyOf>
  std::uint32_t find(const Key& key, const KeyOf& key_of) const {
    if (entries_.empty()) return kNone;
    const std::uint64_t h = Hash{}(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const std::uint32_t e = entries_[i];
      if (e == kEmpty) return kNone;
      if ((e & kTagMask) == tag_of(h) && key_of(record_of(e)) == key) return record_of(e);
    }
  }

  /// Adds `record`. Its key must already be in the record, and no other
  /// record with that key may be in the index.
  template <typename KeyOf>
  void insert(std::uint32_t record, const KeyOf& key_of) {
    PRVM_CHECK(record < kMaxRecords, "record number beyond the index's 24 bits");
    if ((size_ + 1) * 4 > entries_.size() * 3) {
      rehash(entries_.empty() ? 16 : entries_.size() * 2, key_of);
    }
    put(Hash{}(key_of(record)), record);
    ++size_;
  }

  /// Removes `record`, which must be in the index with the key it holds now.
  template <typename KeyOf>
  void erase(std::uint32_t record, const KeyOf& key_of) {
    PRVM_CHECK(size_ > 0, "record not in the index");
    std::size_t hole = Hash{}(key_of(record)) & mask_;
    while (record_of(entries_[hole]) != record) {
      PRVM_CHECK(entries_[hole] != kEmpty, "record not in the index");
      hole = (hole + 1) & mask_;
    }
    // Backward shift: move back every later entry of the run whose home
    // does not lie cyclically in (hole, j], which would otherwise become
    // unreachable behind the new gap.
    for (std::size_t j = (hole + 1) & mask_; entries_[j] != kEmpty; j = (j + 1) & mask_) {
      const std::size_t h = Hash{}(key_of(record_of(entries_[j]))) & mask_;
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      entries_[hole] = entries_[j];
      hole = j;
    }
    entries_[hole] = kEmpty;
    --size_;
  }

  /// Calls fn(record) on every indexed record, in table order.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const std::uint32_t e : entries_) {
      if (e != kEmpty) fn(record_of(e));
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;  // record numbers are stored plus one
  static constexpr std::uint32_t kTagMask = 0xFF;

  static std::uint32_t tag_of(std::uint64_t h) { return static_cast<std::uint32_t>(h >> 56); }
  static std::uint32_t record_of(std::uint32_t e) { return (e >> 8) - 1; }

  void put(std::uint64_t h, std::uint32_t record) {
    std::size_t i = h & mask_;
    while (entries_[i] != kEmpty) i = (i + 1) & mask_;
    entries_[i] = (record + 1) << 8 | tag_of(h);
  }

  template <typename KeyOf>
  void rehash(std::size_t new_capacity, const KeyOf& key_of) {
    std::vector<std::uint32_t> old = std::move(entries_);
    entries_.assign(new_capacity, kEmpty);
    mask_ = new_capacity - 1;
    for (const std::uint32_t e : old) {
      if (e != kEmpty) put(Hash{}(key_of(record_of(e))), record_of(e));
    }
  }

  std::vector<std::uint32_t> entries_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace prvm
