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
// FlatIdMap is the erasable sibling for 32-bit ids: the datacenter's VM id ->
// slot index and the admission controller's VM id -> group, which gain and
// lose an entry on every place and release.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace prvm {

namespace flatmap_detail {

/// SplitMix64 finalizer: full-avalanche, so low bits are usable directly.
inline std::size_t probe_start(std::uint64_t key, std::size_t mask) {
  std::uint64_t h = key;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h) & mask;
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

}  // namespace prvm
