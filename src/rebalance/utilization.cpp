#include "rebalance/utilization.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace prvm {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// splitmix64 finalizer — cheap, well-mixed bits for the open-addressed
/// probe start (VM ids are dense small integers; identity hashing would
/// pile them into one cluster).
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

constexpr std::size_t kMaxProbes = 64;

// Slot markers above every key (keys are a 32-bit VM id + 1).
constexpr std::uint64_t kTombstone = ~std::uint64_t{0};
constexpr std::uint64_t kClaiming = kTombstone - 1;
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

}  // namespace

UtilizationMap::UtilizationMap(UtilizationConfig config, std::uint64_t epoch_ns)
    : config_(config), pm_count_(config.pm_count), epoch_ns_(epoch_ns) {
  std::size_t capacity = config.vm_capacity;
  if (capacity == 0) capacity = std::max<std::size_t>(1024, 8 * pm_count_);
  capacity = next_pow2(std::max<std::size_t>(capacity, 16));
  mask_ = capacity - 1;
  keys_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
  values_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
  pm_values_ = std::make_unique<std::atomic<std::uint64_t>[]>(std::max<std::size_t>(pm_count_, 1));
  for (std::size_t i = 0; i < capacity; ++i) {
    keys_[i].store(0, std::memory_order_relaxed);
    values_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(pm_count_, 1); ++i) {
    pm_values_[i].store(0, std::memory_order_relaxed);
  }
}

std::uint32_t UtilizationMap::ms_since_epoch(std::uint64_t now_ns) const {
  const std::uint64_t ms = now_ns <= epoch_ns_ ? 0 : (now_ns - epoch_ns_) / 1'000'000ull;
  return ms >= 0xFFFFFFFEull ? 0xFFFFFFFEu : static_cast<std::uint32_t>(ms);
}

std::uint64_t UtilizationMap::pack(double fraction, std::uint64_t now_ns) const {
  if (!(fraction >= 0.0)) fraction = 0.0;
  if (fraction > 2.0) fraction = 2.0;
  const float f = static_cast<float>(fraction);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  const std::uint64_t ms_plus_1 = static_cast<std::uint64_t>(ms_since_epoch(now_ns)) + 1;
  return (static_cast<std::uint64_t>(bits) << 32) | ms_plus_1;
}

std::optional<double> UtilizationMap::decayed(std::uint64_t packed, std::uint64_t now_ns) const {
  if (packed == 0) return std::nullopt;
  const std::uint32_t then_ms = static_cast<std::uint32_t>(packed & 0xFFFFFFFFull) - 1;
  const std::uint32_t now_ms = ms_since_epoch(now_ns);
  const std::uint64_t age_ms = now_ms >= then_ms ? now_ms - then_ms : 0;
  if (age_ms > config_.stale_after_ms) return std::nullopt;
  std::uint32_t bits = static_cast<std::uint32_t>(packed >> 32);
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  if (config_.half_life_ms == 0) return static_cast<double>(f);
  return static_cast<double>(f) *
         std::exp2(-static_cast<double>(age_ms) / static_cast<double>(config_.half_life_ms));
}

bool UtilizationMap::record_vm(VmId vm, double fraction, std::uint64_t now_ns) {
  const std::uint64_t key = static_cast<std::uint64_t>(vm) + 1;
  const std::uint64_t packed = pack(fraction, now_ns);
  const std::size_t probes = std::min(kMaxProbes, mask_ + 1);
  for (;;) {
    // Update the key where it lives; otherwise claim the first free slot of
    // the chain (a freed one before a never-used one).
    std::size_t free_slot = kNoSlot;
    std::uint64_t free_state = 0;
    std::size_t i = mix(key) & mask_;
    for (std::size_t n = 0; n < probes; ++n, i = (i + 1) & mask_) {
      const std::uint64_t cur = keys_[i].load(std::memory_order_acquire);
      if (cur == key) {
        values_[i].store(packed, std::memory_order_release);
        return true;
      }
      if (free_slot == kNoSlot && (cur == 0 || cur == kTombstone)) {
        free_slot = i;
        free_state = cur;
      }
      if (cur == 0) break;  // end of the chain
    }
    if (free_slot == kNoSlot) return false;
    std::uint64_t expected = free_state;
    if (free_state == 0) {
      // A never-used slot holds no sample, so the key can go in first.
      if (keys_[free_slot].compare_exchange_strong(expected, key, std::memory_order_acq_rel)) {
        values_[free_slot].store(packed, std::memory_order_release);
        return true;
      }
    } else if (keys_[free_slot].compare_exchange_strong(expected, kClaiming,
                                                        std::memory_order_acq_rel)) {
      // A freed slot still holds its last VM's sample: replace it before the
      // key is published, so no reader pairs this key with that sample.
      values_[free_slot].store(packed, std::memory_order_relaxed);
      keys_[free_slot].store(key, std::memory_order_release);
      return true;
    }
    // Another writer took the slot first (perhaps for this key): rescan.
  }
}

void UtilizationMap::forget_vm(VmId vm) {
  const std::uint64_t key = static_cast<std::uint64_t>(vm) + 1;
  std::size_t i = mix(key) & mask_;
  const std::size_t probes = std::min(kMaxProbes, mask_ + 1);
  for (std::size_t n = 0; n < probes; ++n, i = (i + 1) & mask_) {
    std::uint64_t cur = keys_[i].load(std::memory_order_acquire);
    if (cur == 0) return;
    // Racing writers can leave a key in two slots; free every copy.
    if (cur == key) keys_[i].compare_exchange_strong(cur, kTombstone, std::memory_order_acq_rel);
  }
}

void UtilizationMap::record_pm(PmIndex pm, double fraction, std::uint64_t now_ns) {
  if (pm >= pm_count_) return;
  pm_values_[pm].store(pack(fraction, now_ns), std::memory_order_release);
}

std::optional<double> UtilizationMap::vm_fraction(VmId vm, std::uint64_t now_ns) const {
  const std::uint64_t key = static_cast<std::uint64_t>(vm) + 1;
  std::size_t i = mix(key) & mask_;
  const std::size_t probes = std::min(kMaxProbes, mask_ + 1);
  for (std::size_t n = 0; n < probes; ++n, i = (i + 1) & mask_) {
    const std::uint64_t cur = keys_[i].load(std::memory_order_acquire);
    if (cur == 0) return std::nullopt;  // a never-used slot ends the chain
    if (cur == key) return decayed(values_[i].load(std::memory_order_acquire), now_ns);
  }
  return std::nullopt;
}

std::optional<double> UtilizationMap::pm_fraction(PmIndex pm, std::uint64_t now_ns) const {
  if (pm >= pm_count_) return std::nullopt;
  return decayed(pm_values_[pm].load(std::memory_order_acquire), now_ns);
}

}  // namespace prvm
