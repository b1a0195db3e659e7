// Process-wide metrics: counters, gauges and log2-bucketed latency
// histograms, designed so the placement hot path pays one shard-local
// relaxed atomic add per update — no locks, no allocation once warm, no
// false sharing between threads.
//
// Shard/merge model: every metric owns kShards independent cells; a thread
// is assigned a shard once (round-robin, thread_local) and only ever
// touches that shard's cache lines. A histogram's shards are ~4 KB each, so
// one is allocated on the first record into it: a histogram the loop thread
// alone records holds one shard, not sixteen. Readers merge all shards with
// relaxed loads, so a snapshot is cheap, lock-free and safe to take from any
// thread while writers keep hammering (TSan-clean by construction — every
// cell is a std::atomic, and a shard is published by a release CAS).
//
// Histogram bucketing: values are 64-bit non-negative integers (the
// convention throughout this repo is *nanoseconds* for latency metrics,
// suffix `_ns`). Buckets 0..15 are exact; beyond that each power-of-two
// octave is split into 8 sub-buckets, i.e. bucket index
//
//   b(v) = v                                   for v < 16
//   b(v) = 8 + 8*(o-3) + ((v >> (o-3)) & 7)    for v >= 16, o = floor(log2 v)
//
// so bucket width / lower bound <= 1/8 everywhere: any quantile estimated
// by linear interpolation inside its bucket is within 12.5% relative error
// of the exact order statistic (test_metrics.cpp asserts this against a
// sorted reference). 496 buckets cover the full u64 range.
//
// The Registry names metrics (Prometheus conventions: `prvm_` prefix,
// counters end in `_total`, latency histograms in `_ns`), hands out stable
// references — resolve them ONCE at construction, never per update — and
// renders everything as Prometheus text exposition or a JSON object (the
// daemon's `metrics` op). See DESIGN.md §5.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace prvm::obs {

/// Number of per-metric shards. Threads beyond this many share shards
/// (still correct — cells are atomic — just with some contention).
inline constexpr std::size_t kShards = 16;

/// The calling thread's shard, assigned round-robin on first use.
std::size_t shard_index() noexcept;

/// Monotonic clock in nanoseconds (the unit every `_ns` histogram records).
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count. Hot-path `add` is one relaxed
/// fetch_add on a cache line no other thread writes.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    cells_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Merged value across all shards (relaxed; exact once writers quiesce).
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) total += cell.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct Cell {
    alignas(64) std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

/// A point-in-time signed value (queue depth, mode, lag). Not sharded —
/// gauges are set, not accumulated, and are off the per-request hot path.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (high-water marks like max_batch).
  void set_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Merged, immutable view of a histogram; quantiles are estimated by
/// linear interpolation inside the containing bucket (<= 12.5% relative
/// error by the bucketing math above).
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  ///< per-bucket, dense
  std::uint64_t count = 0;            ///< total samples
  std::uint64_t sum = 0;              ///< sum of recorded values

  /// q in [0,1]; returns 0 when empty.
  double quantile(double q) const noexcept;
  double mean() const noexcept { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
};

class Histogram {
 public:
  /// Exact buckets below 16, then 8 sub-buckets per octave: 496 total.
  static constexpr std::size_t kSubBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;  // 8
  static constexpr std::size_t kBuckets = 2 * kSubBuckets + (63 - kSubBits) * kSubBuckets;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);
    const std::size_t o = static_cast<std::size_t>(std::bit_width(v)) - 1;  // >= 4
    const std::size_t sub = static_cast<std::size_t>(v >> (o - kSubBits)) & (kSubBuckets - 1);
    return kSubBuckets + (o - kSubBits) * kSubBuckets + sub;
  }

  /// Inclusive lower bound of bucket `i`.
  static std::uint64_t bucket_lo(std::size_t i) noexcept {
    if (i < 2 * kSubBuckets) return i;
    const std::size_t b = i - kSubBuckets;
    return (kSubBuckets + b % kSubBuckets) << (b / kSubBuckets);
  }

  /// Exclusive upper bound of bucket `i` (saturates at u64 max).
  static std::uint64_t bucket_hi(std::size_t i) noexcept {
    return i + 1 < kBuckets ? bucket_lo(i + 1) : ~std::uint64_t{0};
  }

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  /// Hot path: two relaxed adds into the calling thread's shard, which the
  /// first record into it allocates.
  void record(std::uint64_t v) noexcept {
    Shard* shard = shards_[shard_index()].load(std::memory_order_acquire);
    if (shard == nullptr) shard = &make_shard();
    shard->counts[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    shard->sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const noexcept;

 private:
  struct Shard {
    alignas(64) std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
  };

  /// Installs the calling thread's shard (another thread sharing the index
  /// may have installed it first).
  Shard& make_shard() noexcept;

  std::array<std::atomic<Shard*>, kShards> shards_{};
};

/// Records `now_ns() - start` into a histogram on destruction.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram& h) noexcept : h_(&h), start_(now_ns()) {}
  ~ScopedTimerNs() { h_->record(now_ns() - start_); }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Names and owns metrics. Registration takes a mutex (do it once, at
/// construction); the returned references are stable for the registry's
/// lifetime and all updates through them are lock-free. Registering an
/// existing name returns the existing metric; a kind conflict throws.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// The metric registered under `name`, if any (read-side convenience for
  /// tools; returns nullptr rather than registering).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// Prometheus text exposition (version 0.0.4). Histograms emit only the
  /// buckets whose cumulative count changes, plus `+Inf` — valid exposition
  /// (bucket boundaries are arbitrary) at a fraction of the lines.
  std::string render_prometheus() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {"name":{"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..,
  /// "p999":..},...}} — the payload of the daemon's `metrics` op.
  std::string render_json() const;

  /// The process-wide registry (engine instrumentation and score-table
  /// cache metrics default here; the daemon exposes it).
  static Registry& global();

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // deque: stable addresses as it grows
  std::unordered_map<std::string_view, Entry*> index_;  // keys view entries_' names
};

/// A non-owning shared_ptr to Registry::global() (the aliasing-constructor
/// trick), for config structs that take shared ownership of a registry.
std::shared_ptr<Registry> global_registry_ptr();

}  // namespace prvm::obs
