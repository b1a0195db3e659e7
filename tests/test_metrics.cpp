// Tests for the observability subsystem (src/obs/): shard/merge
// correctness of counters and histograms under concurrency, the log2
// bucketing math, the quantile error bound against an exact sorted
// reference, registry naming rules, and both render formats.
//
// All fixtures are named Obs* so the TSan CI job can run exactly this
// suite (ctest -R Obs) — the hot paths are relaxed atomics and the suite
// doubles as the data-race regression net.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"

namespace prvm::obs {
namespace {

TEST(ObsCounterTest, AddIncAndMergedValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounterTest, MultiThreadedTotalsAreExact) {
  Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGaugeTest, SetAddAndHighWaterMark) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set_max(5);
  EXPECT_EQ(g.value(), 7);  // lower value does not regress the mark
  g.set_max(99);
  EXPECT_EQ(g.value(), 99);
}

TEST(ObsHistogramTest, BucketBoundsContainTheirValues) {
  // Every value must land in a bucket whose [lo, hi) range contains it,
  // across exact buckets, octave boundaries and the top of the u64 range.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 1024; ++v) probes.push_back(v);
  for (int shift = 10; shift < 64; ++shift) {
    const std::uint64_t p = std::uint64_t{1} << shift;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
    probes.push_back(p + (p >> 1));
  }
  probes.push_back(~std::uint64_t{0});
  std::mt19937_64 rng(0xb0b);
  for (int i = 0; i < 10'000; ++i) probes.push_back(rng());

  for (const std::uint64_t v : probes) {
    const std::size_t i = Histogram::bucket_of(v);
    ASSERT_LT(i, Histogram::kBuckets) << "value " << v;
    EXPECT_LE(Histogram::bucket_lo(i), v) << "value " << v;
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_GT(Histogram::bucket_hi(i), v) << "value " << v;
    } else {
      EXPECT_GE(Histogram::bucket_hi(i), v) << "value " << v;  // saturated top bucket
    }
  }
}

TEST(ObsHistogramTest, BucketBoundsAreMonotoneAndTight) {
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    // Adjacent buckets tile the axis with no gaps or overlaps...
    EXPECT_EQ(Histogram::bucket_hi(i), Histogram::bucket_lo(i + 1)) << "bucket " << i;
    // ...and width/lo <= 1/8 beyond the exact range, which is what gives
    // interpolated quantiles their 12.5% relative error bound.
    const std::uint64_t lo = Histogram::bucket_lo(i);
    const std::uint64_t width = Histogram::bucket_hi(i) - lo;
    if (lo >= 2 * Histogram::kSubBuckets) {
      EXPECT_LE(width * Histogram::kSubBuckets, lo) << "bucket " << i;
    }
  }
}

TEST(ObsHistogramTest, CountAndSumAreExact) {
  Histogram h;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t v = 0; v < 5000; ++v) {
    h.record(v * v);
    expected_sum += v * v;
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5000u);
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_DOUBLE_EQ(snap.mean(), static_cast<double>(expected_sum) / 5000.0);
}

// Estimated quantiles vs the exact order statistic of the recorded sample:
// relative error must stay within the bucketing bound (12.5%, plus a hair
// of slack for interpolation at bucket edges).
void check_quantiles(const std::vector<std::uint64_t>& samples) {
  Histogram h;
  for (const std::uint64_t v : samples) h.record(v);
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const HistogramSnapshot snap = h.snapshot();
  for (const double q : {0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(q * static_cast<double>(sorted.size()) + 0.5));
    const double exact = static_cast<double>(sorted[rank - 1]);
    const double estimate = snap.quantile(q);
    EXPECT_NEAR(estimate, exact, 0.13 * exact + 1.0) << "q=" << q;
  }
}

TEST(ObsHistogramTest, QuantilesWithinErrorBoundUniform) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::uint64_t> dist(0, 1'000'000);
  std::vector<std::uint64_t> samples(20'000);
  for (auto& v : samples) v = dist(rng);
  check_quantiles(samples);
}

TEST(ObsHistogramTest, QuantilesWithinErrorBoundLogUniform) {
  // Latency-shaped data: spread across many octaves, like ns timings.
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> exponent(0.0, 30.0);
  std::vector<std::uint64_t> samples(20'000);
  for (auto& v : samples) {
    v = static_cast<std::uint64_t>(std::pow(2.0, exponent(rng)));
  }
  check_quantiles(samples);
}

TEST(ObsHistogramTest, QuantilesWithinErrorBoundHeavyTail) {
  // Mostly-fast with a slow tail: the shape where p999 actually matters.
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> fast(100, 2'000);
  std::uniform_int_distribution<std::uint64_t> slow(1'000'000, 50'000'000);
  std::vector<std::uint64_t> samples(20'000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = i % 200 == 0 ? slow(rng) : fast(rng);
  }
  check_quantiles(samples);
}

TEST(ObsHistogramTest, ShardsMergeExactlyAcrossThreads) {
  Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.record(t * 1000 + (i % 7));
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) expected_sum += t * 1000 + (i % 7);
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(ObsHistogramTest, ThreadsSharingAShardRaceToAllocateIt) {
  // Twice as many threads as shards record once each, all released at the
  // same moment: threads that share a shard race to allocate it, and every
  // sample must still land exactly once.
  Histogram h;
  constexpr std::size_t kThreads = 2 * prvm::obs::kShards;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      h.record(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads);
  EXPECT_EQ(snap.sum, kThreads * (kThreads - 1) / 2);
}

TEST(ObsHistogramTest, SnapshotsWhileWritersHammer) {
  // A reader snapshotting mid-flight must see internally consistent,
  // monotonically growing totals — and TSan must stay quiet.
  Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      // do-while: even if the reader finishes before this thread is ever
      // scheduled (single-core CI), every writer lands at least one sample.
      std::uint64_t v = 1;
      do {
        h.record(v++ % 100'000);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  std::uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_GE(snap.count, last_count);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t c : snap.counts) bucket_total += c;
    EXPECT_EQ(bucket_total, snap.count);
    last_count = snap.count;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(h.snapshot().count, 0u);
}

TEST(ObsScopedTimerTest, RecordsElapsedNanoseconds) {
  Histogram h;
  {
    const ScopedTimerNs timer(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.sum, 1'000'000u);  // slept >= 2ms; allow a sloppy clock
}

TEST(ObsRegistryTest, SameNameReturnsSameMetric) {
  Registry r;
  Counter& a = r.counter("prvm_test_total");
  a.add(7);
  EXPECT_EQ(&a, &r.counter("prvm_test_total"));
  EXPECT_EQ(r.counter("prvm_test_total").value(), 7u);
  EXPECT_EQ(r.find_counter("prvm_test_total"), &a);
  EXPECT_EQ(r.find_counter("prvm_absent_total"), nullptr);
}

TEST(ObsRegistryTest, KindConflictAndBadNamesThrow) {
  Registry r;
  r.counter("prvm_test_total");
  EXPECT_THROW(r.gauge("prvm_test_total"), std::invalid_argument);
  EXPECT_THROW(r.histogram("prvm_test_total"), std::invalid_argument);
  EXPECT_THROW(r.counter(""), std::invalid_argument);
  EXPECT_THROW(r.counter("has space"), std::invalid_argument);
  EXPECT_THROW(r.counter("0starts_with_digit"), std::invalid_argument);
  // find_* does not register and reports the kind mismatch as absence.
  EXPECT_EQ(r.find_gauge("prvm_test_total"), nullptr);
}

TEST(ObsRegistryTest, ConcurrentRegistrationIsSafe) {
  Registry r;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < 200; ++i) {
        r.counter("prvm_shared_total").inc();
        r.histogram("prvm_shared_ns").record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.counter("prvm_shared_total").value(), 8u * 200u);
  EXPECT_EQ(r.histogram("prvm_shared_ns").snapshot().count, 8u * 200u);
}

TEST(ObsRegistryTest, PrometheusExpositionShape) {
  Registry r;
  r.counter("prvm_ops_total").add(5);
  r.gauge("prvm_depth").set(-3);
  Histogram& h = r.histogram("prvm_wait_ns");
  for (std::uint64_t v : {3u, 3u, 70u, 900u, 900u, 900u}) h.record(v);

  const std::string text = r.render_prometheus();
  EXPECT_NE(text.find("# TYPE prvm_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("prvm_ops_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prvm_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("prvm_depth -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prvm_wait_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("prvm_wait_ns_count 6\n"), std::string::npos);
  EXPECT_NE(text.find("prvm_wait_ns_sum 2776\n"), std::string::npos);
  EXPECT_NE(text.find("prvm_wait_ns_bucket{le=\"+Inf\"} 6\n"), std::string::npos);

  // Bucket lines must be cumulative and nondecreasing, ending at count.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t last_cumulative = 0;
  std::size_t bucket_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("prvm_wait_ns_bucket{", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t cumulative = std::stoull(line.substr(space + 1));
    EXPECT_GE(cumulative, last_cumulative) << line;
    last_cumulative = cumulative;
    ++bucket_lines;
  }
  EXPECT_GE(bucket_lines, 4u);  // 3 value buckets + +Inf
  EXPECT_EQ(last_cumulative, 6u);
}

TEST(ObsRegistryTest, JsonRenderParsesAndOrdersQuantiles) {
  Registry r;
  r.counter("prvm_ops_total").add(12);
  r.gauge("prvm_mode").set(2);
  Histogram& h = r.histogram("prvm_wait_ns");
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> dist(50, 5'000'000);
  for (int i = 0; i < 4000; ++i) h.record(dist(rng));

  std::string error;
  const auto doc = parse_json(r.render_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* ops = counters->find("prvm_ops_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->number, 12.0);
  const JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("prvm_mode")->number, 2.0);

  const JsonValue* hist = doc->find("histograms");
  ASSERT_NE(hist, nullptr);
  const JsonValue* wait = hist->find("prvm_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->find("count")->number, 4000.0);
  const double p50 = wait->find("p50")->number;
  const double p90 = wait->find("p90")->number;
  const double p99 = wait->find("p99")->number;
  const double p999 = wait->find("p999")->number;
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
}

TEST(ObsRegistryTest, GlobalRegistryPtrAliasesTheSingleton) {
  const std::shared_ptr<Registry> ptr = global_registry_ptr();
  EXPECT_EQ(ptr.get(), &Registry::global());
  // Non-owning: copies never try to delete the leaked singleton.
  const std::shared_ptr<Registry> copy = ptr;
  EXPECT_EQ(copy.use_count(), ptr.use_count());
}

}  // namespace
}  // namespace prvm::obs
