#include "obs/metrics.hpp"

#include <cstdio>
#include <memory>

#include "common/check.hpp"

namespace prvm::obs {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th order statistic among `count` samples (1-based).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      const double lo = static_cast<double>(Histogram::bucket_lo(i));
      const double hi = static_cast<double>(Histogram::bucket_hi(i));
      // Interpolate by the rank's position among this bucket's samples.
      const double frac =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    seen += counts[i];
  }
  return static_cast<double>(Histogram::bucket_lo(counts.size() - 1));
}

Histogram::~Histogram() {
  for (std::atomic<Shard*>& shard : shards_) delete shard.load(std::memory_order_relaxed);
}

Histogram::Shard& Histogram::make_shard() noexcept {
  std::atomic<Shard*>& slot = shards_[shard_index()];
  auto* fresh = new Shard();
  Shard* installed = nullptr;
  if (slot.compare_exchange_strong(installed, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *installed;
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot snap;
  snap.counts.assign(kBuckets, 0);
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      snap.counts[i] += shard->counts[i].load(std::memory_order_relaxed);
    }
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  return snap;
}

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!alpha(name.front())) return false;
  for (const char c : name) {
    if (!alpha(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Registry::Entry& Registry::entry(std::string_view name, MetricKind kind) {
  PRVM_REQUIRE(valid_metric_name(name),
               "metric name must match [a-zA-Z_][a-zA-Z0-9_]*: " + std::string(name));
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(name); it != index_.end()) {
    PRVM_REQUIRE(it->second->kind == kind,
                 "metric \"" + std::string(name) + "\" already registered as " +
                     kind_name(it->second->kind));
    return *it->second;
  }
  Entry& e = entries_.emplace_back();
  e.name = std::string(name);
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter: e.counter = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram: e.histogram = std::make_unique<Histogram>(); break;
  }
  index_.emplace(e.name, &e);
  return e;
}

Counter& Registry::counter(std::string_view name) {
  return *entry(name, MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) { return *entry(name, MetricKind::kGauge).gauge; }

Histogram& Registry::histogram(std::string_view name) {
  return *entry(name, MetricKind::kHistogram).histogram;
}

const Counter* Registry::find_counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  return it != index_.end() && it->second->kind == MetricKind::kCounter
             ? it->second->counter.get()
             : nullptr;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  return it != index_.end() && it->second->kind == MetricKind::kGauge ? it->second->gauge.get()
                                                                     : nullptr;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  return it != index_.end() && it->second->kind == MetricKind::kHistogram
             ? it->second->histogram.get()
             : nullptr;
}

std::string Registry::render_prometheus() const {
  std::string out;
  out.reserve(4096);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    out += "# TYPE ";
    out += e.name;
    out += ' ';
    out += kind_name(e.kind);
    out += '\n';
    switch (e.kind) {
      case MetricKind::kCounter:
        out += e.name;
        out += ' ';
        out += std::to_string(e.counter->value());
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += e.name;
        out += ' ';
        out += std::to_string(e.gauge->value());
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot snap = e.histogram->snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snap.counts.size(); ++i) {
          if (snap.counts[i] == 0) continue;  // emit only buckets that add samples
          cumulative += snap.counts[i];
          out += e.name;
          out += "_bucket{le=\"";
          out += std::to_string(Histogram::bucket_hi(i));
          out += "\"} ";
          out += std::to_string(cumulative);
          out += '\n';
        }
        out += e.name;
        out += "_bucket{le=\"+Inf\"} ";
        out += std::to_string(snap.count);
        out += '\n';
        out += e.name;
        out += "_sum ";
        out += std::to_string(snap.sum);
        out += '\n';
        out += e.name;
        out += "_count ";
        out += std::to_string(snap.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string Registry::render_json() const {
  std::string counters = "{";
  std::string gauges = "{";
  std::string histograms = "{";
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        if (counters.size() > 1) counters += ',';
        counters += '"';
        counters += e.name;
        counters += "\":";
        counters += std::to_string(e.counter->value());
        break;
      case MetricKind::kGauge:
        if (gauges.size() > 1) gauges += ',';
        gauges += '"';
        gauges += e.name;
        gauges += "\":";
        gauges += std::to_string(e.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot snap = e.histogram->snapshot();
        if (histograms.size() > 1) histograms += ',';
        histograms += '"';
        histograms += e.name;
        histograms += "\":{\"count\":";
        histograms += std::to_string(snap.count);
        histograms += ",\"sum\":";
        histograms += std::to_string(snap.sum);
        histograms += ",\"mean\":";
        histograms += format_double(snap.mean());
        histograms += ",\"p50\":";
        histograms += format_double(snap.quantile(0.50));
        histograms += ",\"p90\":";
        histograms += format_double(snap.quantile(0.90));
        histograms += ",\"p99\":";
        histograms += format_double(snap.quantile(0.99));
        histograms += ",\"p999\":";
        histograms += format_double(snap.quantile(0.999));
        histograms += '}';
        break;
      }
    }
  }
  counters += '}';
  gauges += '}';
  histograms += '}';
  return "{\"counters\":" + counters + ",\"gauges\":" + gauges +
         ",\"histograms\":" + histograms + "}";
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

std::shared_ptr<Registry> global_registry_ptr() {
  return std::shared_ptr<Registry>(std::shared_ptr<void>(), &Registry::global());
}

}  // namespace prvm::obs
