#include "core/score_table.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/check.hpp"
#include "core/bpru.hpp"
#include "obs/metrics.hpp"

namespace prvm {

namespace {

// FNV-1a, good enough for a cache fingerprint (not security-relevant).
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// 'I6': each key split at bit 32 (the distinct upper words with their
// segment starts, then one low word per node) and the scores; the header
// word after the demand count holds the segment count. 'I5' stored whole
// 8-byte keys and kept that word 0, 'I4' had best-successor sections after
// the scores and 'I3' a hash index after those. Images of an earlier version
// would map into the wrong layout, so the magic bump has them rebuilt
// wholesale.
constexpr char kImageMagic[8] = {'P', 'R', 'V', 'M', 'S', 'C', 'I', '6'};

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

/// Section alignment of the image format: every array starts on a 64-byte
/// boundary so mapped pointers are cache-line (and type-) aligned.
constexpr std::size_t align_up(std::size_t offset) { return (offset + 63) & ~std::size_t{63}; }

// Throws unless the arrays describe strictly ascending keys: a flipped byte
// in an image would otherwise make node_of's binary searches return a wrong
// node, and a wild segment start would send them past the low words. The
// starts are checked before any of them indexes the low words.
void check_image_columns(const std::uint32_t* uppers, const std::uint32_t* starts,
                         std::size_t segments, const std::uint32_t* lows, std::size_t nodes,
                         const std::filesystem::path& path) {
  bool starts_ok = starts[0] == 0 && starts[segments] == nodes;
  bool ascending = true;
  for (std::size_t s = 0; s < segments; ++s) {
    starts_ok &= starts[s] < starts[s + 1];
    if (s > 0) ascending &= uppers[s - 1] < uppers[s];
  }
  PRVM_REQUIRE(starts_ok, "segment starts corrupt in score-table file: " + path.string());
  for (std::size_t s = 0; s < segments; ++s) {
    for (std::size_t u = starts[s] + 1; u < starts[s + 1]; ++u) ascending &= lows[u - 1] < lows[u];
  }
  PRVM_REQUIRE(ascending, "keys out of order in score-table file: " + path.string());
}

std::string stage_metric(std::string_view stage) {
  return "prvm_score_table_" + std::string(stage) + "_ns";
}

// Writes a file through write(os) into a fresh temporary next to `path` and
// renames it over `path`. A published file is never truncated in place, so a
// process that has it mapped keeps reading the old inode, and a reader never
// sees a half-written file. The temporary is removed when anything fails.
template <typename Write>
void publish_file(const std::filesystem::path& path, Write write) {
  static std::atomic<unsigned> serial{0};
  std::filesystem::path tmp;
  for (;;) {
    tmp = path;
    tmp += ".tmp." + std::to_string(::getpid()) + "." + std::to_string(serial++);
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    PRVM_REQUIRE(errno == EEXIST, "cannot create file for writing: " + tmp.string());
  }
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PRVM_REQUIRE(os.is_open(), "cannot open file for writing: " + tmp.string());
    write(os);
    os.close();
    PRVM_REQUIRE(!os.fail(), "error writing " + tmp.string());
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

}  // namespace

/// A built table's arrays, laid out as in an image.
struct ScoreTable::Columns {
  std::vector<std::uint32_t> uppers;
  std::vector<std::uint32_t> starts;
  std::vector<std::uint32_t> lows;
  std::vector<float> scores;
};

/// An open read-only mapping of an image file; destroyed when the last
/// ScoreTable serving from it goes away.
struct ScoreTable::Image {
  const std::byte* base = nullptr;
  std::size_t length = 0;

  ~Image() {
    if (base != nullptr) {
      ::munmap(const_cast<std::byte*>(base), length);
    }
  }
};

std::string ScoreTable::digest(const ProfileShape& shape,
                               const std::vector<QuantizedDemand>& demands,
                               const ScoreTableOptions& options) {
  Fnv fnv;
  for (const DimensionGroup& g : shape.groups()) {
    fnv.mix(static_cast<std::uint64_t>(g.kind));
    fnv.mix(static_cast<std::uint64_t>(g.count));
    fnv.mix(static_cast<std::uint64_t>(g.capacity));
  }
  fnv.mix(demands.size());
  for (const QuantizedDemand& d : demands) {
    for (const auto& items : d.group_items) {
      fnv.mix(items.size());
      for (int item : items) fnv.mix(static_cast<std::uint64_t>(item));
    }
  }
  fnv.mix_double(options.pagerank.damping);
  fnv.mix_double(options.pagerank.epsilon);
  fnv.mix(static_cast<std::uint64_t>(options.direction));
  fnv.mix(static_cast<std::uint64_t>(options.apply_bpru));
  fnv.mix(static_cast<std::uint64_t>(options.normalize_to_max));
  std::ostringstream os;
  os << std::hex << fnv.value();
  return os.str();
}

obs::Histogram& score_table_stage_histogram(std::string_view stage) {
  return obs::Registry::global().histogram(stage_metric(stage));
}

std::string score_table_build_split() {
  std::ostringstream split;
  for (std::string_view stage : kScoreTableBuildStages) {
    const obs::Histogram* h = obs::Registry::global().find_histogram(stage_metric(stage));
    if (h == nullptr) continue;
    const obs::HistogramSnapshot snap = h->snapshot();
    split << (split.tellp() > 0 ? ", " : "") << stage << ' ' << snap.sum / 1'000'000 << " ms";
  }
  return split.str();
}

std::vector<double> best_profile_teleport(const ProfileGraph& graph) {
  const std::vector<NodeId> sinks = graph.sink_nodes();
  PRVM_CHECK(!sinks.empty(), "a finite profile DAG must have sinks");
  double best_util = 0.0;
  for (NodeId s : sinks) best_util = std::max(best_util, graph.utilization(s));
  std::vector<double> teleport(graph.graph().node_count(), 0.0);
  for (NodeId s : sinks) {
    if (graph.utilization(s) >= best_util - 1e-12) teleport[s] = 1.0;
  }
  return teleport;
}

ScoreTable ScoreTable::build(const ProfileGraph& graph, const ScoreTableOptions& options) {
  // Each stage's wall time goes to its prvm_score_table_<stage>_ns histogram.
  std::uint64_t stage_start = obs::now_ns();
  const auto stage_done = [&stage_start](std::string_view stage) {
    const std::uint64_t now = obs::now_ns();
    score_table_stage_histogram(stage).record(now - stage_start);
    stage_start = now;
  };
  const PageRankResult pr = [&] {
    if (options.direction == VoteDirection::kForwardAsPrinted) {
      return compute_pagerank(graph.graph(), options.pagerank);
    }
    // Run the identical iteration on the reversed graph with the teleport
    // mass pinned on the best reachable profile(s): rank(P) becomes the
    // damped, branching-discounted weight of the paths P -> best — the
    // "convergence of transferring to the best profile" of §V-A.
    return compute_pagerank_reversed(graph.graph(), options.pagerank,
                                     best_profile_teleport(graph));
  }();

  stage_done("pagerank");

  std::vector<double> scores = pr.scores;
  if (options.apply_bpru) {
    const std::vector<double> bpru = compute_bpru(graph);
    for (std::size_t i = 0; i < scores.size(); ++i) scores[i] *= bpru[i];
  }
  if (options.normalize_to_max) {
    const double max = *std::max_element(scores.begin(), scores.end());
    if (max > 0.0) {
      for (double& s : scores) s /= max;
    }
  }
  stage_done("bpru");

  ScoreTable table;
  table.shape_ = graph.shape();
  table.demands_ = graph.demands();
  table.digest_ = digest(graph.shape(), graph.demands(), options);
  table.iterations_ = pr.iterations;
  table.converged_ = pr.converged;

  const std::size_t n = graph.node_count();
  std::vector<ProfileKey> keys(n);
  std::vector<float> node_scores(n);
  for (NodeId u = 0; u < n; ++u) {
    keys[u] = graph.key_of(u);
    node_scores[u] = static_cast<float>(scores[u]);
  }
  PRVM_CHECK(std::adjacent_find(keys.begin(), keys.end(), std::greater_equal<>()) == keys.end(),
             "node_of needs canonical numbering: keys strictly ascending");
  table.set_columns(keys, std::move(node_scores));
  return table;
}

void ScoreTable::set_columns(std::span<const ProfileKey> keys, std::vector<float> scores) {
  auto columns = std::make_shared<Columns>();
  columns->lows.reserve(keys.size());
  for (std::size_t u = 0; u < keys.size(); ++u) {
    const auto upper = static_cast<std::uint32_t>(keys[u] >> 32);
    if (u == 0 || upper != columns->uppers.back()) {
      columns->uppers.push_back(upper);
      columns->starts.push_back(static_cast<std::uint32_t>(u));
    }
    columns->lows.push_back(static_cast<std::uint32_t>(keys[u]));
  }
  columns->starts.push_back(static_cast<std::uint32_t>(keys.size()));
  columns->scores = std::move(scores);
  node_count_ = keys.size();
  segment_count_ = columns->uppers.size();
  uppers_ = columns->uppers.data();
  starts_ = columns->starts.data();
  lows_ = columns->lows.data();
  scores_ = columns->scores.data();
  storage_ = std::move(columns);
}

ScoreTable ScoreTable::extend(const ScoreTable& base, const ProfileGraph& graph,
                              bool graph_changed, const ScoreTableOptions& options) {
  if (graph_changed) {
    // New nodes or edges change the PageRank mass distribution, so every
    // score is stale: full recompute (the graph itself was still grown
    // incrementally, which is where the BFS savings live).
    return build(graph, options);
  }
  PRVM_REQUIRE(base.shape_ == graph.shape(), "extend: shape mismatch");
  PRVM_REQUIRE(base.node_count_ == graph.node_count(),
               "extend: node count mismatch for an unchanged graph");
  PRVM_REQUIRE(graph.demands().size() >= base.demand_count(),
               "extend: demand list shrank");

  // Same graph + same options => PageRank, BPRU and normalization are
  // untouched: the table shares base's key and score arrays (immutable, a
  // mapping's included) and takes the longer demand list.
  ScoreTable table = base;
  table.demands_ = graph.demands();
  table.digest_ = digest(graph.shape(), graph.demands(), options);
  for (NodeId u = 0; u < base.node_count_; ++u) {
    PRVM_REQUIRE(base.key_of(u) == graph.key_of(u),
                 "extend: base table and graph disagree on node numbering");
  }
  return table;
}

std::optional<double> ScoreTable::find(ProfileKey key) const {
  const std::optional<NodeId> node = node_of(key);
  if (!node.has_value()) return std::nullopt;
  return static_cast<double>(node_score(*node));
}

std::optional<NodeId> ScoreTable::node_of(ProfileKey key) const {
  const auto upper = static_cast<std::uint32_t>(key >> 32);
  const std::uint32_t* segment = std::lower_bound(uppers_, uppers_ + segment_count_, upper);
  if (segment == uppers_ + segment_count_ || *segment != upper) return std::nullopt;
  const std::size_t s = static_cast<std::size_t>(segment - uppers_);
  const auto low = static_cast<std::uint32_t>(key);
  const std::uint32_t* end = lows_ + starts_[s + 1];
  const std::uint32_t* it = std::lower_bound(lows_ + starts_[s], end, low);
  if (it == end || *it != low) return std::nullopt;
  return static_cast<NodeId>(it - lows_);
}

ProfileKey ScoreTable::key_of(NodeId node) const {
  // The last start not above `node` opens its segment; the sentinel start
  // (the node count) is above every node.
  const std::size_t s =
      static_cast<std::size_t>(std::upper_bound(starts_, starts_ + segment_count_ + 1, node) -
                               starts_) - 1;
  return (ProfileKey{uppers_[s]} << 32) | lows_[node];
}

NodeId ScoreTable::best_successor(NodeId node, std::size_t demand_index,
                                  std::vector<ProfileKey>& scratch) const {
  PRVM_REQUIRE(demand_index < demands_.size(), "demand index out of range");
  PRVM_REQUIRE(node < node_count_, "node out of range");
  // The highest-scoring canonical outcome across anti-collocation
  // permutations, the first in enumeration order on ties. Comparisons run on
  // the stored float scores, which build, extend and map_image share.
  scratch.clear();
  enumerate_successor_keys(shape_, key_of(node), demands_[demand_index], scratch);
  NodeId best = kNoFit;
  float best_score = 0.0F;
  for (const ProfileKey key : scratch) {
    const std::optional<NodeId> successor = node_of(key);
    PRVM_CHECK(successor.has_value(), "successor missing from score table");
    const float s = node_score(*successor);
    if (best == kNoFit || s > best_score) {
      best_score = s;
      best = *successor;
    }
  }
  return best;
}

std::optional<ScoreTable::Best> ScoreTable::best_after_node(NodeId node,
                                                            std::size_t demand_index) const {
  std::vector<ProfileKey> scratch;
  const NodeId successor = best_successor(node, demand_index, scratch);
  if (successor == kNoFit) return std::nullopt;
  return Best{static_cast<double>(node_score(successor)), key_of(successor)};
}

double ScoreTable::score(ProfileKey key) const {
  const auto s = find(key);
  PRVM_REQUIRE(s.has_value(), "profile not present in score table");
  return *s;
}

std::optional<ScoreTable::Best> ScoreTable::best_after(ProfileKey current,
                                                       std::size_t demand_index) const {
  PRVM_REQUIRE(demand_index < demands_.size(), "demand index out of range");
  const std::optional<NodeId> node = node_of(current);
  PRVM_REQUIRE(node.has_value(), "profile not present in score table");
  return best_after_node(*node, demand_index);
}

void ScoreTable::save_image(const std::filesystem::path& path) const {
  publish_file(path, [&](std::ostream& os) { write_image(os); });
}

void ScoreTable::write_image(std::ostream& os) const {
  os.write(kImageMagic, sizeof kImageMagic);
  write_pod(os, static_cast<std::uint64_t>(node_count_));
  write_pod(os, static_cast<std::uint64_t>(demands_.size()));
  write_pod(os, static_cast<std::uint64_t>(segment_count_));
  write_pod(os, static_cast<std::int64_t>(iterations_));
  write_pod(os, static_cast<std::uint64_t>(converged_));
  write_pod(os, static_cast<std::uint64_t>(digest_.size()));
  write_pod(os, static_cast<std::uint64_t>(shape_.groups().size()));
  os.write(digest_.data(), static_cast<std::streamsize>(digest_.size()));
  for (const DimensionGroup& g : shape_.groups()) {
    write_pod(os, static_cast<std::int32_t>(g.kind));
    write_pod(os, static_cast<std::int32_t>(g.count));
    write_pod(os, static_cast<std::int32_t>(g.capacity));
  }

  // Sections, each padded to a 64-byte boundary (same walk as map_image).
  std::size_t offset = static_cast<std::size_t>(os.tellp());
  const auto section = [&](const void* data, std::size_t bytes) {
    const std::size_t aligned = align_up(offset);
    for (; offset < aligned; ++offset) os.put('\0');
    os.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(bytes));
    offset += bytes;
  };
  section(uppers_, segment_count_ * sizeof(std::uint32_t));
  section(starts_, (segment_count_ + 1) * sizeof(std::uint32_t));
  section(lows_, node_count_ * sizeof(std::uint32_t));
  section(scores_, node_count_ * sizeof(float));
}

ScoreTable ScoreTable::map_image(const std::filesystem::path& path,
                                 std::vector<QuantizedDemand> demands) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PRVM_REQUIRE(fd >= 0, "cannot open image file: " + path.string());
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    PRVM_REQUIRE(false, "cannot stat image file: " + path.string());
  }
  const auto length = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, length, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  PRVM_REQUIRE(base != MAP_FAILED, "mmap failed on image file: " + path.string());
  auto image = std::make_shared<Image>();
  image->base = static_cast<const std::byte*>(base);
  image->length = length;

  // Bounds-checked header cursor; a truncated or alien file throws instead
  // of reading past the mapping.
  std::size_t offset = 0;
  const auto take = [&](std::size_t bytes) {
    PRVM_REQUIRE(offset + bytes <= length, "truncated image file: " + path.string());
    const std::byte* p = image->base + offset;
    offset += bytes;
    return p;
  };
  const auto take_u64 = [&] {
    std::uint64_t v = 0;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  };
  PRVM_REQUIRE(std::memcmp(take(sizeof kImageMagic), kImageMagic, sizeof kImageMagic) == 0,
               "not a score-table image: " + path.string());

  ScoreTable table;
  table.node_count_ = take_u64();
  const std::uint64_t demand_count = take_u64();
  table.segment_count_ = take_u64();
  std::int64_t iterations = 0;
  std::memcpy(&iterations, take(sizeof iterations), sizeof iterations);
  table.iterations_ = static_cast<int>(iterations);
  table.converged_ = take_u64() != 0;
  const std::uint64_t digest_len = take_u64();
  const std::uint64_t group_count = take_u64();
  PRVM_REQUIRE(digest_len < 256 && group_count >= 1 && group_count < 64 &&
                   table.node_count_ < kNoFit && table.segment_count_ <= table.node_count_,
               "corrupt image header: " + path.string());
  table.digest_.assign(reinterpret_cast<const char*>(take(digest_len)), digest_len);
  std::vector<DimensionGroup> groups;
  groups.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    std::int32_t raw[3];
    std::memcpy(raw, take(sizeof raw), sizeof raw);
    groups.push_back(DimensionGroup{static_cast<ResourceKind>(raw[0]), raw[1], raw[2]});
  }
  table.shape_ = ProfileShape(std::move(groups));
  PRVM_REQUIRE(demands.size() == demand_count,
               "demand list does not match score-table file: " + path.string());
  for (const QuantizedDemand& demand : demands) demand.validate(table.shape_);
  table.demands_ = std::move(demands);

  const auto section = [&](std::size_t bytes) {
    offset = align_up(offset);
    return take(bytes);
  };
  const std::size_t n = table.node_count_;
  const std::size_t segments = table.segment_count_;
  const auto words = [&](std::size_t count) {
    return reinterpret_cast<const std::uint32_t*>(section(count * sizeof(std::uint32_t)));
  };
  table.uppers_ = words(segments);
  table.starts_ = words(segments + 1);
  table.lows_ = words(n);
  table.scores_ = reinterpret_cast<const float*>(section(n * sizeof(float)));
  check_image_columns(table.uppers_, table.starts_, segments, table.lows_, n, path);
  table.storage_ = std::move(image);
  table.mapped_ = true;
  return table;
}

}  // namespace prvm
