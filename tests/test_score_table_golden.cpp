// Golden hash of the score tables the placement daemon serves.
//
// prvm_serve builds its tables from ec2_sim_catalog() with default options.
// Any change to the build pipeline (successor enumeration order, CSR layout,
// PageRank summation order, best-successor tie-breaking) that moves a single
// bit of those tables changes placements, so this test pins their exact
// contents with an FNV-1a hash over every field a placement can read. The
// recorded value hashes the tables built before the ranked arena was
// deleted, without the ranked fields (which no placement reads any more), so
// every remaining field is pinned to what that build produced; a build whose
// parallel loops all run inline on one thread must reproduce it too.
//
// The tables no longer store best successors; best_after_node computes them,
// and the hash still covers them for every node and VM type, so the
// computation is pinned to what the stored blocks held. The hash works them
// out in parallel chunks on the shared pool and folds them in node order.
//
// ScoreTableLookup checks the key lookups against the keys on built and
// mapped tables, at every segment's ends and between segments. The
// ScoreImage suite serves the same tables from image
// files: written by two processes at once, corrupted, left over in an older
// format, and measured for the heap a cold build leaves behind.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cluster/catalog.hpp"
#include "common/allocator.hpp"
#include "common/flat_map.hpp"
#include "common/worker_pool.hpp"
#include "core/catalog_graphs.hpp"
#include "run_inline.hpp"

#include <gtest/gtest.h>

namespace prvm {
namespace {

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_float(float f) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// best_successor of every (VM type, node), VM-type-major: the shared pool
// works out chunks of nodes, each with its own scratch vector.
std::vector<NodeId> best_successors(const ScoreTable& table) {
  const std::size_t n = table.size();
  std::vector<NodeId> best(table.demand_count() * n);
  WorkerPool::shared().parallel_chunks(n, 2048, [&](std::size_t lo, std::size_t hi) {
    std::vector<ProfileKey> scratch;
    for (std::size_t t = 0; t < table.demand_count(); ++t) {
      for (std::size_t u = lo; u < hi; ++u) {
        best[t * n + u] = table.best_successor(static_cast<NodeId>(u), t, scratch);
      }
    }
  });
  return best;
}

// Keys, scores, best successors and the PageRank iteration count.
void mix_table(Fnv1a& fnv, const ScoreTable& table) {
  fnv.mix(table.size());
  fnv.mix(table.demand_count());
  for (NodeId u = 0; u < table.size(); ++u) {
    fnv.mix(table.key_of(u));
    fnv.mix_float(table.node_score(u));
  }
  // kRecordedHash was taken when the table stored a best entry per node and
  // VM type: the successor's score (0 with kNoFit), then its node.
  for (const NodeId best : best_successors(table)) {
    fnv.mix_float(best == ScoreTable::kNoFit ? 0.0F : table.node_score(best));
    fnv.mix(best);
  }
  fnv.mix(static_cast<std::uint64_t>(table.pagerank_iterations()));
}

constexpr std::uint64_t kRecordedHash = 0x830102be68d3828eULL;

std::uint64_t tables_hash(const std::vector<const ScoreTable*>& tables) {
  Fnv1a fnv;
  fnv.mix(tables.size());
  for (const ScoreTable* table : tables) mix_table(fnv, *table);
  return fnv.value();
}

std::uint64_t set_hash(const ScoreTableSet& set) {
  std::vector<const ScoreTable*> tables;
  for (std::size_t p = 0; p < set.pm_type_count(); ++p) tables.push_back(&set.table(p));
  return tables_hash(tables);
}

// A fresh directory under the system temp dir, removed with its contents.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("prvm-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::filesystem::path file_of(const std::filesystem::path& dir, const ScoreTable& table,
                              const char* extension) {
  return dir / ("scoretable-" + table.digest_string() + extension);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

// Overwrites sizeof(T) bytes at `offset` in place, as a flipped disk byte would.
template <typename T>
void patch_file(const std::filesystem::path& path, std::size_t offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof value);
  ASSERT_TRUE(f.good());
}

constexpr std::size_t align64(std::size_t offset) { return (offset + 63) & ~std::size_t{63}; }

// Byte offsets in a save_image() file: a 64-byte header (magic, node count,
// demand count, segment count, iterations, converged, digest length, group
// count), the digest, 12 bytes per group, then the sections, each starting
// on a 64-byte boundary: the 4-byte upper key words (one per segment), the
// segment starts (one more, ending with the node count), the 4-byte low key
// words and the scores (one per node).
struct ImageLayout {
  std::size_t nodes = 0;     ///< node count
  std::size_t segments = 0;  ///< segment count
  std::size_t uppers = 0;    ///< first upper word
  std::size_t starts = 0;    ///< first segment start
  std::size_t lows = 0;      ///< first low word
};

ImageLayout image_layout(const std::filesystem::path& path) {
  const std::string bytes = read_file(path);
  const auto digest_len = read_at<std::uint64_t>(bytes, 48);
  const auto groups = read_at<std::uint64_t>(bytes, 56);
  ImageLayout layout;
  layout.nodes = read_at<std::uint64_t>(bytes, 8);
  layout.segments = read_at<std::uint64_t>(bytes, 24);
  layout.uppers = align64(64 + digest_len + 12 * groups);
  layout.starts = align64(layout.uppers + 4 * layout.segments);
  layout.lows = align64(layout.starts + 4 * (layout.segments + 1));
  return layout;
}

// A writer of the earlier image formats. PRVMSCI5 held whole 8-byte keys
// and the scores, with the header word that now holds the segment count
// reserved as 0. The versions before it also stored a best-successor entry
// per node and VM type after the scores: PRVMSCI2, whose entries were 8
// bytes and held their score, and PRVMSCI3 and PRVMSCI4, whose entries were
// 4-byte successor ids. 2 and 3 carried a FlatMap64 hash index (its keys,
// values and occupancy bytes) after the entries, written here at the
// capacity FlatMap64 gave it, with every slot free, and its capacity in the
// reserved header word. The loader must refuse every one of them by its
// magic before it reads them.
class OldWriter {
 public:
  explicit OldWriter(const std::filesystem::path& path) : os_(path, std::ios::binary) {}
  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof value);
  }
  void bytes(const void* data, std::size_t size) {
    os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    offset_ += size;
  }
  void section(const void* data, std::size_t size) {
    for (; offset_ % 64 != 0; ++offset_) os_.put('\0');
    bytes(data, size);
  }

 private:
  std::ofstream os_;
  std::size_t offset_ = 0;
};

void write_old_image(const ScoreTable& table, const std::filesystem::path& path, char version) {
  std::vector<ProfileKey> keys;
  std::vector<float> scores;
  for (NodeId u = 0; u < table.size(); ++u) {
    keys.push_back(table.key_of(u));
    scores.push_back(table.node_score(u));
  }
  const std::vector<NodeId> v3_best = version == '5' ? std::vector<NodeId>{}
                                                      : best_successors(table);
  std::vector<std::pair<float, NodeId>> v2_best;  // {score, successor}, demand-major
  for (const NodeId successor : v3_best) {
    v2_best.emplace_back(successor == ScoreTable::kNoFit ? 0.0F : table.node_score(successor),
                         successor);
  }
  FlatMap64<NodeId> index;
  index.reserve(table.size());
  const std::size_t capacity = version >= '4' ? 0 : index.capacity();

  OldWriter w(path);
  const std::string magic = std::string("PRVMSCI") + version;
  w.bytes(magic.data(), 8);
  w.pod(static_cast<std::uint64_t>(table.size()));
  w.pod(static_cast<std::uint64_t>(table.demand_count()));
  w.pod(static_cast<std::uint64_t>(capacity));
  w.pod(static_cast<std::int64_t>(table.pagerank_iterations()));
  w.pod(static_cast<std::uint64_t>(table.pagerank_converged()));
  w.pod(static_cast<std::uint64_t>(table.digest_string().size()));
  w.pod(static_cast<std::uint64_t>(table.shape().groups().size()));
  w.bytes(table.digest_string().data(), table.digest_string().size());
  for (const DimensionGroup& g : table.shape().groups()) {
    w.pod(static_cast<std::int32_t>(g.kind));
    w.pod(static_cast<std::int32_t>(g.count));
    w.pod(static_cast<std::int32_t>(g.capacity));
  }
  w.section(keys.data(), keys.size() * sizeof(ProfileKey));
  w.section(scores.data(), scores.size() * sizeof(float));
  if (version == '5') return;
  if (version == '2') {
    w.section(v2_best.data(), v2_best.size() * sizeof(v2_best[0]));
  } else {
    w.section(v3_best.data(), v3_best.size() * sizeof(NodeId));
  }
  if (version == '4') return;
  const std::vector<char> free_slots(capacity * sizeof(std::uint64_t), 0);
  w.section(free_slots.data(), capacity * sizeof(std::uint64_t));  // index keys
  w.section(free_slots.data(), capacity * sizeof(NodeId));         // index values
  w.section(free_slots.data(), capacity);                          // occupancy bytes
}

TEST(ScoreTableGolden, Ec2SimCatalogTablesMatchRecordedHash) {
  const Catalog catalog = ec2_sim_catalog();
  const ScoreTableSet set = build_score_tables(catalog, {}, std::nullopt);
  const std::uint64_t hash = set_hash(set);
  EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
}

TEST(ScoreTableGolden, HashHoldsWhenEveryParallelLoopRunsInline) {
  const Catalog catalog = ec2_sim_catalog();
  std::uint64_t hash = 0;
  run_inline([&] { hash = set_hash(build_score_tables(catalog, {}, std::nullopt)); });
  EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
}

// The reversed PageRank of a cold build updates only rows that can still
// hold mass: with the teleport on the best profile, the profiles that cannot
// reach it are dead within 10 and 16 iterations and skipped from then on.
// The exact counts pin the skipping; a full sweep updates every row in every
// iteration (nodes x iterations, 11,916,942 here).
TEST(ScoreTableGolden, Ec2PageRankUpdatesOnlyRowsThatReachTheBestProfile) {
  const Catalog catalog = ec2_sim_catalog();
  std::vector<int> iterations;
  std::vector<std::size_t> updates;
  std::size_t full_sweep = 0;
  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    const ProfileGraph graph(catalog.shape(p), catalog.fitting_demands(p).demands);
    const PageRankResult pr = compute_pagerank_reversed(
        graph.graph(), ScoreTableOptions{}.pagerank, best_profile_teleport(graph));
    iterations.push_back(pr.iterations);
    updates.push_back(pr.row_updates);
    full_sweep += graph.node_count() * static_cast<std::size_t>(pr.iterations);
  }
  EXPECT_EQ(iterations, (std::vector<int>{97, 87}));
  EXPECT_EQ(updates, (std::vector<std::size_t>{2'040'693, 464'177}));
  EXPECT_LT((updates[0] + updates[1]) * 4, full_sweep);
}

TEST(ScoreTableGolden, MappedTablesSurviveARewriteOfTheirImages) {
  // Map each PM type's image, then write the *other* type's image over it,
  // as a second cell rewriting the file would. The mapped tables must keep
  // reading the bytes they mapped.
  const Catalog catalog = ec2_sim_catalog();
  const ScoreTableSet owned = build_score_tables(catalog, {}, std::nullopt);
  ASSERT_EQ(owned.pm_type_count(), 2u);
  const TempDir dir("image-rewrite");
  const auto image = [&](std::size_t p) { return dir.path() / ("t" + std::to_string(p) + ".img"); };
  std::vector<ScoreTable> mapped;
  for (std::size_t p = 0; p < 2; ++p) {
    owned.table(p).save_image(image(p));
    mapped.push_back(ScoreTable::map_image(image(p), owned.table(p).demands()));
  }
  for (std::size_t p = 0; p < 2; ++p) owned.table(1 - p).save_image(image(p));

  const std::uint64_t hash = tables_hash({&mapped[0], &mapped[1]});
  EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
  // The rewrites are published, and no temporary file is left behind.
  EXPECT_EQ(ScoreTable::map_image(image(0), owned.table(1).demands()).size(),
            owned.table(1).size());
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path()), {}), 2);
}

TEST(ScoreTableLookup, NodeOfInvertsKeyOfOnBuiltAndMappedTables) {
  // node_of binary-searches the upper key words, then the low words of that
  // segment. On both EC2 tables, built and mapped: every node's key finds
  // that node, the first and last key of every segment included; a key
  // between two neighbours, past the last key, or UINT64_MAX finds nothing
  // (the first key is 0, the empty profile, so no key lies below it), nor
  // does a key whose upper word no segment has, even with a low word some
  // node has; and the key-based find agrees with the node-keyed score
  // (checked in parallel chunks of nodes). Each node's best successor for
  // each VM type is worked out once, with best_successor, and must be a node
  // whose key finds it again. best_after(key, d) is best_after_node(node_of
  // (key), d), so with node_of checked the two agree; they are compared with
  // best_successor on the first node of each chunk.
  const Catalog catalog = ec2_sim_catalog();
  const ScoreTableSet owned = build_score_tables(catalog, {}, std::nullopt);
  const TempDir dir("node-of");
  const ScoreTableSet mapped = build_score_tables(catalog, {}, dir.path());
  ASSERT_EQ(owned.pm_type_count(), 2u);
  const auto upper = [](ProfileKey key) { return key >> 32; };
  for (const ScoreTableSet* set : {&owned, &mapped}) {
    for (std::size_t p = 0; p < set->pm_type_count(); ++p) {
      const ScoreTable& table = set->table(p);
      SCOPED_TRACE(std::string(table.is_mapped() ? "mapped" : "built") + " table " +
                   std::to_string(p));
      ASSERT_EQ(table.is_mapped(), set == &mapped);
      ASSERT_EQ(table.key_of(0), ProfileKey{0});
      const std::size_t n = table.size();
      std::atomic<std::size_t> mismatches{0};
      std::atomic<std::size_t> gaps{0};
      WorkerPool::shared().parallel_chunks(n, 2048, [&](std::size_t lo, std::size_t hi) {
        std::size_t bad = 0;
        std::size_t between = 0;
        std::vector<ProfileKey> scratch;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto node = static_cast<NodeId>(u);
          const ProfileKey key = table.key_of(node);
          bad += table.node_of(key) != std::optional<NodeId>(node);
          bad += table.find(key) != std::optional<double>(table.node_score(node));
          for (std::size_t d = 0; d < table.demand_count(); ++d) {
            const NodeId best = table.best_successor(node, d, scratch);
            if (best != ScoreTable::kNoFit) {
              bad += best >= n || table.node_of(table.key_of(best)) != std::optional<NodeId>(best);
            }
            if (u != lo) continue;
            for (const auto& answer : {table.best_after(key, d), table.best_after_node(node, d)}) {
              bad += answer.has_value() != (best != ScoreTable::kNoFit) ||
                     (answer.has_value() &&
                      (answer->score != static_cast<double>(table.node_score(best)) ||
                       answer->successor != table.key_of(best)));
            }
          }
          if (u + 1 < n && table.key_of(static_cast<NodeId>(u + 1)) - key > 1) {
            ++between;
            bad += table.node_of(key + 1).has_value();
            bad += table.node_of(table.key_of(static_cast<NodeId>(u + 1)) - 1).has_value();
            bad += table.find(key + 1).has_value();
          }
        }
        mismatches += bad;
        gaps += between;
      });
      EXPECT_EQ(mismatches.load(), 0u);
      EXPECT_GT(gaps.load(), 0u);

      // Segment ends, and upper words between and past the segments'.
      std::size_t segments = 0;
      std::size_t absent_uppers = 0;
      for (NodeId first = 0; first < n;) {
        NodeId last = first;
        while (last + 1 < n && upper(table.key_of(last + 1)) == upper(table.key_of(first))) ++last;
        ++segments;
        EXPECT_EQ(table.node_of(table.key_of(first)), first);
        EXPECT_EQ(table.node_of(table.key_of(last)), last);
        const ProfileKey next_upper = upper(table.key_of(last)) + 1;
        if (last + 1 == n || upper(table.key_of(last + 1)) > next_upper) {
          ++absent_uppers;
          EXPECT_EQ(table.node_of(next_upper << 32), std::nullopt);
          EXPECT_EQ(table.node_of((next_upper << 32) | (table.key_of(first) & 0xFFFFFFFFu)),
                    std::nullopt);
        }
        first = last + 1;
      }
      EXPECT_GT(segments, 1u);
      EXPECT_GT(absent_uppers, 0u);

      const ProfileKey last = table.key_of(static_cast<NodeId>(n - 1));
      ASSERT_LT(last, UINT64_MAX);
      EXPECT_EQ(table.node_of(last + 1), std::nullopt);
      EXPECT_EQ(table.node_of(UINT64_MAX), std::nullopt);
      EXPECT_EQ(table.find(UINT64_MAX), std::nullopt);
      EXPECT_THROW(table.best_after(UINT64_MAX, 0), std::invalid_argument);
    }
  }
}

TEST(ScoreImage, ConcurrentColdStartsInOneEmptyDirAgree) {
  // Two processes start at once on one empty image directory: both build,
  // both write, and each maps what it wrote or what the other published.
  // Neither may crash, and both must serve the recorded tables.
  const Catalog catalog = ec2_sim_catalog();
  const TempDir dir("image-race");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  pid_t children[2];
  for (pid_t& child : children) {
    child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::close(fds[0]);
      int status = 1;
      try {
        const ScoreTableSet set = build_score_tables(catalog, {}, dir.path());
        const std::uint64_t hash = set_hash(set);
        status = ::write(fds[1], &hash, sizeof hash) == sizeof hash ? 0 : 1;
      } catch (...) {
      }
      ::_exit(status);
    }
  }
  ::close(fds[1]);
  for (pid_t child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "child status " << status;
  }
  std::uint64_t hashes[2] = {0, 0};
  EXPECT_EQ(::read(fds[0], hashes, sizeof hashes), static_cast<ssize_t>(sizeof hashes));
  ::close(fds[0]);
  EXPECT_EQ(hashes[0], kRecordedHash) << std::hex << "actual 0x" << hashes[0];
  EXPECT_EQ(hashes[1], hashes[0]);
}

using ImagePatch = std::function<void(const std::filesystem::path&)>;

// Builds the EC2 images into a fresh directory and checks that the tables
// they serve hash to kRecordedHash. Then for each patch: applies it to the
// M3 image, expects map_image to throw std::invalid_argument, and expects
// build_score_tables to rewrite that one image byte for byte as it was
// first written and to serve it mapped, so the served tables are the
// recorded ones without hashing them again. Each set is dropped before its
// file is patched in place.
void expect_each_patch_rejected_and_rebuilt(const char* tag,
                                            const std::vector<ImagePatch>& patches) {
  const Catalog catalog = ec2_sim_catalog();
  const TempDir dir(tag);
  const std::vector<QuantizedDemand>& demands = catalog.fitting_demands(0).demands;
  std::filesystem::path image;
  {
    const ScoreTableSet set = build_score_tables(catalog, {}, dir.path());
    const std::uint64_t hash = set_hash(set);
    EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
    image = file_of(dir.path(), set.table(0), ".img");
  }
  const std::string written = read_file(image);
  for (std::size_t i = 0; i < patches.size(); ++i) {
    EXPECT_NO_THROW(ScoreTable::map_image(image, demands));
    patches[i](image);
    EXPECT_THROW(ScoreTable::map_image(image, demands), std::invalid_argument) << "patch " << i;
    ScoreImageReport report;
    const ScoreTableSet set = build_score_tables(catalog, {}, dir.path(), &report);
    EXPECT_EQ(report.written, 1u) << "patch " << i;
    EXPECT_EQ(report.mapped, 1u) << "patch " << i;
    EXPECT_TRUE(set.table(0).is_mapped()) << "patch " << i;
    EXPECT_TRUE(read_file(image) == written) << "patch " << i;
  }
}

TEST(ScoreImage, OutOfRangeNodeIdsAreRejectedAndTheImageRebuilt) {
  // The header's node count bounds every node id the table hands out: a
  // count past the low words and scores the file holds would let ids index
  // past the mapping, and one at kNoFit would make the last id read as "no
  // fit". A key out of order would make node_of's binary searches miss or
  // return a wrong node. map_image must throw on each: here the node count
  // grows by one, then is set to kNoFit, and then the last key drops back to
  // 0, the first key (its segment's upper word and its own low word).
  const auto set_node_count = [](const std::filesystem::path& image, std::uint64_t nodes) {
    patch_file(image, 8, nodes);
  };
  expect_each_patch_rejected_and_rebuilt(
      "image-corrupt",
      {[&](const std::filesystem::path& image) {
         set_node_count(image, image_layout(image).nodes + 1);
       },
       [&](const std::filesystem::path& image) {
         set_node_count(image, ScoreTable::kNoFit);
       },
       [](const std::filesystem::path& image) {
         const ImageLayout layout = image_layout(image);
         patch_file(image, layout.uppers + (layout.segments - 1) * 4, std::uint32_t{0});
         patch_file(image, layout.lows + (layout.nodes - 1) * 4, std::uint32_t{0});
       }});
}

TEST(ScoreImage, LoadRejectsKeysOutOfOrder) {
  // In the middle of the largest segment, low words k and k + 1 swapped,
  // then low word k written over k + 1: the loader checks that the low words
  // ascend strictly within each segment, so neither image maps.
  const auto lows_at = [](const std::filesystem::path& image) {
    const std::string bytes = read_file(image);
    const ImageLayout layout = image_layout(image);
    std::size_t first = 0;
    std::size_t largest = 0;
    for (std::size_t s = 0; s < layout.segments; ++s) {
      const auto begin = read_at<std::uint32_t>(bytes, layout.starts + 4 * s);
      const auto end = read_at<std::uint32_t>(bytes, layout.starts + 4 * (s + 1));
      if (end - begin > largest) {
        largest = end - begin;
        first = begin;
      }
    }
    const std::size_t at = layout.lows + 4 * (first + largest / 2);
    return std::tuple{at, read_at<std::uint32_t>(bytes, at), read_at<std::uint32_t>(bytes, at + 4)};
  };
  expect_each_patch_rejected_and_rebuilt(
      "image-key-order",
      {[&](const std::filesystem::path& image) {
         const auto [at, low, next] = lows_at(image);
         patch_file(image, at, next);
         patch_file(image, at + 4, low);
       },
       [&](const std::filesystem::path& image) {
         const auto [at, low, next] = lows_at(image);
         patch_file(image, at + 4, low);
       }});
}

TEST(ScoreImage, LoadRejectsACorruptSegmentTable) {
  // The upper words must ascend strictly, and the segment starts must rise
  // strictly from 0 to the node count: otherwise node_of would search the
  // wrong segment, or read low words past the table. Each patch is refused
  // and the image rebuilt: two upper words swapped, a start equal to the
  // one before it, a start past the node count, the end start past it, and
  // a first start above 0.
  const auto word = [](const std::filesystem::path& image, std::size_t at) {
    return read_at<std::uint32_t>(read_file(image), at);
  };
  expect_each_patch_rejected_and_rebuilt(
      "image-segments",
      {[&](const std::filesystem::path& image) {
         const std::size_t at = image_layout(image).uppers + 4;
         const std::uint32_t upper = word(image, at);
         patch_file(image, at, word(image, at + 4));
         patch_file(image, at + 4, upper);
       },
       [&](const std::filesystem::path& image) {
         const std::size_t at = image_layout(image).starts + 8;
         patch_file(image, at, word(image, at - 4));
       },
       [&](const std::filesystem::path& image) {
         const ImageLayout layout = image_layout(image);
         patch_file(image, layout.starts + 4, static_cast<std::uint32_t>(layout.nodes + 1));
       },
       [&](const std::filesystem::path& image) {
         const ImageLayout layout = image_layout(image);
         patch_file(image, layout.starts + 4 * layout.segments,
                    static_cast<std::uint32_t>(layout.nodes + 1));
       },
       [&](const std::filesystem::path& image) {
         patch_file(image, image_layout(image).starts, std::uint32_t{1});
       }});
}

TEST(ScoreImage, LoadRejectsADemandListThatDoesNotFit) {
  // The image holds no demands; map_image takes them from the caller. A
  // list of another length than the image's demand count, or one the
  // image's shape cannot hold, is refused.
  const ProfileShape shape({DimensionGroup{ResourceKind::kCpu, 4, 4},
                            DimensionGroup{ResourceKind::kMemory, 1, 8}});
  const std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1}, {1}}},
                                                QuantizedDemand{{{2, 2}, {3}}}};
  const ScoreTable table = ScoreTable::build(ProfileGraph(shape, demands));
  const TempDir dir("image-demands");
  const std::filesystem::path image = dir.path() / "t.img";
  table.save_image(image);
  const ScoreTable mapped = ScoreTable::map_image(image, demands);
  EXPECT_EQ(mapped.demand_count(), 2u);
  EXPECT_EQ(mapped.best_after_node(0, 1)->successor, table.best_after_node(0, 1)->successor);
  EXPECT_THROW(ScoreTable::map_image(image, {demands[0]}), std::invalid_argument);
  EXPECT_THROW(ScoreTable::map_image(image, {demands[0], demands[1], demands[0]}),
               std::invalid_argument);
  EXPECT_THROW(ScoreTable::map_image(image, {demands[0], QuantizedDemand{{{5}, {1}}}}),
               std::invalid_argument);
}

TEST(ScoreImage, OldFormatFilesAreRebuiltNotMisread) {
  // Version-2 images (8-byte best entries) left in the image directory are
  // replaced by current ones, and the tables served on the way hash to the
  // recorded value.
  const Catalog catalog = ec2_sim_catalog();
  const ScoreTableSet owned = build_score_tables(catalog, {}, std::nullopt);
  const TempDir dir("old-format");
  for (std::size_t p = 0; p < owned.pm_type_count(); ++p) {
    write_old_image(owned.table(p), file_of(dir.path(), owned.table(p), ".img"), '2');
  }

  ScoreImageReport report;
  const std::uint64_t hash = set_hash(build_score_tables(catalog, {}, dir.path(), &report));
  EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
  EXPECT_EQ(report.written, owned.pm_type_count());
  EXPECT_EQ(report.mapped, 0u);
  for (std::size_t p = 0; p < owned.pm_type_count(); ++p) {
    EXPECT_EQ(read_file(file_of(dir.path(), owned.table(p), ".img")).substr(0, 8), "PRVMSCI6");
  }
}

// An image of an older `version` (larger than a current one) in the
// directory beside a current image: map_image refuses it by its magic, and
// build_score_tables rewrites that one image, to the current size, and maps
// the other. The old image is written from the mapped M3 table to a
// temporary file and renamed over the current one, so the mapping keeps
// reading the inode it mapped.
void expect_old_image_refused_by_magic(char version, const char* tag) {
  const Catalog catalog = ec2_sim_catalog();
  const std::vector<QuantizedDemand>& demands = catalog.fitting_demands(0).demands;
  const TempDir dir(tag);
  std::filesystem::path image;
  std::uintmax_t current_bytes = 0;
  {
    const ScoreTableSet set = build_score_tables(catalog, {}, dir.path());
    image = file_of(dir.path(), set.table(0), ".img");
    current_bytes = std::filesystem::file_size(image);
    const std::filesystem::path old = dir.path() / "old-image.tmp";
    write_old_image(set.table(0), old, version);
    std::filesystem::rename(old, image);
  }
  EXPECT_GT(std::filesystem::file_size(image), current_bytes);
  try {
    ScoreTable::map_image(image, demands);
    ADD_FAILURE() << "a PRVMSCI" << version << " image mapped";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not a score-table image"), std::string::npos)
        << e.what();
  }
  ScoreImageReport report;
  const std::uint64_t hash = set_hash(build_score_tables(catalog, {}, dir.path(), &report));
  EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
  EXPECT_EQ(report.written, 1u);
  EXPECT_EQ(report.mapped, 1u);
  EXPECT_EQ(read_file(image).substr(0, 8), "PRVMSCI6");
  EXPECT_EQ(std::filesystem::file_size(image), current_bytes);
}

TEST(ScoreImage, HashIndexedImagesAreRejectedByMagicAndRebuilt) {
  // Version 3: 4-byte best entries and a hash index.
  expect_old_image_refused_by_magic('3', "v3-format");
}

TEST(ScoreImage, BestSuccessorImagesAreRejectedByMagicAndRebuilt) {
  // Version 4: keys, scores and a 4-byte best-successor entry per node and
  // VM type.
  expect_old_image_refused_by_magic('4', "v4-format");
}

TEST(ScoreImage, WholeKeyImagesAreRejectedByMagicAndRebuilt) {
  // Version 5: 8-byte keys and the scores, nothing else.
  expect_old_image_refused_by_magic('5', "v5-format");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerAllocator = true;
#else
constexpr bool kSanitizerAllocator = false;
#endif
#else
constexpr bool kSanitizerAllocator = false;
#endif

long rss_anon_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

TEST(ScoreImage, ColdBuildLeavesNoAnonResidue) {
  // prvm_serve pins glibc's malloc thresholds before anything else. A cold
  // start on an empty image directory must then leave only a little
  // anonymous memory behind once its tables are served from the images:
  // about 0.3 MB, where unpinned thresholds left about 8 MB in freed arena
  // tops and heap, and the pool threads' own arenas about 0.4 MB more.
  // Measured in a child, so the pinned thresholds and the build's heap stay
  // out of this process.
  if (kSanitizerAllocator) GTEST_SKIP() << "sanitizer allocators ignore mallopt";
#if !defined(__GLIBC__)
  GTEST_SKIP() << "the thresholds are glibc's";
#endif
  constexpr long kBoundKb = 512;
  const Catalog catalog = ec2_sim_catalog();
  const TempDir dir("image-residue");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds[0]);
    int status = 1;
    try {
      pin_allocator_thresholds();
      long kb[2] = {rss_anon_kb(), 0};
      const ScoreTableSet set = build_score_tables(catalog, {}, dir.path());
      kb[1] = rss_anon_kb();
      status = ::write(fds[1], kb, sizeof kb) == sizeof kb ? 0 : 1;
    } catch (...) {
    }
    ::_exit(status);
  }
  ::close(fds[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "child status " << status;
  long kb[2] = {0, 0};
  ASSERT_EQ(::read(fds[0], kb, sizeof kb), static_cast<ssize_t>(sizeof kb));
  ::close(fds[0]);
  ASSERT_GT(kb[0], 0);
  RecordProperty("rss_anon_growth_kb", std::to_string(kb[1] - kb[0]));
  EXPECT_LT(kb[1] - kb[0], kBoundKb) << "RssAnon " << kb[0] << " kB before the build, " << kb[1]
                                     << " kB after";
}

}  // namespace
}  // namespace prvm
