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
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cluster/catalog.hpp"
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

// Keys, scores, best entries and the PageRank iteration count.
void mix_table(Fnv1a& fnv, const ScoreTable& table) {
  fnv.mix(table.size());
  fnv.mix(table.demand_count());
  for (NodeId u = 0; u < table.size(); ++u) {
    const ProfileKey key = table.key_of(u);
    fnv.mix(key);
    fnv.mix_float(static_cast<float>(table.score(key)));
  }
  for (std::size_t t = 0; t < table.demand_count(); ++t) {
    for (const ScoreTable::BestEntry& e : table.best_row(t)) {
      fnv.mix_float(e.score);
      fnv.mix(e.successor);
    }
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
    mapped.push_back(ScoreTable::map_image(image(p)));
  }
  for (std::size_t p = 0; p < 2; ++p) owned.table(1 - p).save_image(image(p));

  const std::uint64_t hash = tables_hash({&mapped[0], &mapped[1]});
  EXPECT_EQ(hash, kRecordedHash) << std::hex << "actual 0x" << hash;
  // The rewrites are published, and no temporary file is left behind.
  EXPECT_EQ(ScoreTable::map_image(image(0)).size(), owned.table(1).size());
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path()), {}), 2);
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
        const ScoreTableSet set =
            mapped_score_tables(catalog, dir.path(), {}, nullptr, std::nullopt);
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

}  // namespace
}  // namespace prvm
