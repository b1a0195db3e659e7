// Golden hash of the score tables the placement daemon serves.
//
// prvm_serve builds its tables from ec2_sim_catalog() with default options.
// Any change to the build pipeline (successor enumeration order, CSR layout,
// PageRank summation order, best-successor tie-breaking, ranked sort) that
// moves a single bit of those tables changes placements, so this test pins
// their exact contents with an FNV-1a hash over every field a placement can
// read. The recorded value comes from the table build before the
// allocation-free enumerator, the direct CSR build and the pull-form
// PageRank were introduced; those rewrites must reproduce it exactly.
#include <cstdint>
#include <cstring>

#include "cluster/catalog.hpp"
#include "core/catalog_graphs.hpp"

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

// Keys, scores, best entries, ranked offsets, ranked (score, key) pairs and
// the PageRank iteration count. The ranked entries' padding is left out: it
// carries no information.
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
  std::uint64_t offset = 0;
  fnv.mix(offset);
  for (std::size_t t = 0; t < table.demand_count(); ++t) {
    offset += table.ranked_keys(t).size();
    fnv.mix(offset);
  }
  for (std::size_t t = 0; t < table.demand_count(); ++t) {
    for (const ScoreTable::RankedKey& r : table.ranked_keys(t)) {
      fnv.mix_float(r.score);
      fnv.mix(r.key);
    }
  }
  fnv.mix(static_cast<std::uint64_t>(table.pagerank_iterations()));
}

TEST(ScoreTableGolden, Ec2SimCatalogTablesMatchRecordedHash) {
  const Catalog catalog = ec2_sim_catalog();
  const ScoreTableSet set = build_score_tables(catalog, {}, std::nullopt);
  Fnv1a fnv;
  fnv.mix(set.pm_type_count());
  for (std::size_t p = 0; p < set.pm_type_count(); ++p) mix_table(fnv, set.table(p));
  EXPECT_EQ(fnv.value(), 0xdfa367b60d4dfdd2ULL) << std::hex << "actual 0x" << fnv.value();
}

}  // namespace
}  // namespace prvm
