// Differential tests for incremental profile-graph / score-table
// maintenance and the mmap score-table image.
//
// The contract under test is strict: a graph grown via extend() and a table
// grown via ScoreTable::extend() must be *byte-identical* to ones built
// from scratch over the final demand list — same node numbering, same
// float scores, same best successors — so that
// an engine running on an extended table makes bit-identical placement
// decisions.
#include "common/check.hpp"
#include "core/catalog_graphs.hpp"
#include "core/score_table.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>

namespace prvm {
namespace {

ProfileShape paper_shape() {
  return ProfileShape({DimensionGroup{ResourceKind::kCpu, 4, 4}});
}

/// A pool of distinct single-group demands on the paper shape.
const std::vector<QuantizedDemand>& demand_pool() {
  static const std::vector<QuantizedDemand> pool = {
      QuantizedDemand{{{1}}},          QuantizedDemand{{{1, 1}}},
      QuantizedDemand{{{2}}},          QuantizedDemand{{{2, 1}}},
      QuantizedDemand{{{1, 1, 1, 1}}}, QuantizedDemand{{{2, 2}}},
      QuantizedDemand{{{3}}},          QuantizedDemand{{{4}}},
      QuantizedDemand{{{3, 2, 1}}},    QuantizedDemand{{{2, 1, 1}}},
  };
  return pool;
}

void expect_graphs_identical(const ProfileGraph& a, const ProfileGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.demands().size(), b.demands().size());
  for (NodeId u = 0; u < a.node_count(); ++u) {
    ASSERT_EQ(a.key_of(u), b.key_of(u)) << "node " << u;
    const auto sa = a.graph().successors(u);
    const auto sb = b.graph().successors(u);
    ASSERT_EQ(std::vector<NodeId>(sa.begin(), sa.end()),
              std::vector<NodeId>(sb.begin(), sb.end()))
        << "adjacency of node " << u;
  }
}

void expect_tables_identical(const ScoreTable& a, const ScoreTable& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.demand_count(), b.demand_count());
  EXPECT_EQ(a.digest_string(), b.digest_string());
  for (NodeId u = 0; u < a.size(); ++u) {
    ASSERT_EQ(a.key_of(u), b.key_of(u)) << "node " << u;
    // find() returns double(float); exact equality is the contract.
    ASSERT_EQ(a.find(a.key_of(u)), b.find(b.key_of(u))) << "score of node " << u;
  }
  for (std::size_t t = 0; t < a.demand_count(); ++t) {
    ASSERT_EQ(a.demands()[t].group_items, b.demands()[t].group_items) << "demand " << t;
    for (NodeId u = 0; u < a.size(); ++u) {
      const auto best_a = a.best_after_node(u, t);
      const auto best_b = b.best_after_node(u, t);
      ASSERT_EQ(best_a.has_value(), best_b.has_value()) << "demand " << t << " node " << u;
      if (!best_a.has_value()) continue;
      ASSERT_EQ(best_a->successor, best_b->successor) << "demand " << t << " node " << u;
      ASSERT_EQ(best_a->score, best_b->score) << "demand " << t << " node " << u;
    }
  }
}

TEST(IncrementalScoreTable, GraphExtendMatchesFreshBuild) {
  const auto& pool = demand_pool();
  ProfileGraph grown(paper_shape(), {pool[0], pool[1]});
  grown.extend({pool[4], pool[6]});
  grown.extend({pool[8]});
  const ProfileGraph fresh(paper_shape(), {pool[0], pool[1], pool[4], pool[6], pool[8]});
  expect_graphs_identical(grown, fresh);
}

TEST(IncrementalScoreTable, ExtendMatchesFreshBuildRandomizedGrowth) {
  const auto& pool = demand_pool();
  for (std::uint32_t seed = 0; seed < 6; ++seed) {
    std::mt19937 rng(seed);
    std::vector<QuantizedDemand> demands = {pool[rng() % pool.size()]};
    ProfileGraph graph(paper_shape(), demands);
    ScoreTable table = ScoreTable::build(graph);

    for (int step = 0; step < 4; ++step) {
      // Append 1-2 demands from the pool (repeats allowed: a duplicate
      // demand exercises the graph-unchanged fast path).
      std::vector<QuantizedDemand> batch;
      const int count = 1 + static_cast<int>(rng() % 2);
      for (int i = 0; i < count; ++i) batch.push_back(pool[rng() % pool.size()]);
      demands.insert(demands.end(), batch.begin(), batch.end());

      const ProfileGraph::ExtendStats stats = graph.extend(batch);
      table = ScoreTable::extend(table, graph, stats.changed());

      const ProfileGraph fresh_graph(paper_shape(), demands);
      expect_graphs_identical(graph, fresh_graph);
      const ScoreTable fresh = ScoreTable::build(fresh_graph);
      expect_tables_identical(table, fresh);
    }
  }
}

TEST(IncrementalScoreTable, DuplicateDemandTakesTheFastPath) {
  const auto& pool = demand_pool();
  ProfileGraph graph(paper_shape(), {pool[1], pool[4]});
  const ScoreTable base = ScoreTable::build(graph);
  // A demand identical to an existing one reaches exactly the same
  // successors: no new node, no new edge.
  const ProfileGraph::ExtendStats stats = graph.extend({pool[1]});
  EXPECT_FALSE(stats.changed());
  EXPECT_EQ(stats.new_nodes, 0u);
  EXPECT_EQ(stats.new_edges, 0u);
  const ScoreTable extended = ScoreTable::extend(base, graph, stats.changed());
  const ScoreTable fresh = ScoreTable::build(ProfileGraph(paper_shape(), graph.demands()));
  expect_tables_identical(extended, fresh);
}

/// Small CPU-only catalog (GENI-style PM) whose VM-type list we can grow.
Catalog slot_catalog(std::size_t vm_count) {
  const std::vector<VmType> all = {
      {"t1", 1, 1.0, 0.0, 0, 0.0},  {"t2", 2, 1.0, 0.0, 0, 0.0},
      {"t2w", 1, 2.0, 0.0, 0, 0.0}, {"t4", 4, 1.0, 0.0, 0, 0.0},
      {"t2d", 2, 1.0, 0.0, 0, 0.0},  // duplicate demand of t2: fast path
  };
  PRVM_REQUIRE(vm_count >= 1 && vm_count <= all.size(), "bad vm_count");
  return Catalog(std::vector<VmType>(all.begin(), all.begin() + vm_count), geni_pm_types());
}

void expect_sets_identical(const Catalog& catalog, const ScoreTableSet& a,
                           const ScoreTableSet& b) {
  ASSERT_EQ(a.pm_type_count(), b.pm_type_count());
  for (std::size_t p = 0; p < a.pm_type_count(); ++p) {
    expect_tables_identical(a.table(p), b.table(p));
    for (std::size_t v = 0; v < catalog.vm_types().size(); ++v) {
      EXPECT_EQ(a.demand_slot(p, v), b.demand_slot(p, v)) << "pm " << p << " vm " << v;
    }
  }
}

TEST(IncrementalScoreTable, CatalogGrowthMatchesFullRebuild) {
  IncrementalScoreTables inc(slot_catalog(1));
  for (std::size_t n = 2; n <= 5; ++n) {
    const Catalog grown = slot_catalog(n);
    const IncrementalScoreTables::ExtendReport report = inc.extend_to(grown);
    EXPECT_EQ(report.fast_extends + report.graph_extends + report.unchanged,
              grown.pm_types().size());
    const ScoreTableSet fresh = build_score_tables(grown, {}, std::nullopt);
    expect_sets_identical(grown, inc.set(), fresh);
  }
  // The last append (t2d) duplicates t2's demand: every PM type must have
  // taken the fast path.
  const IncrementalScoreTables::ExtendReport dup =
      IncrementalScoreTables(slot_catalog(4)).extend_to(slot_catalog(5));
  EXPECT_EQ(dup.graph_extends, 0u);
  EXPECT_EQ(dup.new_nodes, 0u);
}

TEST(IncrementalScoreTable, ExtendToRejectsMutatedPrefix) {
  IncrementalScoreTables inc(slot_catalog(2));
  // Same sizes, different VM list: the prefix check must throw.
  const std::vector<VmType> mutated = {{"t1", 1, 1.0, 0.0, 0, 0.0},
                                       {"tX", 3, 1.0, 0.0, 0, 0.0},
                                       {"t4", 4, 1.0, 0.0, 0, 0.0}};
  const Catalog bad(mutated, geni_pm_types());
  EXPECT_THROW(inc.extend_to(bad), std::exception);
}

TEST(IncrementalScoreTable, ImageRoundTripServesIdenticalAnswers) {
  const auto& pool = demand_pool();
  const ProfileGraph graph(paper_shape(), {pool[1], pool[4], pool[8]});
  const ScoreTable built = ScoreTable::build(graph);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "prvm_score_table_image_test.bin";
  built.save_image(path);
  {
    const ScoreTable mapped = ScoreTable::map_image(path, graph.demands());
    EXPECT_TRUE(mapped.is_mapped());
    EXPECT_FALSE(built.is_mapped());
    expect_tables_identical(built, mapped);

    // A copy shares the mapping and outlives the original table object.
    ScoreTable copy = mapped;
    EXPECT_TRUE(copy.is_mapped());
    expect_tables_identical(built, copy);
  }
  // Garbage must be rejected, not crash.
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an image at all, definitely not page aligned", f);
    std::fclose(f);
    EXPECT_THROW(ScoreTable::map_image(path, graph.demands()), std::exception);
  }
  std::filesystem::remove(path);
}

// A table directory records what an in-memory build records (a build or a
// mapped load per table, hit/miss counters), and reads and writes the
// directory it is given, not the default one.
TEST(MappedScoreTables, RecordBuildMetricsAndReadTheGivenCacheDir) {
  const Catalog catalog = geni_catalog();
  const std::size_t pm_types = catalog.pm_types().size();
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "prvm_mapped_tables_test";
  std::filesystem::remove_all(root);
  obs::Registry& reg = obs::Registry::global();
  struct Counts {
    std::uint64_t builds, loads, hits, misses;
  };
  const auto counts = [&] {
    return Counts{reg.histogram("prvm_score_table_build_ns").snapshot().count,
                  reg.histogram("prvm_score_table_load_ns").snapshot().count,
                  reg.counter("prvm_score_table_cache_hits_total").value(),
                  reg.counter("prvm_score_table_cache_misses_total").value()};
  };

  // An empty dir: every table is built, counted a miss, written and mapped.
  Counts before = counts();
  ScoreImageReport report;
  const ScoreTableSet written = build_score_tables(catalog, {}, root / "img-a", &report);
  Counts after = counts();
  EXPECT_EQ(report.written, pm_types);
  EXPECT_TRUE(written.table(0).is_mapped());
  EXPECT_EQ(after.builds - before.builds, pm_types);
  EXPECT_EQ(after.misses - before.misses, pm_types);
  EXPECT_EQ(after.hits, before.hits);

  // Another empty dir beside a warm one: built again, not read from img-a.
  before = counts();
  build_score_tables(catalog, {}, root / "img-b", &report);
  after = counts();
  EXPECT_EQ(report.written, pm_types);
  EXPECT_EQ(after.builds - before.builds, pm_types);
  EXPECT_EQ(after.hits, before.hits);

  // Existing images: mapped, counted as hits and loads, nothing built.
  before = counts();
  build_score_tables(catalog, {}, root / "img-a", &report);
  after = counts();
  EXPECT_EQ(report.mapped, pm_types);
  EXPECT_EQ(report.written, 0u);
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.loads - before.loads, pm_types);
  EXPECT_EQ(after.hits - before.hits, pm_types);

  // No dir: built in memory, counted a miss, nothing mapped.
  before = counts();
  const ScoreTableSet owned = build_score_tables(catalog, {}, std::nullopt);
  after = counts();
  EXPECT_FALSE(owned.table(0).is_mapped());
  EXPECT_EQ(after.builds - before.builds, pm_types);
  EXPECT_EQ(after.misses - before.misses, pm_types);
  std::filesystem::remove_all(root);
}

// Earlier versions also kept an owned binary cache, scoretable-<digest>.bin,
// in the same directory. A leftover one is neither read nor removed: the
// table is built and its image written beside it.
TEST(MappedScoreTables, LeftoverBinaryCacheFileIsIgnored) {
  const Catalog catalog = geni_catalog();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "prvm_leftover_cache_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string digest = ScoreTable::digest(catalog.shape(0),
                                                catalog.fitting_demands(0).demands, {});
  const std::filesystem::path leftover = dir / ("scoretable-" + digest + ".bin");
  const std::string bytes = "an owned table of an earlier version";
  std::ofstream(leftover, std::ios::binary) << bytes;

  ScoreImageReport report;
  const ScoreTableSet set = build_score_tables(catalog, {}, dir, &report);
  EXPECT_EQ(report.written, 1u);
  EXPECT_EQ(report.mapped, 0u);
  EXPECT_TRUE(set.table(0).is_mapped());
  EXPECT_TRUE(std::filesystem::exists(dir / ("scoretable-" + digest + ".img")));
  std::ifstream is(leftover, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(is), {}), bytes);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace prvm
