// Micro-benchmarks (google-benchmark) of the hot paths: canonicalization,
// permutation enumeration, PageRank iteration, graph build, score lookups,
// single-VM placement for every algorithm, and the ledger's own operations
// (release+place, copy, snapshot serialize and parse).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "common/allocator.hpp"
#include "common/byte_writer.hpp"
#include "core/catalog_graphs.hpp"
#include "placement/algorithm_factory.hpp"
#include "placement/pagerank_vm.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

const ProfileShape& m3_shape() {
  static const ProfileShape shape = ec2_pm_types()[0].make_shape(QuantizationConfig{});
  return shape;
}

void BM_ProfileCanonicalize(benchmark::State& state) {
  const ProfileShape& shape = m3_shape();
  const Profile p = Profile::from_levels(shape, {0, 3, 1, 4, 2, 2, 0, 1, 9, 2, 0, 4, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.canonical(shape));
  }
}
BENCHMARK(BM_ProfileCanonicalize);

void BM_ProfilePackUnpack(benchmark::State& state) {
  const ProfileShape& shape = m3_shape();
  const Profile p =
      Profile::from_levels(shape, {4, 3, 2, 2, 1, 1, 0, 0, 9, 4, 2, 1, 0});
  for (auto _ : state) {
    const ProfileKey key = p.pack(shape);
    benchmark::DoNotOptimize(Profile::unpack(shape, key));
  }
}
BENCHMARK(BM_ProfilePackUnpack);

void BM_EnumeratePlacements(benchmark::State& state) {
  const Catalog catalog = ec2_catalog();
  const ProfileShape& shape = catalog.shape(0);
  const Profile current =
      Profile::from_levels(shape, {2, 2, 1, 1, 0, 0, 0, 0, 5, 1, 1, 0, 0});
  const auto& demand = catalog.demand(0, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_placements(shape, current, *demand));
  }
}
BENCHMARK(BM_EnumeratePlacements)->DenseRange(0, 5);  // all six Table I types

void BM_PageRankIteration(benchmark::State& state) {
  // The paper's example graph scaled up: one CPU group with `range` dims.
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, static_cast<int>(state.range(0)), 4}});
  std::vector<QuantizedDemand> demands = {
      QuantizedDemand{{{1, 1}}},
      QuantizedDemand{{std::vector<int>(static_cast<std::size_t>(state.range(0)), 1)}}};
  const ProfileGraph graph(shape, demands);
  PageRankOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_pagerank(graph.graph(), options));
  }
  state.counters["nodes"] = static_cast<double>(graph.node_count());
}
BENCHMARK(BM_PageRankIteration)->DenseRange(4, 8);

void BM_ProfileGraphBuild(benchmark::State& state) {
  ProfileShape shape({DimensionGroup{ResourceKind::kCpu, static_cast<int>(state.range(0)), 4}});
  std::vector<QuantizedDemand> demands = {QuantizedDemand{{{1, 1}}},
                                          QuantizedDemand{{{2, 1}}}};
  for (auto _ : state) {
    const ProfileGraph graph(shape, demands);
    benchmark::DoNotOptimize(graph.node_count());
  }
}
BENCHMARK(BM_ProfileGraphBuild)->DenseRange(4, 8);

// The first-sight cost of a live profile: its node and its best successor
// under each of the six EC2 VM types, worked out from its key as the engine
// does when a profile enters its memo. Keys are 64k random profiles of the
// mapped M3 table; one iteration is one profile.
void BM_ScoreLookup(benchmark::State& state) {
  static const ScoreTableSet tables = build_score_tables(ec2_sim_catalog());
  const ScoreTable& table = tables.table(0);
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  std::vector<ProfileKey> keys(kKeys);
  Rng rng(13);
  for (ProfileKey& key : keys) {
    key = table.key_of(static_cast<NodeId>(rng.uniform_index(table.size())));
  }
  std::vector<ProfileKey> scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeId node = *table.node_of(keys[i++ & (kKeys - 1)]);
    for (std::size_t d = 0; d < table.demand_count(); ++d) {
      benchmark::DoNotOptimize(table.best_successor(node, d, scratch));
    }
  }
  state.SetLabel(std::to_string(table.size()) + " nodes, " +
                 std::to_string(table.demand_count()) + " VM types");
}
BENCHMARK(BM_ScoreLookup);

// The same six answers once the profile is in the engine's memo: the linear
// scan's placement_score for every VM type on one PM, cycling over 64 used
// PMs of a half-filled fleet. One iteration is one PM's six scores.
void BM_ScoreLookupMemoHit(benchmark::State& state) {
  const Catalog catalog = ec2_sim_catalog();
  static const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(ec2_sim_catalog()));
  Rng rng(17);
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 64));
  PageRankVm engine(tables, {});
  engine.place_all(dc, weighted_vm_requests(rng, catalog, 320, default_vm_mix(catalog)));
  const std::vector<PmIndex> pms = dc.used_pms();
  std::uint64_t lookups = 0;
  for (const PmIndex pm : pms) {
    for (std::size_t t = 0; t < catalog.vm_types().size(); ++t) {
      engine.placement_score(dc, pm, t, lookups);  // fills the memo
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const PmIndex pm = pms[i++ % pms.size()];
    for (std::size_t t = 0; t < catalog.vm_types().size(); ++t) {
      benchmark::DoNotOptimize(engine.placement_score(dc, pm, t, lookups));
    }
  }
  state.SetLabel(std::to_string(pms.size()) + " used PMs");
}
BENCHMARK(BM_ScoreLookupMemoHit);

// node_of on the mapped EC2 C3 table (the larger one, 82,265 nodes) over
// 64k random present keys, so most lookups miss the cache as a bucket-cache
// refill in the indexed engine does. The tables come from the default image
// directory, as prvm_serve maps them.
void BM_ScoreNodeOfMapped(benchmark::State& state) {
  static const ScoreTableSet tables = build_score_tables(ec2_sim_catalog());
  const ScoreTable& table = tables.table(1);
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  std::vector<ProfileKey> keys(kKeys);
  Rng rng(11);
  for (ProfileKey& key : keys) {
    key = table.key_of(static_cast<NodeId>(rng.uniform_index(table.size())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.node_of(keys[i++ & (kKeys - 1)]));
  }
  state.SetLabel(std::to_string(table.size()) + " nodes, " +
                 (table.is_mapped() ? "mapped" : "owned"));
}
BENCHMARK(BM_ScoreNodeOfMapped);

// Single-VM placement latency at a steady operating point. The loop places a
// batch of VMs under manual timing and removes them untimed afterwards:
// per-iteration Pause/ResumeTiming would add its own overhead (comparable to
// a placement at small fleet sizes) to every sample and distort the numbers.
void BM_PlaceOneVm(benchmark::State& state) {
  const AlgorithmKind kind = static_cast<AlgorithmKind>(state.range(0));
  const std::size_t fleet = static_cast<std::size_t>(state.range(1));
  const Catalog catalog = ec2_sim_catalog();
  static const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(ec2_sim_catalog()));
  // A datacenter mid-experiment: ~40% of the fleet's VM capacity placed.
  Rng rng(5);
  Datacenter dc(catalog, mixed_pm_fleet(catalog, fleet));
  auto algorithm = make_algorithm(kind, tables);
  const auto warmup = weighted_vm_requests(rng, catalog, 2 * fleet / 5, default_vm_mix(catalog));
  algorithm->place_all(dc, warmup);
  VmId next = 100000;
  constexpr std::size_t kBatch = 64;
  std::vector<VmId> placed;
  placed.reserve(kBatch);
  for (auto _ : state) {
    placed.clear();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < kBatch; ++b) {
      const Vm vm{next++, 0};
      const auto pm = algorithm->place(dc, vm);
      benchmark::DoNotOptimize(pm);
      if (pm.has_value()) placed.push_back(vm.id);
    }
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    for (VmId id : placed) dc.remove(id);  // untimed reset to the operating point
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
  state.SetLabel(std::string(to_string(kind)) + "/pms:" + std::to_string(fleet));
}
BENCHMARK(BM_PlaceOneVm)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 3, 1), {1000, 5000}})
    ->UseManualTime();

// The same loop pinned to PageRankVM with the bucketed index disabled — the
// paper's Algorithm 2 as printed — to expose the index speedup side by side.
void BM_PlaceOneVmLinearScan(benchmark::State& state) {
  const std::size_t fleet = static_cast<std::size_t>(state.range(0));
  const Catalog catalog = ec2_sim_catalog();
  static const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(ec2_sim_catalog()));
  Rng rng(5);
  Datacenter dc(catalog, mixed_pm_fleet(catalog, fleet));
  PageRankVmOptions options;
  options.use_index = false;
  PageRankVm algorithm(tables, options);
  const auto warmup = weighted_vm_requests(rng, catalog, 2 * fleet / 5, default_vm_mix(catalog));
  algorithm.place_all(dc, warmup);
  VmId next = 100000;
  constexpr std::size_t kBatch = 64;
  std::vector<VmId> placed;
  placed.reserve(kBatch);
  for (auto _ : state) {
    placed.clear();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < kBatch; ++b) {
      const Vm vm{next++, 0};
      const auto pm = algorithm.place(dc, vm);
      benchmark::DoNotOptimize(pm);
      if (pm.has_value()) placed.push_back(vm.id);
    }
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    for (VmId id : placed) dc.remove(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
  state.SetLabel("PageRankVM-linear/pms:" + std::to_string(fleet));
}
BENCHMARK(BM_PlaceOneVmLinearScan)->Arg(1000)->Arg(5000)->UseManualTime();

// The ledger at the daemon's churn operating point: a 10k-PM EC2-sim fleet
// that PageRankVM fills with the default VM mix until 5000 PMs are used
// (about 35k VMs).
/// The process's resident anonymous memory in kB (RssAnon of
/// /proc/self/status); 0 where that is unavailable.
long rss_anon_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) return std::stol(line.substr(8));
  }
  return 0;
}

/// Resident bytes the churn ledger's fill added, per VM it holds (set by
/// churn_ledger()).
long ledger_bytes_per_vm = 0;

Datacenter& churn_ledger() {
  static Datacenter dc = [] {
    const Catalog catalog = ec2_sim_catalog();
    const auto tables = std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
    const std::vector<Vm> requests = [&] {
      Rng rng(21);
      return weighted_vm_requests(rng, catalog, 60000, default_vm_mix(catalog));
    }();
    Datacenter filled(catalog, mixed_pm_fleet(catalog, 10000));
    PageRankVm engine(tables, {});
    const long before_kb = rss_anon_kb();
    for (const Vm& vm : requests) {
      if (filled.used_count() == 5000) break;
      engine.place(filled, vm);
    }
    const long vms = static_cast<long>(std::max<std::size_t>(filled.vm_count(), 1));
    ledger_bytes_per_vm = (rss_anon_kb() - before_kb) * 1024 / vms;
    return filled;
  }();
  return dc;
}

std::string ledger_label(const Datacenter& dc) {
  return "vms:" + std::to_string(dc.vm_count()) +
         " fill_bytes/vm:" + std::to_string(ledger_bytes_per_vm);
}

// One release+place unit of the ledger alone: a random VM leaves and comes
// back to its PM with the same assignments.
void BM_LedgerReleasePlace(benchmark::State& state) {
  Datacenter& dc = churn_ledger();
  std::vector<VmId> ids;
  for (const PmIndex pm : dc.used_pms()) {
    for (const Datacenter::PlacedVm& placed : dc.pm(pm).vms) ids.push_back(placed.vm.id);
  }
  Rng rng(3);
  DemandPlacement placement;
  for (auto _ : state) {
    const VmId id = ids[rng.uniform_index(ids.size())];
    const PmIndex pm = *dc.pm_of(id);
    const Datacenter::PlacedVm removed = dc.remove(id);
    placement.assignments.assign(removed.assignments.begin(), removed.assignments.end());
    dc.place(pm, removed.vm, placement);
  }
  state.SetLabel(ledger_label(dc));
}
BENCHMARK(BM_LedgerReleasePlace);

// The frozen copy rebalance_scan takes on the loop thread.
void BM_LedgerCopy(benchmark::State& state) {
  const Datacenter& dc = churn_ledger();
  for (auto _ : state) {
    Datacenter copy = dc;
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel(ledger_label(dc));
}
BENCHMARK(BM_LedgerCopy)->Unit(benchmark::kMillisecond);

// The ledger's part of a snapshot, into a buffer that already has room, so
// the row times the walk and the encoding rather than page faults.
void BM_LedgerSerialize(benchmark::State& state) {
  const Datacenter& dc = churn_ledger();
  std::string blob;
  for (auto _ : state) {
    blob.clear();
    ByteWriter out(blob);
    dc.serialize(out);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetLabel(ledger_label(dc) + " bytes:" + std::to_string(blob.size()));
}
BENCHMARK(BM_LedgerSerialize)->Unit(benchmark::kMillisecond);

void BM_LedgerParse(benchmark::State& state) {
  const Datacenter& dc = churn_ledger();
  const std::string blob = serialize_snapshot(CellState{dc, {}, 1});
  for (auto _ : state) {
    CellState parsed = parse_snapshot(blob, dc.catalog());
    benchmark::DoNotOptimize(parsed.dc);
  }
  state.SetLabel("vms:" + std::to_string(dc.vm_count()));
}
BENCHMARK(BM_LedgerParse)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prvm

int main(int argc, char** argv) {
  // prvm_serve's malloc policy, so the ledger rows pay the page faults the
  // daemon pays. Under glibc's floating thresholds a copy's cost would hang
  // on the sizes of blocks freed earlier in the process: whether the
  // previous copy's free top is trimmed or kept.
  prvm::pin_allocator_thresholds();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
