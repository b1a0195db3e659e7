// Differential and invariant tests for the placement index.
//
// The indexed PageRankVM engine must be observationally identical to the
// legacy linear scan (PageRankVmOptions::use_index = false): same chosen PM
// for every VM, same rejections, same canonical profile trajectory — across
// catalogs, seeds, 2-choice mode and migration re-placement. Separately, the
// datacenter's incrementally-maintained bucket index must satisfy its
// structural invariants under arbitrary place/remove churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "placement/pagerank_vm.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  // The default on-disk cache keeps repeated test runs fast (EC2-scale
  // graphs take a moment to build the first time).
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

/// Two datacenters driven in lockstep: one by the indexed engine, one by the
/// legacy linear scan. Every operation asserts both made the same decision.
class TwinRun {
 public:
  TwinRun(const Catalog& catalog, std::size_t fleet, std::uint64_t engine_seed,
          bool two_choice)
      : indexed_dc_(catalog, mixed_pm_fleet(catalog, fleet)),
        linear_dc_(catalog, mixed_pm_fleet(catalog, fleet)),
        tables_(tables_for(catalog)),
        indexed_(tables_, {two_choice, engine_seed, /*use_index=*/true}),
        linear_(tables_, {two_choice, engine_seed, /*use_index=*/false}) {}

  /// Places `vm` through both engines; returns whether it was placed.
  bool place(const Vm& vm, const PlacementConstraints& constraints = {}) {
    const auto a = indexed_.place(indexed_dc_, vm, constraints);
    const auto b = linear_.place(linear_dc_, vm, constraints);
    EXPECT_EQ(a, b) << "engines disagree on the PM for VM " << vm.id;
    if (a.has_value() && b.has_value()) {
      // Concrete dimension assignments may be permuted differently, but the
      // canonical profile of the chosen PM must be identical — otherwise the
      // trajectories would drift apart on later VMs.
      EXPECT_EQ(indexed_dc_.pm(*a).canonical_key, linear_dc_.pm(*b).canonical_key)
          << "canonical profiles diverged on PM " << *a << " after VM " << vm.id;
    }
    return a.has_value();
  }

  void remove(VmId id) {
    const auto a = indexed_dc_.pm_of(id);
    const auto b = linear_dc_.pm_of(id);
    ASSERT_EQ(a, b);
    indexed_dc_.remove(id);
    linear_dc_.remove(id);
  }

  void check() const {
    indexed_dc_.check_index_invariants();
    ASSERT_EQ(indexed_dc_.used_pms(), linear_dc_.used_pms());
    ASSERT_EQ(indexed_dc_.vm_count(), linear_dc_.vm_count());
  }

  Datacenter& indexed_dc() { return indexed_dc_; }

 private:
  Datacenter indexed_dc_;
  Datacenter linear_dc_;
  std::shared_ptr<const ScoreTableSet> tables_;
  PageRankVm indexed_;
  PageRankVm linear_;
};

/// Streams `total` placements with steady removal churn through both
/// engines, asserting identical decisions throughout.
void run_churn_differential(const Catalog& catalog, std::size_t fleet, std::size_t total,
                            std::uint64_t seed, bool two_choice) {
  TwinRun twin(catalog, fleet, /*engine_seed=*/seed, two_choice);
  Rng rng(seed);
  const std::vector<double> mix = default_vm_mix(catalog);
  const std::vector<Vm> vms = weighted_vm_requests(rng, catalog, total, mix);

  // Keep roughly this many VMs live so buckets both grow and shrink.
  const std::size_t live_cap = 3 * fleet / 2;
  std::vector<VmId> live;
  for (std::size_t step = 0; step < vms.size(); ++step) {
    while (live.size() >= live_cap || (!live.empty() && rng.uniform_index(4) == 0)) {
      const std::size_t pick = rng.uniform_index(live.size());
      twin.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
      if (live.size() < live_cap) break;
    }
    if (twin.place(vms[step])) live.push_back(vms[step].id);
    if (step % 500 == 0) twin.check();
    if (::testing::Test::HasFailure()) return;  // stop at the first divergence
  }
  twin.check();
}

TEST(PlacementIndexDifferential, Ec2ChurnMatchesLinearScan) {
  run_churn_differential(ec2_sim_catalog(), /*fleet=*/400, /*total=*/4000, /*seed=*/17,
                         /*two_choice=*/false);
}

TEST(PlacementIndexDifferential, Ec2SecondSeedMatchesLinearScan) {
  run_churn_differential(ec2_sim_catalog(), /*fleet=*/300, /*total=*/2500, /*seed=*/4242,
                         /*two_choice=*/false);
}

TEST(PlacementIndexDifferential, GeniChurnMatchesLinearScan) {
  run_churn_differential(geni_catalog(), /*fleet=*/80, /*total=*/2500, /*seed=*/7,
                         /*two_choice=*/false);
}

TEST(PlacementIndexDifferential, TwoChoiceModeMatchesLinearScan) {
  // 2-choice shares the linear candidate sampler (same RNG stream) so the
  // sampled pair — and hence the decision — must be identical.
  run_churn_differential(ec2_sim_catalog(), /*fleet=*/200, /*total=*/2000, /*seed=*/91,
                         /*two_choice=*/true);
}

TEST(PlacementIndexDifferential, MigrationReplacementMatchesLinearScan) {
  const Catalog catalog = ec2_sim_catalog();
  TwinRun twin(catalog, /*fleet=*/250, /*engine_seed=*/5, /*two_choice=*/false);
  Rng rng(2026);
  const std::vector<Vm> vms =
      weighted_vm_requests(rng, catalog, 600, default_vm_mix(catalog));
  std::vector<VmId> live;
  for (const Vm& vm : vms) {
    if (twin.place(vm)) live.push_back(vm.id);
  }
  ASSERT_FALSE(live.empty());
  twin.check();

  // Simulated migrations: evict a random VM and re-place it with its source
  // PM excluded — the constrained indexed path must match the linear scan.
  // Every third migration additionally vetoes moderately loaded PMs, the way
  // the simulator's overload veto does.
  for (int round = 0; round < 600; ++round) {
    const VmId id = live[rng.uniform_index(live.size())];
    const auto source = twin.indexed_dc().pm_of(id);
    ASSERT_TRUE(source.has_value());
    const Vm vm = Vm{id, twin.indexed_dc().pm(*source).vms.front().vm.type_index};
    twin.remove(id);
    PlacementConstraints constraints;
    constraints.exclude = *source;
    if (round % 3 == 0) {
      constraints.allow = [](const Datacenter& dc, PmIndex pm) {
        return dc.pm(pm).vms.size() < 6;
      };
    }
    if (!twin.place(vm, constraints)) {
      live.erase(std::find(live.begin(), live.end(), id));
      if (live.empty()) break;
    }
    if (round % 100 == 0) twin.check();
    if (::testing::Test::HasFailure()) return;
  }
  twin.check();
}

TEST(PlacementIndexDifferential, SlotReuseAndCrossTypeTiesMatchLinearScan) {
  // The indexed engine caches scores per dense bucket slot, tagged with the
  // profile key each slot was filled for. Heavy removal churn on a small
  // mixed fleet keeps killing buckets, so swap-erase hands their slots to
  // other profiles between two picks; and with few buckets live, the top
  // scores of the two PM types often coincide, so the tie goes to the
  // earliest PM across types. Both must happen here, and neither may move
  // a pick away from the linear scan's.
  const Catalog catalog = ec2_sim_catalog();
  ASSERT_EQ(catalog.pm_types().size(), 2u);
  Datacenter indexed_dc(catalog, mixed_pm_fleet(catalog, 24));
  Datacenter linear_dc(catalog, mixed_pm_fleet(catalog, 24));
  const auto tables = tables_for(catalog);
  PageRankVm indexed(tables, {});
  PageRankVm linear(tables, {false, 1, /*use_index=*/false});
  Rng rng(606);
  std::vector<VmId> live;
  VmId next_id = 0;
  std::vector<std::vector<ProfileKey>> seen(2);  // slot keys at the previous pick
  std::size_t reused_slots = 0;
  std::size_t cross_type_ties = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!live.empty() && (live.size() >= 40 || rng.uniform_index(2) == 0)) {
      const std::size_t pick = rng.uniform_index(live.size());
      indexed_dc.remove(live[pick]);
      linear_dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
      continue;
    }
    const Vm vm{next_id++, rng.uniform_index(catalog.vm_types().size())};
    for (std::size_t t = 0; t < 2; ++t) {
      const auto keys = indexed_dc.bucket_keys(t);
      for (std::size_t s = 0; s < std::min(keys.size(), seen[t].size()); ++s) {
        if (keys[s] != seen[t][s]) ++reused_slots;
      }
      seen[t].assign(keys.begin(), keys.end());
    }
    std::optional<double> top[2];
    for (const PmIndex i : linear_dc.used_pms()) {
      const auto score = linear.placement_score(linear_dc, i, vm.type_index);
      std::optional<double>& t = top[linear_dc.pm(i).type_index];
      if (score.has_value() && (!t.has_value() || *score > *t)) t = score;
    }
    if (top[0].has_value() && top[1].has_value() && *top[0] == *top[1]) ++cross_type_ties;

    const auto a = indexed.place(indexed_dc, vm);
    const auto b = linear.place(linear_dc, vm);
    ASSERT_EQ(a, b) << "engines disagree on the PM for VM " << vm.id;
    if (a.has_value()) live.push_back(vm.id);
  }
  indexed_dc.check_index_invariants();
  EXPECT_EQ(indexed_dc.used_pms(), linear_dc.used_pms());
  EXPECT_GT(reused_slots, 0u);
  EXPECT_GT(cross_type_ties, 0u);
}

TEST(PlacementIndex, OneEngineServingTwoLedgersMatchesTwoFreshEngines) {
  // The score cache is validated by key, not by ledger: an engine that
  // alternates between two datacenters with different bucket layouts must
  // decide exactly as one fresh engine per datacenter would.
  const Catalog catalog = ec2_sim_catalog();
  const auto tables = tables_for(catalog);
  PageRankVm shared(tables, {});
  struct Side {
    Datacenter shared_dc;
    Datacenter own_dc;
    PageRankVm own;
    Rng rng;
    std::vector<VmId> live;
  };
  Side sides[2] = {
      {Datacenter(catalog, mixed_pm_fleet(catalog, 60)),
       Datacenter(catalog, mixed_pm_fleet(catalog, 60)), PageRankVm(tables, {}), Rng(31), {}},
      {Datacenter(catalog, mixed_pm_fleet(catalog, 90)),
       Datacenter(catalog, mixed_pm_fleet(catalog, 90)), PageRankVm(tables, {}), Rng(32), {}}};
  VmId next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    Side& side = sides[step % 2];
    if (!side.live.empty() && (side.live.size() >= 120 || side.rng.uniform_index(3) == 0)) {
      const std::size_t pick = side.rng.uniform_index(side.live.size());
      side.shared_dc.remove(side.live[pick]);
      side.own_dc.remove(side.live[pick]);
      side.live[pick] = side.live.back();
      side.live.pop_back();
      continue;
    }
    const Vm vm{next_id++, side.rng.uniform_index(catalog.vm_types().size())};
    const auto a = shared.place(side.shared_dc, vm);
    const auto b = side.own.place(side.own_dc, vm);
    ASSERT_EQ(a, b) << "shared engine diverged at step " << step;
    if (a.has_value()) side.live.push_back(vm.id);
  }
  for (const Side& side : sides) {
    EXPECT_EQ(side.shared_dc.used_pms(), side.own_dc.used_pms());
    EXPECT_GT(side.shared_dc.used_count(), 0u);
  }
}

/// Places a seeded weighted EC2 request stream through `engine` on `dc`,
/// releasing random live VMs on the way (at most 300 live).
void churn_stream(PageRankVm& engine, Datacenter& dc, const Catalog& catalog,
                  std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Vm> vms = weighted_vm_requests(rng, catalog, 6000, default_vm_mix(catalog));
  std::vector<VmId> live;
  for (const Vm& vm : vms) {
    while (!live.empty() && (live.size() >= 300 || rng.uniform_index(4) == 0)) {
      const std::size_t pick = rng.uniform_index(live.size());
      dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    if (engine.place(dc, vm).has_value()) live.push_back(vm.id);
  }
}

TEST(PlacementIndex, ReplayingAStreamFillsNoNewBestSuccessors) {
  // The engine works out a live profile's best successors the first time it
  // sees it, and a representative placement the first time it places a VM
  // type there, and memoizes both. Replaying one seeded churn stream on a
  // fresh ledger through the same engine revisits exactly the first pass's
  // profiles and placements, so it works out neither again. The memo holds
  // one entry per fill, each a profile of a table, so never more than the
  // tables have nodes.
  const Catalog catalog = ec2_sim_catalog();
  const auto tables = tables_for(catalog);
  obs::Registry registry;
  PageRankVmOptions options;
  options.metrics = &registry;
  PageRankVm engine(tables, options);
  const obs::Counter& fills = registry.counter("prvm_engine_best_fills_total");
  const obs::Counter& rep_misses = registry.counter("prvm_engine_rep_cache_misses_total");
  const obs::Gauge& entries = registry.gauge("prvm_engine_best_memo_entries");
  const obs::Gauge& bytes = registry.gauge("prvm_engine_memo_bytes");
  std::uint64_t fills_after[2] = {0, 0};
  std::uint64_t misses_after[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    Datacenter dc(catalog, mixed_pm_fleet(catalog, 200));
    churn_stream(engine, dc, catalog, 41);
    fills_after[pass] = fills.value();
    misses_after[pass] = rep_misses.value();
    EXPECT_EQ(static_cast<std::uint64_t>(entries.value()), fills_after[pass]);
  }
  EXPECT_GT(fills_after[0], 100u);
  EXPECT_EQ(fills_after[1], fills_after[0]) << "the replay filled profiles again";
  EXPECT_GT(misses_after[0], 100u);
  EXPECT_EQ(misses_after[1], misses_after[0]) << "the replay worked out representatives again";
  EXPECT_LE(static_cast<std::size_t>(entries.value()),
            tables->table(0).size() + tables->table(1).size());
  // Each entry holds at least its node, one best successor and one
  // representative offset, 4 bytes each.
  EXPECT_GE(bytes.value(), entries.value() * 4 * 3);
}

TEST(PlacementIndex, RepresentativesMatchTheEnumeration) {
  // Algorithm 2's last step keeps one canonical-space placement per (PM
  // type, profile, VM type): the first enumerate_placements option whose
  // canonical outcome is the best successor. Every representative the memo
  // holds after a seeded churn stream must be exactly that option.
  const Catalog catalog = ec2_sim_catalog();
  const auto tables = tables_for(catalog);
  obs::Registry registry;
  PageRankVmOptions options;
  options.metrics = &registry;
  PageRankVm engine(tables, options);
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 200));
  churn_stream(engine, dc, catalog, 43);
  const std::vector<PageRankVm::Representative> reps = engine.representatives();
  EXPECT_EQ(reps.size(), registry.counter("prvm_engine_rep_cache_misses_total").value());
  EXPECT_GT(reps.size(), 100u);
  std::vector<ProfileKey> scratch;
  for (const PageRankVm::Representative& rep : reps) {
    const ScoreTable& table = tables->table(rep.pm_type);
    const ProfileShape& shape = table.shape();
    const NodeId successor = table.best_successor(*table.node_of(rep.profile), rep.demand, scratch);
    ASSERT_NE(successor, ScoreTable::kNoFit);
    const ProfileKey best = table.key_of(successor);
    const std::vector<DemandPlacement> placements = enumerate_placements(
        shape, Profile::unpack(shape, rep.profile), table.demands()[rep.demand]);
    const auto reaches_best = [&](const DemandPlacement& p) {
      return p.result.canonical(shape).pack(shape) == best;
    };
    // The enumeration keeps one option per canonical outcome, so the first
    // option reaching the best successor is the only one.
    ASSERT_EQ(std::count_if(placements.begin(), placements.end(), reaches_best), 1);
    const auto first = std::find_if(placements.begin(), placements.end(), reaches_best);
    EXPECT_EQ(rep.assignments, first->assignments)
        << "PM type " << rep.pm_type << ", profile " << rep.profile << ", demand " << rep.demand;
  }
}

TEST(PlacementIndex, InvariantsHoldUnderRandomChurn) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 60));
  Rng rng(123);
  std::vector<VmId> live;
  VmId next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    const bool do_remove = !live.empty() && (live.size() > 150 || rng.uniform_index(3) == 0);
    if (do_remove) {
      const std::size_t pick = rng.uniform_index(live.size());
      dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Vm vm{next_id++, rng.uniform_index(catalog.vm_types().size())};
      // Random feasible PM, biased towards used ones to pile VMs up.
      std::vector<PmIndex> candidates;
      for (PmIndex i = 0; i < dc.pm_count(); ++i) {
        if (dc.fits(i, vm.type_index)) candidates.push_back(i);
      }
      if (candidates.empty()) continue;
      dc.place_first_fit(candidates[rng.uniform_index(candidates.size())], vm);
      live.push_back(vm.id);
    }
    if (op % 50 == 0) {
      ASSERT_NO_THROW(dc.check_index_invariants());
    }
  }
  ASSERT_NO_THROW(dc.check_index_invariants());

  // Drain completely: the index must collapse back to the empty state.
  while (!live.empty()) {
    dc.remove(live.back());
    live.pop_back();
  }
  ASSERT_NO_THROW(dc.check_index_invariants());
  ASSERT_EQ(dc.used_count(), 0u);
  for (std::size_t t = 0; t < catalog.pm_types().size(); ++t) {
    EXPECT_EQ(dc.used_bucket_count(t), 0u);
    EXPECT_EQ(dc.used_count_of_type(t), 0u);
  }
}

TEST(PlacementIndex, NextUnusedTracksTheFreeList) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, std::vector<std::size_t>(70, 0));
  Rng rng(5);
  std::vector<VmId> live;
  VmId next_id = 0;
  for (int op = 0; op < 500; ++op) {
    if (!live.empty() && rng.uniform_index(2) == 0) {
      const std::size_t pick = rng.uniform_index(live.size());
      dc.remove(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const Vm vm{next_id++, 0};
      const auto target = dc.next_unused(rng.uniform_index(dc.pm_count()));
      if (!target.has_value() || !dc.fits(*target, 0)) continue;
      dc.place_first_fit(*target, vm);
      live.push_back(vm.id);
    }
    // next_unused must enumerate exactly the complement of the used set,
    // in index order — the contract unused_pms() is built on.
    std::vector<PmIndex> via_next;
    for (auto i = dc.next_unused(0); i.has_value(); i = dc.next_unused(*i + 1)) {
      via_next.push_back(*i);
    }
    ASSERT_EQ(via_next, dc.unused_pms());
    ASSERT_EQ(via_next.size() + dc.used_count(), dc.pm_count());
    for (PmIndex i : via_next) ASSERT_FALSE(dc.pm(i).used());
  }
}

TEST(PlacementIndex, BucketLookupMatchesLedger) {
  const Catalog catalog = geni_catalog();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 40));
  Rng rng(9);
  VmId next_id = 0;
  for (int op = 0; op < 300; ++op) {
    const Vm vm{next_id++, rng.uniform_index(catalog.vm_types().size())};
    std::vector<PmIndex> candidates;
    for (PmIndex i = 0; i < dc.pm_count(); ++i) {
      if (dc.fits(i, vm.type_index)) candidates.push_back(i);
    }
    if (candidates.empty()) break;
    dc.place_first_fit(candidates[rng.uniform_index(candidates.size())], vm);
  }
  // Every used PM must be findable through used_bucket() by its own key,
  // and for_each_used_bucket must enumerate the used set exactly. The SoA
  // accessors (bucket_keys / bucket_earliest / bucket_at) must agree with
  // the view-based enumeration slot for slot.
  std::size_t enumerated = 0;
  for (std::size_t t = 0; t < catalog.pm_types().size(); ++t) {
    const auto keys = dc.bucket_keys(t);
    const auto earliest = dc.bucket_earliest(t);
    ASSERT_EQ(keys.size(), earliest.size());
    ASSERT_EQ(keys.size(), dc.used_bucket_count(t));
    std::size_t slot = 0;
    dc.for_each_used_bucket(t, [&](ProfileKey key, Datacenter::BucketView pms) {
      ASSERT_LT(slot, keys.size());
      EXPECT_EQ(keys[slot], key);
      const auto by_key = dc.used_bucket(t, key);
      const auto by_slot = dc.bucket_at(t, slot);
      EXPECT_EQ(std::vector<PmIndex>(by_key.begin(), by_key.end()),
                std::vector<PmIndex>(pms.begin(), pms.end()));
      EXPECT_EQ(std::vector<PmIndex>(by_slot.begin(), by_slot.end()),
                std::vector<PmIndex>(pms.begin(), pms.end()));
      std::uint32_t walked = 0;
      PmIndex first = Datacenter::kNoPm;
      for (PmIndex i : pms) {
        EXPECT_EQ(dc.pm(i).canonical_key, key);
        EXPECT_EQ(dc.pm(i).type_index, t);
        if (first == Datacenter::kNoPm || dc.activation_seq(i) < dc.activation_seq(first)) {
          first = i;
        }
        ++walked;
      }
      EXPECT_EQ(walked, pms.size());
      // The earliest member is the bucket's first PM in used_pms() order.
      EXPECT_EQ(earliest[slot].pm, first);
      EXPECT_EQ(earliest[slot].seq, dc.activation_seq(first));
      enumerated += pms.size();
      ++slot;
    });
    EXPECT_EQ(slot, keys.size());
  }
  EXPECT_EQ(enumerated, dc.used_count());
  EXPECT_TRUE(dc.used_bucket(0, ~ProfileKey{0}).empty());
}

}  // namespace
}  // namespace prvm
