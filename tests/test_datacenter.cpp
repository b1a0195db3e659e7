#include "cluster/datacenter.hpp"

#include <gtest/gtest.h>

namespace prvm {
namespace {

// A small catalog that keeps placements easy to reason about: PMs with 2
// cores x 4 levels + 8 memory levels; one VM type needing 2 anti-collocated
// vCPU levels and 2 memory levels.
Catalog small_catalog() {
  std::vector<VmType> vms = {{"pair", 2, 1.0, 2.0, 0, 0.0},
                             {"solo", 1, 2.0, 1.0, 0, 0.0}};
  std::vector<PmType> pms = {{"node", 2, 4.0, 8.0, 0, 0.0, "E5-2670"}};
  QuantizationConfig q;
  q.cpu_levels = 4;
  q.mem_levels = 8;
  return Catalog(std::move(vms), std::move(pms), q);
}

TEST(Datacenter, StartsEmpty) {
  Datacenter dc(small_catalog(), {0, 0, 0});
  EXPECT_EQ(dc.pm_count(), 3u);
  EXPECT_EQ(dc.used_count(), 0u);
  EXPECT_EQ(dc.unused_pms().size(), 3u);
  EXPECT_EQ(dc.vm_count(), 0u);
  for (PmIndex i = 0; i < 3; ++i) {
    EXPECT_FALSE(dc.pm(i).used());
    EXPECT_EQ(dc.pm(i).usage.total_usage(), 0);
  }
}

TEST(Datacenter, PlaceUpdatesLedger) {
  Datacenter dc(small_catalog(), {0, 0});
  const auto options = dc.placements(0, 0);
  ASSERT_FALSE(options.empty());
  dc.place(0, Vm{42, 0}, options.front());

  EXPECT_EQ(dc.used_count(), 1u);
  EXPECT_EQ(dc.used_pms(), (std::vector<PmIndex>{0}));
  EXPECT_EQ(dc.pm_of(42), std::optional<PmIndex>{0});
  EXPECT_EQ(dc.vm_count(), 1u);
  // VM "pair": 1 level on each core + 2 memory levels.
  EXPECT_EQ(dc.pm(0).usage.level(0), 1);
  EXPECT_EQ(dc.pm(0).usage.level(1), 1);
  EXPECT_EQ(dc.pm(0).usage.level(2), 2);
  // Canonical key cache is kept in sync.
  const ProfileShape& shape = dc.shape_of(0);
  EXPECT_EQ(dc.pm(0).canonical_key, dc.pm(0).usage.canonical(shape).pack(shape));
}

TEST(Datacenter, RemoveRestoresState) {
  Datacenter dc(small_catalog(), {0});
  dc.place_first_fit(0, Vm{1, 0});
  dc.place_first_fit(0, Vm{2, 1});
  const auto record = dc.remove(1);
  EXPECT_EQ(record.vm.id, 1u);
  EXPECT_EQ(dc.vm_count(), 1u);
  EXPECT_TRUE(dc.pm(0).used());
  dc.remove(2);
  EXPECT_FALSE(dc.pm(0).used());
  EXPECT_EQ(dc.used_count(), 0u);
  EXPECT_EQ(dc.pm(0).usage.total_usage(), 0);
  EXPECT_FALSE(dc.pm_of(1).has_value());
}

TEST(Datacenter, RejectsDoublePlacementOfSameVm) {
  Datacenter dc(small_catalog(), {0, 0});
  dc.place_first_fit(0, Vm{1, 0});
  EXPECT_THROW(dc.place_first_fit(1, Vm{1, 0}), std::invalid_argument);
}

TEST(Datacenter, RejectsRemoveOfUnknownVm) {
  Datacenter dc(small_catalog(), {0});
  EXPECT_THROW(dc.remove(99), std::invalid_argument);
}

TEST(Datacenter, EnforcesAntiCollocationOnExplicitPlacement) {
  Datacenter dc(small_catalog(), {0});
  const ProfileShape& shape = dc.shape_of(0);
  // Both vCPU levels of the "pair" VM on core 0: must throw.
  DemandPlacement bad{{{0, 1}, {0, 1}, {2, 2}}, Profile::zero(shape)};
  EXPECT_THROW(dc.place(0, Vm{1, 0}, bad), std::invalid_argument);
  EXPECT_FALSE(dc.pm(0).used());  // nothing half-applied
  EXPECT_EQ(dc.vm_count(), 0u);
}

TEST(Datacenter, EnforcesCapacityOnExplicitPlacement) {
  Datacenter dc(small_catalog(), {0});
  const ProfileShape& shape = dc.shape_of(0);
  DemandPlacement overflow{{{0, 5}}, Profile::zero(shape)};
  EXPECT_THROW(dc.place(0, Vm{1, 0}, overflow), std::invalid_argument);
  DemandPlacement bad_dim{{{13, 1}}, Profile::zero(shape)};
  EXPECT_THROW(dc.place(0, Vm{1, 0}, bad_dim), std::invalid_argument);
  DemandPlacement zero_amount{{{0, 0}}, Profile::zero(shape)};
  EXPECT_THROW(dc.place(0, Vm{1, 0}, zero_amount), std::invalid_argument);
}

TEST(Datacenter, FitsTracksRemainingCapacity) {
  Datacenter dc(small_catalog(), {0});
  // Memory 8 levels; "pair" takes 2 -> four of them fill memory exactly.
  for (VmId id = 0; id < 4; ++id) {
    ASSERT_TRUE(dc.fits(0, 0)) << "after " << id;
    dc.place_first_fit(0, Vm{id, 0});
  }
  EXPECT_FALSE(dc.fits(0, 0));
  EXPECT_TRUE(dc.placements(0, 0).empty());
}

TEST(Datacenter, UsedOrderIsActivationOrder) {
  Datacenter dc(small_catalog(), {0, 0, 0});
  dc.place_first_fit(2, Vm{1, 0});
  dc.place_first_fit(0, Vm{2, 0});
  EXPECT_EQ(dc.used_pms(), (std::vector<PmIndex>{2, 0}));
  dc.remove(1);
  EXPECT_EQ(dc.used_pms(), (std::vector<PmIndex>{0}));
  dc.place_first_fit(2, Vm{3, 0});
  EXPECT_EQ(dc.used_pms(), (std::vector<PmIndex>{0, 2}));
}

TEST(Datacenter, ClearResetsEverything) {
  Datacenter dc(small_catalog(), {0, 0});
  dc.place_first_fit(0, Vm{1, 0});
  dc.place_first_fit(1, Vm{2, 1});
  dc.clear();
  EXPECT_EQ(dc.used_count(), 0u);
  EXPECT_EQ(dc.vm_count(), 0u);
  for (PmIndex i = 0; i < 2; ++i) {
    EXPECT_EQ(dc.pm(i).usage.total_usage(), 0);
    EXPECT_TRUE(dc.pm(i).vms.empty());
  }
  // Usable again after clear.
  EXPECT_NO_THROW(dc.place_first_fit(0, Vm{1, 0}));
}

TEST(Datacenter, PlaceFirstFitThrowsWhenFull) {
  Datacenter dc(small_catalog(), {0});
  for (VmId id = 0; id < 4; ++id) dc.place_first_fit(0, Vm{id, 0});
  EXPECT_THROW(dc.place_first_fit(0, Vm{9, 0}), std::invalid_argument);
}

TEST(Datacenter, ValidatesConstruction) {
  EXPECT_THROW(Datacenter(small_catalog(), {}), std::invalid_argument);
  EXPECT_THROW(Datacenter(small_catalog(), {7}), std::invalid_argument);
}

TEST(Datacenter, RefusesCapacitiesAboveAByte) {
  // An assignment item holds its levels in one byte.
  const auto catalog_with_memory_levels = [](int levels) {
    QuantizationConfig q;
    q.cpu_levels = 4;
    q.mem_levels = levels;
    return Catalog({{"pair", 2, 1.0, 2.0, 0, 0.0}}, {{"node", 2, 4.0, 8.0, 0, 0.0, "E5-2670"}},
                   q);
  };
  EXPECT_THROW(Datacenter(catalog_with_memory_levels(256), {0}), std::invalid_argument);
  EXPECT_NO_THROW(Datacenter(catalog_with_memory_levels(255), {0}));
}

TEST(Datacenter, PackedItemsKeepFullByteAmounts) {
  QuantizationConfig q;
  q.cpu_levels = 4;
  q.mem_levels = 255;
  Datacenter dc(Catalog({{"pair", 2, 1.0, 2.0, 0, 0.0}},
                        {{"node", 2, 4.0, 8.0, 0, 0.0, "E5-2670"}}, q),
                {0});
  const ProfileShape& shape = dc.shape_of(0);
  using Items = std::vector<std::pair<int, int>>;
  const Items items = {{0, 4}, {1, 1}, {2, 255}};
  dc.place(0, Vm{7, 0}, DemandPlacement{items, Profile::zero(shape)});
  EXPECT_EQ(Items(dc.pm(0).vms.front().assignments), items);
  EXPECT_EQ(dc.pm(0).usage.level(2), 255);
  dc.check_index_invariants();  // every item within its dimension's capacity
  const auto record = dc.remove(7);
  EXPECT_EQ(Items(record.assignments), items);
  EXPECT_EQ(dc.pm(0).usage.total_usage(), 0);
}

TEST(Datacenter, ByteLevelsFillTo255AndEmptyTo0) {
  // A PM's levels are stored one byte each. Five VMs of 51 memory levels
  // fill a 255-level dimension exactly, a sixth level does not fit, and
  // removing them in turn walks the level back down to 0. Every level above
  // 127 would read negative in a signed byte.
  QuantizationConfig q;
  q.cpu_levels = 4;
  q.mem_levels = 255;
  Datacenter dc(Catalog({{"pair", 2, 1.0, 2.0, 0, 0.0}},
                        {{"node", 2, 4.0, 8.0, 0, 0.0, "E5-2670"}}, q),
                {0, 0});
  const ProfileShape& shape = dc.shape_of(1);
  using Items = std::vector<std::pair<int, int>>;
  const auto expect_memory_level = [&](int level) {
    EXPECT_EQ(dc.pm(1).usage.level(2), level);
    EXPECT_EQ(dc.pm(1).usage.total_usage(), level);
    EXPECT_EQ(dc.pm(1).canonical_key, dc.pm(1).usage.canonical(shape).pack(shape));
    dc.check_index_invariants();
  };
  for (VmId vm = 1; vm <= 5; ++vm) {
    dc.place(1, Vm{vm, 0}, DemandPlacement{Items{{2, 51}}, Profile::zero(shape)});
    expect_memory_level(static_cast<int>(vm) * 51);
  }
  EXPECT_EQ(dc.pm(1).usage.levels()[2], 255);
  EXPECT_THROW(dc.place(1, Vm{6, 0}, DemandPlacement{Items{{2, 1}}, Profile::zero(shape)}),
               std::invalid_argument);
  expect_memory_level(255);
  for (VmId vm = 1; vm <= 5; ++vm) {
    dc.remove(vm);
    expect_memory_level(255 - static_cast<int>(vm) * 51);
  }
  EXPECT_FALSE(dc.pm(1).used());
}

TEST(Datacenter, SamplesLiveInSlotsAndLeaveWithTheirVm) {
  Datacenter dc(small_catalog(), {0, 0});
  dc.place_first_fit(0, Vm{1, 0});
  dc.place_first_fit(0, Vm{2, 1});
  EXPECT_EQ(dc.vm_sample(1), 0u) << "a new VM has no sample";
  EXPECT_TRUE(dc.set_vm_sample(1, 0x1234));
  EXPECT_FALSE(dc.set_vm_sample(99, 0x55)) << "no slot for a VM the ledger does not hold";
  EXPECT_EQ(dc.vm_sample(99), 0u);
  dc.set_pm_sample(1, 0x77);
  EXPECT_EQ(dc.vm_sample(1), 0x1234u);
  EXPECT_EQ(dc.pm(0).vms.front().sample, 0x1234u);
  EXPECT_EQ(dc.vm_sample(2), 0u);
  EXPECT_EQ(dc.pm_sample(1), 0x77u);

  ASSERT_TRUE(dc.set_vm_sample(2, 0x99));
  const Datacenter copy = dc;
  EXPECT_EQ(copy.vm_sample(1), 0x1234u) << "a frozen copy carries the samples";

  const auto record = dc.remove(1);
  EXPECT_EQ(record.sample, 0x1234u);
  EXPECT_EQ(dc.vm_sample(1), 0u);
  dc.check_index_invariants();  // the freed slot holds no sample
  dc.place_first_fit(1, Vm{1, 0});  // reuses the freed slot
  EXPECT_EQ(dc.vm_sample(1), 0u) << "a re-placed VM starts without a sample";

  // Installing a replacement ledger keeps the samples of what both hold.
  Datacenter replacement(small_catalog(), {0, 0});
  replacement.place_first_fit(0, Vm{2, 1});
  replacement.place_first_fit(0, Vm{3, 0});
  replacement.copy_samples_from(copy);
  EXPECT_EQ(replacement.vm_sample(2), 0x99u);
  EXPECT_EQ(replacement.vm_sample(3), 0u);
  EXPECT_EQ(replacement.pm_sample(1), 0x77u);
  replacement.check_index_invariants();
}

TEST(Datacenter, HeterogeneousFleet) {
  // Mixed EC2 fleet: shape differs per PM.
  Datacenter dc(ec2_catalog(), {0, 1});
  EXPECT_EQ(dc.shape_of(0).total_dims(), 13);
  EXPECT_EQ(dc.shape_of(1).total_dims(), 13);
  dc.place_first_fit(0, Vm{1, 3});  // m3.2xlarge on M3
  dc.place_first_fit(1, Vm{2, 0});  // m3.medium on C3
  EXPECT_EQ(dc.used_count(), 2u);
  EXPECT_EQ(dc.pm(0).vms.size(), 1u);
  // The 2xlarge's 8 vCPUs occupy all 8 cores, one level each.
  for (int c = 0; c < 8; ++c) EXPECT_EQ(dc.pm(0).usage.level(c), 1);
}

}  // namespace
}  // namespace prvm
