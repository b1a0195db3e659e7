#include "cluster/catalog.hpp"

#include <gtest/gtest.h>

#include "core/catalog_graphs.hpp"

namespace prvm {
namespace {

TEST(VmCatalog, TableOneValues) {
  const auto vms = ec2_vm_types();
  ASSERT_EQ(vms.size(), 6u);
  EXPECT_EQ(vms[0].name, "m3.medium");
  EXPECT_EQ(vms[0].vcpus, 1);
  EXPECT_DOUBLE_EQ(vms[0].vcpu_ghz, 0.6);
  EXPECT_DOUBLE_EQ(vms[0].memory_gib, 3.75);
  EXPECT_EQ(vms[0].vdisks, 1);
  EXPECT_DOUBLE_EQ(vms[0].vdisk_gb, 4.0);

  EXPECT_EQ(vms[3].name, "m3.2xlarge");
  EXPECT_EQ(vms[3].vcpus, 8);
  EXPECT_DOUBLE_EQ(vms[3].memory_gib, 30.0);
  EXPECT_DOUBLE_EQ(vms[3].total_cpu_ghz(), 4.8);
  EXPECT_DOUBLE_EQ(vms[3].total_disk_gb(), 160.0);

  EXPECT_EQ(vms[5].name, "c3.xlarge");
  EXPECT_DOUBLE_EQ(vms[5].vcpu_ghz, 0.7);
}

TEST(PmCatalog, TableTwoValues) {
  const auto pms = ec2_pm_types();
  ASSERT_EQ(pms.size(), 2u);
  EXPECT_EQ(pms[0].name, "M3");
  EXPECT_EQ(pms[0].cores, 8);
  EXPECT_DOUBLE_EQ(pms[0].core_ghz, 2.6);
  EXPECT_DOUBLE_EQ(pms[0].memory_gib, 64.0);
  EXPECT_EQ(pms[0].disks, 4);
  EXPECT_DOUBLE_EQ(pms[0].disk_gb, 250.0);
  EXPECT_EQ(pms[0].cpu_model, "E5-2670");
  EXPECT_EQ(pms[1].name, "C3");
  EXPECT_DOUBLE_EQ(pms[1].core_ghz, 2.8);
  EXPECT_EQ(pms[1].cpu_model, "E5-2680");
  // Documented deviation: C3 memory corrected to a host-class value.
  EXPECT_DOUBLE_EQ(pms[1].memory_gib, 60.0);
  // The literal table is preserved separately.
  EXPECT_DOUBLE_EQ(ec2_pm_types_as_printed()[1].memory_gib, 7.5);
}

TEST(PmCatalog, ShapeFromType) {
  QuantizationConfig q;
  const ProfileShape shape = ec2_pm_types()[0].make_shape(q);
  ASSERT_EQ(shape.group_count(), 3u);
  EXPECT_EQ(shape.groups()[0].count, 8);
  EXPECT_EQ(shape.groups()[0].capacity, q.cpu_levels);
  EXPECT_EQ(shape.groups()[1].count, 1);
  EXPECT_EQ(shape.groups()[1].capacity, q.mem_levels);
  EXPECT_EQ(shape.groups()[2].count, 4);
  EXPECT_EQ(shape.groups()[2].capacity, q.disk_levels);
}

TEST(PmCatalog, QuantizeEveryVmTypeOnM3) {
  QuantizationConfig q;
  const PmType m3 = ec2_pm_types()[0];
  const auto vms = ec2_vm_types();
  // m3.medium: 1 vCPU@1 level, mem 1 level, 1 disk@1 level.
  auto d = m3.quantize(vms[0], q);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group_items[0], (std::vector<int>{1}));
  EXPECT_EQ(d->group_items[1], (std::vector<int>{1}));
  EXPECT_EQ(d->group_items[2], (std::vector<int>{1}));
  // m3.2xlarge: 8 vCPUs, mem 8 levels, 2 disks of 80 GB -> 2 levels each.
  d = m3.quantize(vms[3], q);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group_items[0].size(), 8u);
  EXPECT_EQ(d->group_items[1], (std::vector<int>{8}));
  EXPECT_EQ(d->group_items[2], (std::vector<int>{2, 2}));
  // c3.large: 0.7 GHz vCPU costs 2 levels on a 0.65 GHz/level M3 core.
  d = m3.quantize(vms[4], q);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group_items[0], (std::vector<int>{2, 2}));
}

TEST(PmCatalog, QuantizeRejectsImpossibleFits) {
  QuantizationConfig q;
  PmType tiny{"tiny", 2, 1.0, 4.0, 1, 10.0, "E5-2670"};
  VmType too_many_vcpus{"x", 4, 0.5, 1.0, 0, 0.0};
  EXPECT_FALSE(tiny.quantize(too_many_vcpus, q).has_value());
  VmType too_much_mem{"x", 1, 0.5, 8.0, 0, 0.0};
  EXPECT_FALSE(tiny.quantize(too_much_mem, q).has_value());
  VmType too_many_disks{"x", 1, 0.5, 1.0, 2, 1.0};
  EXPECT_FALSE(tiny.quantize(too_many_disks, q).has_value());
  VmType vcpu_too_big{"x", 1, 1.5, 1.0, 0, 0.0};
  EXPECT_FALSE(tiny.quantize(vcpu_too_big, q).has_value());
  VmType fits{"x", 2, 0.5, 4.0, 1, 10.0};
  EXPECT_TRUE(tiny.quantize(fits, q).has_value());
}

TEST(PmCatalog, OversubscriptionChangesCpuQuantization) {
  QuantizationConfig q;  // 4 CPU levels
  PmType m3 = ec2_pm_types()[0];
  m3.cpu_alloc_factor = 2.0;
  EXPECT_DOUBLE_EQ(m3.alloc_core_ghz(), 5.2);
  // At 4 levels over 5.2 GHz (1.3/level), a 0.7 GHz vCPU costs 1 level.
  const auto d = m3.quantize(ec2_vm_types()[4], q);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group_items[0], (std::vector<int>{1, 1}));
}

TEST(Catalog, PrecomputesDemandsAndFittingSets) {
  const Catalog catalog = ec2_catalog();
  ASSERT_EQ(catalog.pm_types().size(), 2u);
  ASSERT_EQ(catalog.vm_types().size(), 6u);
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& fitting = catalog.fitting_demands(p);
    EXPECT_EQ(fitting.demands.size(), fitting.vm_type_of.size());
    for (std::size_t i = 0; i < fitting.demands.size(); ++i) {
      const auto& direct = catalog.demand(p, fitting.vm_type_of[i]);
      ASSERT_TRUE(direct.has_value());
      EXPECT_EQ(direct->group_items, fitting.demands[i].group_items);
    }
  }
  // With the corrected C3 memory all six VM types fit both PM types.
  EXPECT_EQ(catalog.fitting_demands(0).demands.size(), 6u);
  EXPECT_EQ(catalog.fitting_demands(1).demands.size(), 6u);
}

TEST(Catalog, AsPrintedC3RejectsLargeVms) {
  const Catalog catalog(ec2_vm_types(), ec2_pm_types_as_printed());
  // C3 with 7.5 GiB cannot host m3.xlarge (15) or m3.2xlarge (30).
  EXPECT_FALSE(catalog.demand(1, 2).has_value());
  EXPECT_FALSE(catalog.demand(1, 3).has_value());
  EXPECT_TRUE(catalog.demand(1, 0).has_value());
}

TEST(Catalog, RejectsVmThatFitsNothing) {
  std::vector<VmType> vms = {{"giant", 64, 1.0, 1024.0, 0, 0.0}};
  EXPECT_THROW(Catalog(vms, ec2_pm_types()), std::invalid_argument);
}

TEST(Catalog, GeniSetup) {
  const Catalog catalog = geni_catalog();
  ASSERT_EQ(catalog.pm_types().size(), 1u);
  ASSERT_EQ(catalog.vm_types().size(), 2u);
  const ProfileShape& shape = catalog.shape(0);
  // 4 cores, 4 vCPU slots each, CPU only (paper §VI-A).
  EXPECT_EQ(shape.group_count(), 1u);
  EXPECT_EQ(shape.groups()[0].count, 4);
  EXPECT_EQ(shape.groups()[0].capacity, 4);
  const auto d2 = catalog.demand(0, 0);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->group_items[0], (std::vector<int>{1, 1}));
  const auto d4 = catalog.demand(0, 1);
  ASSERT_TRUE(d4.has_value());
  EXPECT_EQ(d4->group_items[0], (std::vector<int>{1, 1, 1, 1}));
}

TEST(Catalog, Ec2SimCatalogScalesLevelsWithFactor) {
  const Catalog base = ec2_sim_catalog(1.0);
  EXPECT_EQ(base.quantization().cpu_levels, 4);
  const Catalog over = ec2_sim_catalog(1.5);
  EXPECT_EQ(over.quantization().cpu_levels, 6);
  // Level size stays 0.65 GHz on M3 either way: a 0.6 GHz vCPU costs 1.
  for (const Catalog* c : {&base, &over}) {
    const auto d = c->demand(0, 0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->group_items[0], (std::vector<int>{1}));
  }
  EXPECT_THROW(ec2_sim_catalog(0.5), std::invalid_argument);
}

TEST(CatalogGraphs, BuildsGeniTables) {
  const Catalog catalog = geni_catalog();
  const ScoreTableSet tables = build_score_tables(catalog, {}, std::nullopt);
  ASSERT_EQ(tables.pm_type_count(), 1u);
  EXPECT_EQ(tables.table(0).demand_count(), 2u);
  EXPECT_TRUE(tables.demand_slot(0, 0).has_value());
  EXPECT_TRUE(tables.demand_slot(0, 1).has_value());
  // The empty-instance profile is scored.
  const ProfileKey zero = Profile::zero(catalog.shape(0)).pack(catalog.shape(0));
  EXPECT_TRUE(tables.table(0).find(zero).has_value());
}

TEST(CatalogGraphs, CacheRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "prvm-cache-test";
  std::filesystem::remove_all(dir);
  const Catalog catalog = geni_catalog();
  const ScoreTableSet fresh = build_score_tables(catalog, {}, dir);
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  const ScoreTableSet cached = build_score_tables(catalog, {}, dir);
  EXPECT_EQ(cached.table(0).size(), fresh.table(0).size());
  EXPECT_EQ(cached.table(0).digest_string(), fresh.table(0).digest_string());
  EXPECT_TRUE(cached.table(0).is_mapped());
  std::filesystem::remove_all(dir);
}

TEST(Describe, HumanReadable) {
  EXPECT_NE(ec2_vm_types()[0].describe().find("m3.medium"), std::string::npos);
  EXPECT_NE(ec2_pm_types()[0].describe().find("E5-2670"), std::string::npos);
}

}  // namespace
}  // namespace prvm
