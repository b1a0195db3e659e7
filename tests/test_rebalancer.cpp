// Online rebalancer (DESIGN.md §9): utilization-map decay/staleness
// semantics, LoadView parity with the CloudSimulation reserved-demand model
// (same threshold => same overload classification and the same victims),
// planner round bounds (max moves, cooldown), WAL-durable execution with a
// crash-recovery differential, and the rebalance/util wire surface.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "cluster/catalog.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "rebalance/planner.hpp"
#include "rebalance/utilization.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "sim/migration_policy.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace prvm {
namespace {

constexpr std::uint64_t kMs = 1'000'000ull;  ///< one millisecond in ns

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  // Default on-disk cache — shared across the per-test processes.
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

/// A unique per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("prvm-test-" + tag + "-" + std::to_string(::getpid()));
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

Request place_request(std::uint64_t vm, std::size_t type, std::string group = "") {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

const std::string* find_extra(const Response& response, const std::string& key) {
  for (const auto& [k, v] : response.extra) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- UtilizationMap --------------------------------------------------------

TEST(UtilizationMapTest, DecayHalvesPerHalfLifeAndGoesStale) {
  UtilizationConfig config;
  config.pm_count = 4;
  config.half_life_ms = 1000;
  config.stale_after_ms = 3000;
  UtilizationMap map(config, /*epoch_ns=*/0);

  EXPECT_FALSE(map.vm_fraction(7, 10 * kMs).has_value()) << "no sample yet";
  EXPECT_TRUE(map.record_vm(7, 0.8, 10 * kMs));
  EXPECT_NEAR(*map.vm_fraction(7, 10 * kMs), 0.8, 1e-6);
  EXPECT_NEAR(*map.vm_fraction(7, 1010 * kMs), 0.4, 1e-3) << "one half-life";
  EXPECT_NEAR(*map.vm_fraction(7, 2010 * kMs), 0.2, 1e-3) << "two half-lives";
  EXPECT_TRUE(map.vm_fraction(7, 3010 * kMs).has_value()) << "at the stale bound";
  EXPECT_FALSE(map.vm_fraction(7, 3011 * kMs).has_value()) << "past stale_after";

  map.record_pm(2, 0.6, 10 * kMs);
  EXPECT_NEAR(*map.pm_fraction(2, 10 * kMs), 0.6, 1e-6);
  EXPECT_NEAR(*map.pm_fraction(2, 1010 * kMs), 0.3, 1e-3);
  EXPECT_FALSE(map.pm_fraction(2, 4000 * kMs).has_value());
  EXPECT_FALSE(map.pm_fraction(3, 10 * kMs).has_value()) << "PM never sampled";

  // Out-of-range PMs are ignored on write and answer nothing on read.
  map.record_pm(99, 0.5, 10 * kMs);
  EXPECT_FALSE(map.pm_fraction(99, 10 * kMs).has_value());
}

TEST(UtilizationMapTest, NewestSampleWinsAndClampsToProtocolRange) {
  UtilizationConfig config;
  config.pm_count = 1;
  config.half_life_ms = 1000;
  config.stale_after_ms = 10'000;
  UtilizationMap map(config, 0);

  EXPECT_TRUE(map.record_vm(5, 0.5, 100 * kMs));
  EXPECT_TRUE(map.record_vm(5, 1.3, 2000 * kMs));  // bursting past reservation
  EXPECT_NEAR(*map.vm_fraction(5, 2000 * kMs), 1.3, 1e-6)
      << "the newer sample replaces the old one entirely";

  map.record_pm(0, -3.0, 100 * kMs);
  EXPECT_NEAR(*map.pm_fraction(0, 100 * kMs), 0.0, 1e-9);
  map.record_pm(0, 7.5, 100 * kMs);
  EXPECT_NEAR(*map.pm_fraction(0, 100 * kMs), 2.0, 1e-9)
      << "samples clamp to the protocol's [0, 2] range";
}

TEST(UtilizationMapTest, FullTableDropsNewKeysButKeepsUpdatingExistingOnes) {
  UtilizationConfig config;
  config.pm_count = 1;
  config.vm_capacity = 16;  // the implementation floor; probes cover it fully
  UtilizationMap map(config, 0);
  ASSERT_EQ(map.vm_capacity(), 16u);

  std::size_t inserted = 0;
  for (VmId vm = 1; vm <= 64; ++vm) {
    if (map.record_vm(vm, 0.5, kMs)) ++inserted;
  }
  EXPECT_EQ(inserted, 16u) << "exactly capacity keys fit; the rest drop";
  EXPECT_TRUE(map.record_vm(1, 0.9, 2 * kMs))
      << "existing keys always update in place, even when the table is full";
  EXPECT_NEAR(*map.vm_fraction(1, 2 * kMs), 0.9, 1e-6);
}

TEST(UtilizationMapTest, ForgottenSlotsServeTenTimesTheCapacityInDistinctVms) {
  UtilizationConfig config;
  config.pm_count = 1;
  config.vm_capacity = 1024;
  UtilizationMap map(config, 0);
  ASSERT_EQ(map.vm_capacity(), 1024u);

  // Half the table live at any time, but every id new: each VM is sampled
  // while live and forgotten when it leaves, as the service does on
  // release. Without forget_vm the table fills after 1024 ids.
  constexpr VmId kLive = 512;
  constexpr VmId kLast = 10 * 1024;
  std::size_t dropped = 0;
  std::size_t forgotten_but_readable = 0;
  for (VmId vm = 1; vm <= kLast; ++vm) {
    if (!map.record_vm(vm, 0.25, kMs)) ++dropped;
    if (vm > kLive) {
      map.forget_vm(vm - kLive);
      if (map.vm_fraction(vm - kLive, kMs).has_value()) ++forgotten_but_readable;
    }
  }
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(forgotten_but_readable, 0u);
  for (VmId vm = kLast - kLive + 1; vm <= kLast; ++vm) {
    ASSERT_TRUE(map.vm_fraction(vm, kMs).has_value()) << "live vm " << vm;
  }
  EXPECT_TRUE(map.record_vm(kLast, 0.75, 2 * kMs));
  EXPECT_NEAR(*map.vm_fraction(kLast, 2 * kMs), 0.75, 1e-6);
  map.forget_vm(kLast + 1);  // never sampled: a no-op
  EXPECT_NEAR(*map.vm_fraction(kLast, 2 * kMs), 0.75, 1e-6);
}

TEST(UtilizationMapTest, ReleasedVmsFreeTheirSlotsInTheService) {
  // Churn ten times the map's capacity in distinct VM ids through the
  // service: place, sample, release. Every sample must land.
  const Catalog catalog = ec2_catalog();
  PlacementService service(catalog, mixed_pm_fleet(catalog, 8), tables_for(catalog), {});
  const std::size_t capacity = service.utilization_map().vm_capacity();
  constexpr std::uint64_t kLive = 40;
  std::uint64_t placed = 0;
  for (std::uint64_t vm = 1; vm <= 10 * capacity; ++vm) {
    if (service.execute(place_request(vm, 0)).ok) ++placed;
    Request sample;
    sample.op = RequestOp::kUtil;
    sample.vm_id = vm;
    sample.cpu = 0.5;
    ASSERT_TRUE(service.execute(sample).ok);
    if (vm > kLive) {
      Request release;
      release.op = RequestOp::kRelease;
      release.vm_id = vm - kLive;
      const Response released = service.execute(release);
      ASSERT_TRUE(released.ok) << released.error << ": " << released.message;
    }
  }
  EXPECT_EQ(placed, 10 * capacity);
  EXPECT_EQ(service.metrics_registry().counter("prvm_rebal_util_dropped_total").value(), 0u);
  EXPECT_TRUE(service.utilization_map().vm_fraction(
      static_cast<VmId>(10 * capacity), obs::now_ns()).has_value());
}

// --- LoadView <-> CloudSimulation parity -----------------------------------

class SimParityTest : public ::testing::Test {
 protected:
  SimParityTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(SimParityTest, LoadViewMatchesReservedModelAndPoliciesAgreeOnVictims) {
  // Place a mixed population with the real engine, then feed the live map
  // the exact fractions a constant-trace simulation would read at epoch 0.
  PlacementService service(catalog_, mixed_pm_fleet(catalog_, 6), tables_, {});
  std::vector<Vm> vms;
  std::vector<UtilizationTrace> traces;
  std::vector<std::size_t> binding;
  std::vector<double> fractions;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::size_t type = static_cast<std::size_t>(i) % catalog_.vm_types().size();
    const Response placed = service.execute(place_request(i + 1, type));
    ASSERT_TRUE(placed.ok) << placed.error << ": " << placed.message;
    vms.push_back(Vm{static_cast<VmId>(i + 1), type});
    const double fraction = 0.05 + 0.09 * static_cast<double>(i % 10);
    fractions.push_back(fraction);
    traces.emplace_back(std::vector<double>{fraction});
    binding.push_back(static_cast<std::size_t>(i));
  }

  const Datacenter dc = service.datacenter();
  UtilizationConfig map_config;
  map_config.pm_count = dc.pm_count();
  UtilizationMap map(map_config, 0);
  const std::uint64_t now = 100 * kMs;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    ASSERT_TRUE(map.record_vm(vms[i].id, fractions[i], now));
  }
  const LoadView view(&dc, &map, now);

  SimulationOptions options;
  options.epochs = 1;
  options.cpu_model = CpuDemandModel::kReserved;
  options.overload_rule = OverloadRule::kAnyDimension;
  CloudSimulation sim(service.datacenter(), vms, binding, TraceSet(std::move(traces)),
                      options);

  // The sample store keeps float32, so parity is to float precision.
  std::size_t multi_resident_pms = 0;
  for (const PmIndex pm : dc.used_pms()) {
    EXPECT_NEAR(view.pm_cpu_utilization(pm), sim.pm_cpu_utilization(pm), 1e-5);
    EXPECT_NEAR(view.pm_hottest_utilization(pm), sim.pm_hottest_utilization(pm), 1e-5);
    if (dc.pm(pm).vms.size() >= 2) ++multi_resident_pms;
  }
  ASSERT_GT(multi_resident_pms, 0u) << "parity needs PMs with real victim choices";

  // Same threshold => same overload classification (the planner's victim
  // set is exactly the simulator's on a frozen snapshot).
  for (const double threshold : {0.2, 0.35, 0.5, 0.9}) {
    for (const PmIndex pm : dc.used_pms()) {
      EXPECT_EQ(view.pm_hottest_utilization(pm) > threshold,
                sim.pm_hottest_utilization(pm) > threshold)
          << "classification diverged at threshold " << threshold << " on pm " << pm;
    }
  }

  // Every migration policy picks the same victim from either view.
  MinimumMigrationTimePolicy mmt;
  PageRankMigrationPolicy pagerank(tables_);
  MaxCpuVictimPolicy max_cpu;
  for (const PmIndex pm : dc.used_pms()) {
    EXPECT_EQ(mmt.select_victim(view, pm), mmt.select_victim(sim, pm));
    EXPECT_EQ(pagerank.select_victim(view, pm), pagerank.select_victim(sim, pm));
    EXPECT_EQ(max_cpu.select_victim(view, pm), max_cpu.select_victim(sim, pm));
  }
}

TEST_F(SimParityTest, AbsenceOfSignalIsNotLoad) {
  PlacementService service(catalog_, mixed_pm_fleet(catalog_, 2), tables_, {});
  const Response placed = service.execute(place_request(1, 0));
  ASSERT_TRUE(placed.ok);
  const Datacenter dc = service.datacenter();

  UtilizationConfig map_config;
  map_config.pm_count = dc.pm_count();
  UtilizationMap map(map_config, 0);
  const LoadView unfed(&dc, &map, 100 * kMs);
  const PmIndex pm = static_cast<PmIndex>(*placed.pm);
  EXPECT_EQ(unfed.vm_cpu_ghz(1), 0.0);
  EXPECT_EQ(unfed.pm_cpu_utilization(pm), 0.0);
  EXPECT_FALSE(unfed.has_signal(pm)) << "no samples: the planner must not act";

  // A direct per-PM sample is signal and raises (never lowers) the hottest
  // reading past anything the per-VM aggregate implies.
  map.record_pm(pm, 1.2, 100 * kMs);
  const LoadView fed(&dc, &map, 100 * kMs);
  EXPECT_TRUE(fed.has_signal(pm));
  EXPECT_NEAR(fed.pm_hottest_utilization(pm), 1.2, 1e-6);
  EXPECT_EQ(fed.pm_cpu_utilization(pm), 0.0) << "aggregate stays sample-driven";
}

// --- planner rounds through a live service ---------------------------------

class RebalancerServiceTest : public ::testing::Test {
 protected:
  RebalancerServiceTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  /// A service whose planner exists but whose thread effectively never
  /// fires (interval ~1 h): tests drive run_round(now) deterministically.
  std::unique_ptr<PlacementService> make_service(std::size_t fleet,
                                                 ServiceConfig config = {}) {
    config.rebalance.enabled = true;
    if (config.rebalance.interval_ms == 1000) config.rebalance.interval_ms = 3'600'000;
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, fleet),
                                              tables_, std::move(config));
  }

  std::optional<std::uint64_t> lookup_pm(PlacementService& service, std::uint64_t vm) {
    Request request;
    request.op = RequestOp::kLookup;
    request.vm_id = vm;
    const Response response = service.submit(request).get();
    return response.ok ? response.pm : std::nullopt;
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(RebalancerServiceTest, OverloadDrainIsBoundedAndWalDurable) {
  TempDir dir("rebal-wal");
  ServiceConfig config;
  config.data_dir = dir.path();
  config.rebalance.max_moves_per_round = 2;
  config.rebalance.cooldown_ms = 1;
  auto service = make_service(4, std::move(config));
  for (std::uint64_t vm = 1; vm <= 12; ++vm) {
    ASSERT_TRUE(service->execute(place_request(vm, vm % 2)).ok);
  }
  // An anti-collocation pair rides along: planner moves must respect it.
  ASSERT_TRUE(service->execute(place_request(100, 0, "web")).ok);
  ASSERT_TRUE(service->execute(place_request(101, 0, "web")).ok);
  service->start();

  UtilizationMap& map = service->utilization_map();
  const std::uint64_t now = map.epoch_ns() + 1000 * kMs;
  const auto hot = lookup_pm(*service, 1);
  ASSERT_TRUE(hot.has_value());
  for (PmIndex pm = 0; pm < 4; ++pm) {
    map.record_pm(pm, pm == *hot ? 1.3 : 0.3, now);
  }

  RebalancePlanner* planner = service->rebalancer();
  ASSERT_NE(planner, nullptr);
  const std::size_t moves = planner->run_round(now);
  EXPECT_GE(moves, 1u);
  EXPECT_LE(moves, 2u) << "max_moves_per_round is a hard per-round bound";
  const RebalanceStatus status = planner->status();
  EXPECT_EQ(status.rounds, 1u);
  EXPECT_EQ(status.total_moves, moves);
  EXPECT_EQ(status.last_round_moves, moves);
  EXPECT_EQ(service->stats().migrated, moves)
      << "every planner move is an ordinary WAL'd migrate";

  // Crash (no final snapshot) and rebuild: the WAL alone must reproduce the
  // post-migration ledger bit-identically, group constraint included.
  service->stop_now();
  const Datacenter before = service->datacenter();
  ServiceConfig recover_config;
  recover_config.data_dir = dir.path();
  PlacementService recovered(catalog_, mixed_pm_fleet(catalog_, 4), tables_,
                             std::move(recover_config));
  EXPECT_TRUE(recovered.stats().recovered);
  EXPECT_TRUE(datacenter_state_equal(before, recovered.datacenter()));
  const auto pm_a = recovered.datacenter().pm_of(100);
  const auto pm_b = recovered.datacenter().pm_of(101);
  ASSERT_TRUE(pm_a.has_value());
  ASSERT_TRUE(pm_b.has_value());
  EXPECT_NE(*pm_a, *pm_b) << "anti-collocation must survive planner moves + crash";
}

TEST_F(RebalancerServiceTest, ConsolidationDrainsWholeUnderloadedPmOntoUsedPms) {
  ServiceConfig config;
  config.rebalance.max_moves_per_round = 8;
  config.rebalance.underload_threshold = 0.2;
  auto service = make_service(6, std::move(config));
  const std::size_t xlarge = [&] {
    for (std::size_t i = 0; i < catalog_.vm_types().size(); ++i) {
      if (catalog_.vm_type(i).name == "m3.xlarge") return i;
    }
    return std::size_t{0};
  }();
  // Pack enough 15 GiB VMs to use most of the fleet, then trim every PM to
  // two residents: each used PM keeps headroom, so the drained PM's VMs
  // provably fit on the others and only the used-destination rule decides.
  for (std::uint64_t vm = 1; vm <= 18; ++vm) {
    ASSERT_TRUE(service->execute(place_request(vm, xlarge)).ok);
  }
  std::unordered_map<std::uint64_t, std::size_t> residents;
  std::size_t vm_count = 18;
  for (std::uint64_t vm = 1; vm <= 18; ++vm) {
    const auto pm = service->datacenter().pm_of(static_cast<VmId>(vm));
    ASSERT_TRUE(pm.has_value());
    if (++residents[*pm] > 2) {
      Request release;
      release.op = RequestOp::kRelease;
      release.vm_id = vm;
      ASSERT_TRUE(service->execute(release).ok);
      --residents[*pm];
      --vm_count;
    }
  }
  ASSERT_GE(residents.size(), 3u);
  service->start();
  // The emptiest PM (lowest index on ties) gets an underload reading; the
  // rest sit between the thresholds where the planner leaves them alone.
  std::uint64_t cold = 0;
  std::size_t cold_count = SIZE_MAX;
  for (const auto& [pm, count] : residents) {
    if (count < cold_count || (count == cold_count && pm < cold)) {
      cold = pm;
      cold_count = count;
    }
  }
  UtilizationMap& map = service->utilization_map();
  const std::uint64_t now = map.epoch_ns() + 1000 * kMs;
  for (PmIndex pm = 0; pm < 6; ++pm) {
    map.record_pm(pm, pm == cold ? 0.05 : 0.5, now);
  }

  const std::size_t moves = service->rebalancer()->run_round(now);
  EXPECT_EQ(moves, cold_count) << "the whole PM drains or none of it does";
  service->drain();
  EXPECT_FALSE(service->datacenter().pm(static_cast<PmIndex>(cold)).used());
  EXPECT_EQ(service->datacenter().used_pms().size(), residents.size() - 1)
      << "consolidation must land on already-used PMs, shrinking the used set";
  EXPECT_EQ(service->datacenter().vm_count(), vm_count);
}

TEST_F(RebalancerServiceTest, CooldownPreventsPingPong) {
  ServiceConfig config;
  config.rebalance.max_moves_per_round = 8;
  config.rebalance.cooldown_ms = 60'000;
  config.rebalance.underload_threshold = 0.0;  // isolate the overload path
  auto service = make_service(2, std::move(config));
  // Four m3.xlarge (15 GiB) across two PMs: everything fits either PM, so
  // capacity never masks the cooldown behavior under test.
  const std::size_t xlarge = [&] {
    for (std::size_t i = 0; i < catalog_.vm_types().size(); ++i) {
      if (catalog_.vm_type(i).name == "m3.xlarge") return i;
    }
    return std::size_t{0};
  }();
  for (std::uint64_t vm = 1; vm <= 4; ++vm) {
    ASSERT_TRUE(service->execute(place_request(vm, xlarge)).ok);
  }
  service->start();

  UtilizationMap& map = service->utilization_map();
  RebalancePlanner* planner = service->rebalancer();
  const std::uint64_t t0 = map.epoch_ns() + 1000 * kMs;
  const auto hot = lookup_pm(*service, 1);
  ASSERT_TRUE(hot.has_value());
  const std::uint64_t other = *hot == 0 ? 1 : 0;

  map.record_pm(*hot, 1.3, t0);
  map.record_pm(other, 0.3, t0);
  const std::size_t moves1 = planner->run_round(t0);
  ASSERT_GE(moves1, 1u);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> moved;  // vm -> new pm
  for (std::uint64_t vm = 1; vm <= 4; ++vm) {
    const auto pm = lookup_pm(*service, vm);
    ASSERT_TRUE(pm.has_value());
    if (*pm != *hot) moved.emplace_back(vm, *pm);
  }
  ASSERT_EQ(moved.size(), moves1);

  // Reverse the hotspot within the cooldown window: the freshly moved VMs
  // must NOT bounce straight back even though their new PM now reads hot.
  map.record_pm(*hot, 0.3, t0 + kMs);
  map.record_pm(other, 1.3, t0 + kMs);
  planner->run_round(t0 + kMs);
  for (const auto& [vm, pm] : moved) {
    EXPECT_EQ(lookup_pm(*service, vm), std::optional<std::uint64_t>(pm))
        << "vm " << vm << " ping-ponged inside its cooldown";
  }
  EXPECT_GE(
      service->metrics_registry().counter("prvm_rebal_skipped_cooldown_total").value(), 1u)
      << "the blocked eviction must be observable";

  // Past the cooldown the same pressure does move them.
  const std::uint64_t t1 = t0 + (60'000 + 10) * kMs;
  map.record_pm(*hot, 0.3, t1);
  map.record_pm(other, 1.3, t1);
  EXPECT_GE(planner->run_round(t1), 1u) << "expired cooldowns release their VMs";
}

TEST_F(RebalancerServiceTest, PausedPlannerPlansNothing) {
  auto service = make_service(2);
  ASSERT_TRUE(service->execute(place_request(1, 0)).ok);
  service->start();
  UtilizationMap& map = service->utilization_map();
  const std::uint64_t now = map.epoch_ns() + 1000 * kMs;
  const auto hot = lookup_pm(*service, 1);
  ASSERT_TRUE(hot.has_value());
  map.record_pm(*hot, 1.3, now);

  RebalancePlanner* planner = service->rebalancer();
  planner->pause();
  EXPECT_STREQ(planner->state_name(), "paused");
  EXPECT_EQ(planner->run_round(now), 0u);
  EXPECT_EQ(planner->status().rounds, 0u) << "a paused round is not a round";
  planner->resume();
  EXPECT_STREQ(planner->state_name(), "idle");
}

// --- wire surface ----------------------------------------------------------

TEST_F(RebalancerServiceTest, HealthAndRebalanceOpExposeThePlanner) {
  auto enabled = make_service(2);
  const Response health = enabled->execute([] {
    Request r;
    r.op = RequestOp::kHealth;
    return r;
  }());
  ASSERT_TRUE(health.ok);
  const std::string* state = find_extra(health, "rebalance");
  ASSERT_NE(state, nullptr) << "health must report the planner state";
  EXPECT_EQ(*state, "\"idle\"");
  EXPECT_NE(find_extra(health, "rebalance_last_moves"), nullptr);

  Request status;
  status.op = RequestOp::kRebalance;
  const Response s = enabled->execute(status);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(*find_extra(s, "state"), "\"idle\"");
  EXPECT_NE(find_extra(s, "rounds"), nullptr);
  EXPECT_NE(find_extra(s, "total_moves"), nullptr);

  Request pause = status;
  pause.action = "pause";
  ASSERT_TRUE(enabled->execute(pause).ok);
  EXPECT_EQ(*find_extra(enabled->execute(status), "state"), "\"paused\"");
  Request resume = status;
  resume.action = "resume";
  ASSERT_TRUE(enabled->execute(resume).ok);
  EXPECT_EQ(*find_extra(enabled->execute(status), "state"), "\"idle\"");

  // Planner off: health says so, status says so, steering is an error.
  PlacementService disabled(catalog_, mixed_pm_fleet(catalog_, 2), tables_, {});
  const Response off_health = disabled.execute([] {
    Request r;
    r.op = RequestOp::kHealth;
    return r;
  }());
  EXPECT_EQ(*find_extra(off_health, "rebalance"), "\"off\"");
  const Response off_status = disabled.execute(status);
  EXPECT_TRUE(off_status.ok);
  EXPECT_EQ(*find_extra(off_status, "state"), "\"off\"");
  Request trigger = status;
  trigger.action = "trigger";
  const Response rejected = disabled.execute(trigger);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "rebalance_disabled");
}

TEST_F(RebalancerServiceTest, UtilOpFeedsTheMapAndValidatesItsTarget) {
  auto service = make_service(2);
  ASSERT_TRUE(service->execute(place_request(9, 0)).ok);
  service->start();

  Request sample;
  sample.op = RequestOp::kUtil;
  sample.vm_id = 9;
  sample.cpu = 0.75;
  const Response ok = service->submit(sample).get();
  ASSERT_TRUE(ok.ok) << ok.error;
  const auto stored = service->utilization_map().vm_fraction(9, obs::now_ns());
  ASSERT_TRUE(stored.has_value());
  EXPECT_NEAR(*stored, 0.75, 1e-3) << "negligible decay between ingest and read";

  Request unknown = sample;
  unknown.vm_id = 10;
  const Response unknown_ok = service->submit(unknown).get();
  EXPECT_TRUE(unknown_ok.ok) << "a sample for an unplaced VM is not an error";
  EXPECT_FALSE(service->utilization_map().vm_fraction(10, obs::now_ns()).has_value())
      << "a sample for a VM the ledger does not hold must not take a slot";

  Request pm_sample;
  pm_sample.op = RequestOp::kUtil;
  pm_sample.pm = 1;
  pm_sample.cpu = 0.4;
  EXPECT_TRUE(service->submit(pm_sample).get().ok);

  Request out_of_range;
  out_of_range.op = RequestOp::kUtil;
  out_of_range.pm = 99;
  out_of_range.cpu = 0.4;
  const Response rejected = service->submit(out_of_range).get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "bad_field");
  service->drain();
}

// A feed of ids the ledger never held, ten times the VM table's capacity,
// through both entry points: none of it may take a slot, so samples for live
// VMs still land afterwards.
TEST_F(RebalancerServiceTest, UnknownVmSamplesNeverFillTheTable) {
  auto service = make_service(2);
  const UtilizationMap& map = service->utilization_map();
  const std::uint64_t flood = 10 * map.vm_capacity();
  const auto util = [](std::uint64_t vm) {
    Request request;
    request.op = RequestOp::kUtil;
    request.vm_id = vm;
    request.cpu = 0.5;
    return request;
  };
  constexpr std::uint64_t kLive = 6;
  for (std::uint64_t vm = 1; vm <= kLive; ++vm) {
    ASSERT_TRUE(service->execute(place_request(vm, 0)).ok);
  }
  ASSERT_TRUE(service->execute(util(1)).ok);

  for (std::uint64_t i = 0; i < flood; ++i) {
    ASSERT_TRUE(service->execute(util(1'000'000 + i)).ok);
  }
  service->start();
  for (std::uint64_t i = 0; i < flood; ++i) {
    ASSERT_TRUE(service->submit(util(5'000'000 + i)).get().ok);
  }
  for (std::uint64_t vm = 2; vm <= kLive; ++vm) {
    ASSERT_TRUE(service->submit(util(vm)).get().ok);
  }
  service->drain();

  const std::uint64_t now = obs::now_ns();
  for (std::uint64_t vm = 1; vm <= kLive; ++vm) {
    EXPECT_TRUE(map.vm_fraction(static_cast<VmId>(vm), now).has_value())
        << "live VM " << vm << " lost its sample";
  }
  EXPECT_FALSE(map.vm_fraction(1'000'000, now).has_value());
  EXPECT_FALSE(map.vm_fraction(static_cast<VmId>(5'000'000 + flood - 1), now).has_value());
  const obs::Registry& reg = service->metrics_registry();
  EXPECT_EQ(reg.find_counter("prvm_rebal_util_unknown_total")->value(), 2 * flood);
  EXPECT_EQ(reg.find_counter("prvm_rebal_util_dropped_total")->value(), 0u);
}

TEST(RebalanceProtocolTest, UtilAndRebalanceParsing) {
  auto parsed = [](const std::string& line) { return parse_request(line); };

  auto ok = parsed(R"({"op":"util","vm":7,"cpu":0.83})");
  ASSERT_TRUE(std::holds_alternative<Request>(ok));
  EXPECT_EQ(std::get<Request>(ok).op, RequestOp::kUtil);
  EXPECT_EQ(std::get<Request>(ok).vm_id, 7u);
  EXPECT_DOUBLE_EQ(std::get<Request>(ok).cpu, 0.83);

  auto pm_keyed = parsed(R"({"op":"util","pm":3,"cpu":1.5})");
  ASSERT_TRUE(std::holds_alternative<Request>(pm_keyed));
  EXPECT_EQ(std::get<Request>(pm_keyed).pm, std::optional<std::uint64_t>(3));

  EXPECT_TRUE(std::holds_alternative<ProtocolError>(
      parsed(R"({"op":"util","vm":1,"pm":2,"cpu":0.5})")))
      << "exactly one of vm/pm";
  EXPECT_TRUE(std::holds_alternative<ProtocolError>(parsed(R"({"op":"util","vm":1})")))
      << "cpu required";
  EXPECT_TRUE(
      std::holds_alternative<ProtocolError>(parsed(R"({"op":"util","vm":1,"cpu":2.5})")))
      << "cpu capped at 2";

  auto action = parsed(R"({"op":"rebalance","action":"trigger"})");
  ASSERT_TRUE(std::holds_alternative<Request>(action));
  EXPECT_EQ(std::get<Request>(action).action, "trigger");
  EXPECT_TRUE(std::holds_alternative<ProtocolError>(
      parsed(R"({"op":"rebalance","action":"explode"})")));

  // The planner's scan handoff is process-internal, never a wire op.
  auto scan = parsed(R"({"op":"rebalance_scan"})");
  ASSERT_TRUE(std::holds_alternative<ProtocolError>(scan));
  EXPECT_EQ(std::get<ProtocolError>(scan).code, "unknown_op");
}

TEST(RebalanceConfigTest, ImplausibleThresholdsAreRejectedByName) {
  const Catalog catalog = ec2_catalog();
  auto tables = tables_for(catalog);
  const auto build = [&](RebalanceConfig rebalance) {
    ServiceConfig config;
    config.rebalance = std::move(rebalance);
    config.rebalance.enabled = true;
    PlacementService service(catalog, mixed_pm_fleet(catalog, 2), tables,
                             std::move(config));
  };
  RebalanceConfig bad_overload;
  bad_overload.overload_threshold = 2.0;
  EXPECT_THROW(build(bad_overload), ServiceConfigError);
  RebalanceConfig bad_underload;
  bad_underload.underload_threshold = 0.95;  // >= overload
  EXPECT_THROW(build(bad_underload), ServiceConfigError);
  RebalanceConfig bad_interval;
  bad_interval.interval_ms = 0;
  EXPECT_THROW(build(bad_interval), ServiceConfigError);
  RebalanceConfig bad_moves;
  bad_moves.max_moves_per_round = 0;
  EXPECT_THROW(build(bad_moves), ServiceConfigError);
}

}  // namespace
}  // namespace prvm
