// Online rebalancer (DESIGN.md §9): utilization-sample decay/staleness
// semantics and the samples' life in the ledger's slots, LoadView parity
// with the CloudSimulation reserved-demand model (same threshold => same
// overload classification and the same victims), planner round bounds (max
// moves, cooldown), WAL-durable execution with a crash-recovery
// differential, and the rebalance/util wire surface.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
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

// --- utilization samples: the codec and their slots in the ledger --------

TEST(UtilizationMapTest, DecayHalvesPerHalfLifeAndGoesStale) {
  const UtilizationCodec codec({/*half_life_ms=*/1000, /*stale_after_ms=*/3000},
                               /*epoch_ns=*/0);
  EXPECT_FALSE(codec.decayed(0, 10 * kMs).has_value()) << "0 is no sample";
  const std::uint64_t sample = codec.pack(0.8, 10 * kMs);
  EXPECT_NEAR(*codec.decayed(sample, 10 * kMs), 0.8, 1e-6);
  EXPECT_NEAR(*codec.decayed(sample, 1010 * kMs), 0.4, 1e-3) << "one half-life";
  EXPECT_NEAR(*codec.decayed(sample, 2010 * kMs), 0.2, 1e-3) << "two half-lives";
  EXPECT_TRUE(codec.decayed(sample, 3010 * kMs).has_value()) << "at the stale bound";
  EXPECT_FALSE(codec.decayed(sample, 3011 * kMs).has_value()) << "past stale_after";
  EXPECT_NEAR(*codec.decayed(sample, 0), 0.8, 1e-6) << "a read before the write ages nothing";
}

TEST(UtilizationMapTest, NewestSampleWinsAndClampsToProtocolRange) {
  const UtilizationCodec codec({/*half_life_ms=*/1000, /*stale_after_ms=*/10'000}, 0);
  Datacenter dc(ec2_catalog(), {0});
  dc.place_first_fit(0, Vm{5, 0});

  ASSERT_TRUE(dc.set_vm_sample(5, codec.pack(0.5, 100 * kMs)));
  ASSERT_TRUE(dc.set_vm_sample(5, codec.pack(1.3, 2000 * kMs)));  // bursting past reservation
  EXPECT_NEAR(*codec.decayed(dc.vm_sample(5), 2000 * kMs), 1.3, 1e-6)
      << "the newer sample replaces the old one entirely";

  dc.set_pm_sample(0, codec.pack(-3.0, 100 * kMs));
  EXPECT_NEAR(*codec.decayed(dc.pm_sample(0), 100 * kMs), 0.0, 1e-9);
  dc.set_pm_sample(0, codec.pack(7.5, 100 * kMs));
  EXPECT_NEAR(*codec.decayed(dc.pm_sample(0), 100 * kMs), 2.0, 1e-9)
      << "samples clamp to the protocol's [0, 2] range";
}

Request util_request(std::uint64_t vm, double cpu) {
  Request request;
  request.op = RequestOp::kUtil;
  request.vm_id = vm;
  request.cpu = cpu;
  return request;
}

Request vm_op(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

TEST(UtilizationMapTest, ReleasedVmsFreeTheirSlotsInTheService) {
  // Churn thousands of distinct VM ids through the service: place, sample,
  // release. Every live VM keeps its sample; a released VM has none, and a
  // re-placed id starts without one.
  const Catalog catalog = ec2_catalog();
  PlacementService service(catalog, mixed_pm_fleet(catalog, 8), tables_for(catalog), {});
  const UtilizationCodec& codec = service.utilization_codec();
  constexpr std::uint64_t kLive = 40;
  constexpr std::uint64_t kLast = 5000;
  for (std::uint64_t vm = 1; vm <= kLast; ++vm) {
    ASSERT_TRUE(service.execute(place_request(vm, 0)).ok);
    ASSERT_TRUE(service.execute(util_request(vm, 0.5)).ok);
    if (vm > kLive) {
      const Response released = service.execute(vm_op(RequestOp::kRelease, vm - kLive));
      ASSERT_TRUE(released.ok) << released.error << ": " << released.message;
      ASSERT_EQ(service.datacenter().vm_sample(static_cast<VmId>(vm - kLive)), 0u);
    }
  }
  const Datacenter& dc = service.datacenter();
  const std::uint64_t now = obs::now_ns();
  for (std::uint64_t vm = kLast - kLive + 1; vm <= kLast; ++vm) {
    const auto fraction = codec.decayed(dc.vm_sample(static_cast<VmId>(vm)), now);
    ASSERT_TRUE(fraction.has_value()) << "live vm " << vm;
    EXPECT_NEAR(*fraction, 0.5, 1e-3);
  }
  EXPECT_EQ(service.metrics_registry().counter("prvm_rebal_util_unknown_total").value(), 0u);
  dc.check_index_invariants();  // freed slots hold no sample

  ASSERT_TRUE(service.execute(place_request(1, 0)).ok);
  EXPECT_EQ(service.datacenter().vm_sample(1), 0u) << "a re-placed id starts without a sample";
}

TEST(UtilizationMapTest, MigrateKeepsTheSampleAndReleaseDropsIt) {
  const Catalog catalog = ec2_catalog();
  PlacementService service(catalog, mixed_pm_fleet(catalog, 4), tables_for(catalog), {});
  const UtilizationCodec& codec = service.utilization_codec();
  ASSERT_TRUE(service.execute(place_request(1, 0)).ok);
  ASSERT_TRUE(service.execute(place_request(2, 0)).ok);
  ASSERT_TRUE(service.execute(util_request(1, 0.7)).ok);
  const std::uint64_t sample = service.datacenter().vm_sample(1);
  ASSERT_NE(sample, 0u);

  const auto from = service.datacenter().pm_of(1);
  const Response moved = service.execute(vm_op(RequestOp::kMigrate, 1));
  ASSERT_TRUE(moved.ok) << moved.error << ": " << moved.message;
  EXPECT_NE(service.datacenter().pm_of(1), from);
  EXPECT_EQ(service.datacenter().vm_sample(1), sample) << "a migrated VM keeps its sample";
  EXPECT_NEAR(*codec.decayed(service.datacenter().vm_sample(1), obs::now_ns()), 0.7, 1e-3);
  EXPECT_EQ(service.datacenter().vm_sample(2), 0u) << "a neighbour gains nothing";

  ASSERT_TRUE(service.execute(vm_op(RequestOp::kRelease, 1)).ok);
  EXPECT_EQ(service.datacenter().vm_sample(1), 0u) << "a release drops the sample";
  service.datacenter().check_index_invariants();
}

// Samples are soft state: a ledger fed samples serializes, digests and logs
// exactly the bytes of one that never saw a sample.
TEST(UtilizationMapTest, SamplesLeaveSnapshotDigestAndWalBytesUnchanged) {
  const Catalog catalog = ec2_catalog();
  const auto tables = tables_for(catalog);
  TempDir fed_dir("util-fed");
  TempDir plain_dir("util-plain");
  const auto make = [&](const TempDir& dir) {
    ServiceConfig config;
    config.data_dir = dir.path();
    return std::make_unique<PlacementService>(catalog, mixed_pm_fleet(catalog, 6), tables,
                                              std::move(config));
  };
  auto fed = make(fed_dir);
  auto plain = make(plain_dir);
  for (std::uint64_t vm = 1; vm <= 30; ++vm) {
    const Request place = place_request(vm, vm % catalog.vm_types().size());
    ASSERT_EQ(fed->execute(place).ok, plain->execute(place).ok);
    ASSERT_TRUE(fed->execute(util_request(vm, 0.1 * static_cast<double>(vm % 10))).ok);
    Request pm_sample;
    pm_sample.op = RequestOp::kUtil;
    pm_sample.pm = vm % 6;
    pm_sample.cpu = 0.6;
    ASSERT_TRUE(fed->execute(pm_sample).ok);
    if (vm % 4 == 0) {
      const Request migrate = vm_op(RequestOp::kMigrate, vm - 1);
      ASSERT_EQ(fed->execute(migrate).ok, plain->execute(migrate).ok);
    }
    if (vm % 5 == 0) {
      const Request release = vm_op(RequestOp::kRelease, vm - 2);
      ASSERT_EQ(fed->execute(release).ok, plain->execute(release).ok);
    }
  }
  const Datacenter& a = fed->datacenter();
  const Datacenter& b = plain->datacenter();
  ASSERT_GT(a.vm_count(), 0u);
  std::size_t sampled = 0;
  for (const PmIndex pm : a.used_pms()) {
    for (const Datacenter::PlacedVm& placed : a.pm(pm).vms) sampled += placed.sample != 0;
  }
  ASSERT_GT(sampled, 0u) << "the fed ledger must actually hold samples";

  EXPECT_EQ(datacenter_state_digest(a), datacenter_state_digest(b));
  EXPECT_TRUE(datacenter_state_equal(a, b));
  EXPECT_EQ(serialize_snapshot(fed->state()), serialize_snapshot(plain->state()));
  const auto read_file = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string wal = read_file(fed_dir.path() / "wal.log");
  EXPECT_FALSE(wal.empty());
  EXPECT_EQ(wal, read_file(plain_dir.path() / "wal.log"));
}

// --- LoadView <-> CloudSimulation parity -----------------------------------

class SimParityTest : public ::testing::Test {
 protected:
  SimParityTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(SimParityTest, LoadViewMatchesReservedModelAndPoliciesAgreeOnVictims) {
  // Place a mixed population with the real engine, then give a ledger copy
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

  Datacenter dc = service.datacenter();
  const UtilizationCodec codec({}, 0);
  const std::uint64_t now = 100 * kMs;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    ASSERT_TRUE(dc.set_vm_sample(vms[i].id, codec.pack(fractions[i], now)));
  }
  const LoadView view(&dc, codec, now);

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
  Datacenter dc = service.datacenter();

  const UtilizationCodec codec({}, 0);
  const LoadView unfed(&dc, codec, 100 * kMs);
  const PmIndex pm = static_cast<PmIndex>(*placed.pm);
  EXPECT_EQ(unfed.vm_cpu_ghz(1), 0.0);
  EXPECT_EQ(unfed.pm_cpu_utilization(pm), 0.0);
  EXPECT_FALSE(unfed.has_signal(pm)) << "no samples: the planner must not act";

  // A direct per-PM sample is signal and raises (never lowers) the hottest
  // reading past anything the per-VM aggregate implies.
  dc.set_pm_sample(pm, codec.pack(1.2, 100 * kMs));
  const LoadView fed(&dc, codec, 100 * kMs);
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

  /// Feeds one PM-keyed sample through the util op, as a collector would.
  /// The sample is stamped with the service's clock, obs::now_ns().
  static void report_pm(PlacementService& service, std::uint64_t pm, double cpu) {
    Request sample;
    sample.op = RequestOp::kUtil;
    sample.pm = pm;
    sample.cpu = cpu;
    const Response response = service.submit(sample).get();
    ASSERT_TRUE(response.ok) << response.error << ": " << response.message;
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

  const auto hot = lookup_pm(*service, 1);
  ASSERT_TRUE(hot.has_value());
  for (PmIndex pm = 0; pm < 4; ++pm) report_pm(*service, pm, pm == *hot ? 1.3 : 0.3);
  const std::uint64_t now = obs::now_ns();

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
  for (PmIndex pm = 0; pm < 6; ++pm) report_pm(*service, pm, pm == cold ? 0.05 : 0.5);
  const std::uint64_t now = obs::now_ns();

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
  // The rounds' clock runs a minute past the samples' wall-clock stamps:
  // keep the samples fresh and undecayed over that span.
  config.rebalance.half_life_ms = 0;
  config.rebalance.stale_after_ms = 3'600'000;
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

  RebalancePlanner* planner = service->rebalancer();
  const auto hot = lookup_pm(*service, 1);
  ASSERT_TRUE(hot.has_value());
  const std::uint64_t other = *hot == 0 ? 1 : 0;

  report_pm(*service, *hot, 1.3);
  report_pm(*service, other, 0.3);
  const std::uint64_t t0 = obs::now_ns();
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
  report_pm(*service, *hot, 0.3);
  report_pm(*service, other, 1.3);
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
  report_pm(*service, *hot, 0.3);
  report_pm(*service, other, 1.3);
  EXPECT_GE(planner->run_round(t1), 1u) << "expired cooldowns release their VMs";
}

TEST_F(RebalancerServiceTest, PausedPlannerPlansNothing) {
  auto service = make_service(2);
  ASSERT_TRUE(service->execute(place_request(1, 0)).ok);
  service->start();
  const auto hot = lookup_pm(*service, 1);
  ASSERT_TRUE(hot.has_value());
  report_pm(*service, *hot, 1.3);
  const std::uint64_t now = obs::now_ns();

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
  const UtilizationCodec& codec = service->utilization_codec();
  const auto stored = codec.decayed(service->datacenter().vm_sample(9), obs::now_ns());
  ASSERT_TRUE(stored.has_value());
  EXPECT_NEAR(*stored, 0.75, 1e-3) << "negligible decay between ingest and read";

  Request unknown = sample;
  unknown.vm_id = 10;
  const Response unknown_ok = service->submit(unknown).get();
  EXPECT_TRUE(unknown_ok.ok) << "a sample for an unplaced VM is not an error";
  EXPECT_EQ(service->metrics_registry().counter("prvm_rebal_util_unknown_total").value(), 1u)
      << "a sample for a VM the ledger does not hold is counted and stored nowhere";

  Request pm_sample;
  pm_sample.op = RequestOp::kUtil;
  pm_sample.pm = 1;
  pm_sample.cpu = 0.4;
  EXPECT_TRUE(service->submit(pm_sample).get().ok);
  EXPECT_NEAR(*codec.decayed(service->datacenter().pm_sample(1), obs::now_ns()), 0.4, 1e-3);

  Request out_of_range;
  out_of_range.op = RequestOp::kUtil;
  out_of_range.pm = 99;
  out_of_range.cpu = 0.4;
  const Response rejected = service->submit(out_of_range).get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "bad_field");
  service->drain();
}

// A feed of ids the ledger never held, through both entry points: every
// sample is refused and counted, the ledger gains nothing, and the samples
// of live VMs are kept whatever else the feed carries.
TEST_F(RebalancerServiceTest, UnknownVmSamplesNeverFillTheTable) {
  auto service = make_service(2);
  constexpr std::uint64_t kFlood = 5000;
  constexpr std::uint64_t kLive = 6;
  for (std::uint64_t vm = 1; vm <= kLive; ++vm) {
    ASSERT_TRUE(service->execute(place_request(vm, 0)).ok);
  }
  ASSERT_TRUE(service->execute(util_request(1, 0.5)).ok);

  for (std::uint64_t i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(service->execute(util_request(1'000'000 + i, 0.5)).ok);
  }
  service->start();
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(service->submit(util_request(5'000'000 + i, 0.5)).get().ok);
  }
  for (std::uint64_t vm = 2; vm <= kLive; ++vm) {
    ASSERT_TRUE(service->submit(util_request(vm, 0.5)).get().ok);
  }
  service->drain();

  const Datacenter& dc = service->datacenter();
  const UtilizationCodec& codec = service->utilization_codec();
  const std::uint64_t now = obs::now_ns();
  for (std::uint64_t vm = 1; vm <= kLive; ++vm) {
    EXPECT_TRUE(codec.decayed(dc.vm_sample(static_cast<VmId>(vm)), now).has_value())
        << "live VM " << vm << " lost its sample";
  }
  EXPECT_EQ(dc.vm_count(), kLive);
  dc.check_index_invariants();
  const obs::Registry& reg = service->metrics_registry();
  EXPECT_EQ(reg.find_counter("prvm_rebal_util_unknown_total")->value(), 2 * kFlood);
  EXPECT_EQ(reg.find_counter("prvm_rebal_util_samples_total")->value(), 2 * kFlood + kLive);
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
