// Crash-recovery tests: WAL framing (incl. torn tails and corruption),
// snapshot round trips, and the differential oracle — a service driven
// through a random op mix, hard-stopped, and rebuilt from disk must match
// the pre-crash ledger bit-identically (activation sequences, bucket
// membership, free-list, anti-collocation groups and all).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "service/io_env.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/wal.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

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

WalRecord sample_record(std::uint64_t seq) {
  WalRecord record;
  record.type = seq % 3 == 0   ? WalRecord::Type::kPlace
                : seq % 3 == 1 ? WalRecord::Type::kRelease
                               : WalRecord::Type::kMigrate;
  record.op_seq = seq;
  record.vm = seq * 7;
  record.vm_type = seq % 5;
  record.pm = seq * 3;
  record.from_pm = seq;
  if (seq % 2 == 0) record.group = "group-" + std::to_string(seq % 4);
  for (int d = 0; d < static_cast<int>(seq % 4); ++d) {
    record.assignments.emplace_back(d, static_cast<int>(seq % 9) + 1);
  }
  return record;
}

TEST(ServiceWal, RoundTripsRecordsExactly) {
  TempDir dir("wal-roundtrip");
  const auto path = dir.path() / "wal.log";
  std::vector<WalRecord> written;
  {
    WalWriter writer(path);
    for (std::uint64_t seq = 1; seq <= 20; ++seq) {
      written.push_back(sample_record(seq));
      writer.append(written.back());
    }
    writer.flush();
  }
  bool torn = true;
  EXPECT_EQ(read_wal(path, &torn), written);
  EXPECT_FALSE(torn);

  // Appending to an existing log preserves earlier records.
  {
    WalWriter writer(path);
    written.push_back(sample_record(21));
    writer.append(written.back());
    writer.flush();
  }
  EXPECT_EQ(read_wal(path), written);
}

std::string to_hex_string(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex += digits[c >> 4];
    hex += digits[c & 0xF];
  }
  return hex;
}

TEST(ServiceWal, Crc32MatchesTheIeeeCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Every length around the 8-byte stride agrees with a bitwise reference.
  std::string data;
  for (int i = 0; i < 40; ++i) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const unsigned char c : data) {
      crc ^= c;
      for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    EXPECT_EQ(crc32(data.data(), data.size()), crc ^ 0xFFFFFFFFu) << "length " << i;
    data.push_back(static_cast<char>(i * 37 + 11));
  }
}

TEST(ServiceWal, FrameBytesArePinned) {
  // Recorded from the byte-at-a-time encoder: the WAL format must not move.
  WalRecord place;
  place.type = WalRecord::Type::kPlace;
  place.op_seq = 42;
  place.vm = 7;
  place.vm_type = 3;
  place.pm = 1234;
  place.group = "web-tier";
  place.assignments = {{0, 2}, {5, 1}, {-1, 300}};
  const std::string place_hex =
      "71000000223f69ea012a000000000000000700000000000000030000000000000"
      "0d204000000000000000000000000000008000000000000007765622d74696572"
      "0300000000000000000000000000000002000000000000000500000000000000"
      "0100000000000000ffffffffffffffff2c01000000000000";
  EXPECT_EQ(to_hex_string(encode_wal_frame(place)), place_hex);

  WalRecord migrate;
  migrate.type = WalRecord::Type::kMigrate;
  migrate.op_seq = 0xFFFFFFFFFFull;
  migrate.vm = 1ull << 40;
  migrate.vm_type = 1;
  migrate.pm = 9;
  migrate.from_pm = 8;
  EXPECT_EQ(to_hex_string(encode_wal_frame(migrate)),
            "390000007061dc9103ffffffffff0000000000000000010000010000000000000009"
            "00000000000000080000000000000000000000000000000000000000000000");

  // The writer buffers exactly those bytes, appended in place.
  TempDir dir("wal-pinned");
  const auto path = dir.path() / "wal.log";
  {
    WalWriter writer(path);
    EXPECT_EQ(writer.append(place), place_hex.size() / 2);
    writer.append(migrate);
    ASSERT_TRUE(writer.flush().ok());
  }
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, encode_wal_frame(place) + encode_wal_frame(migrate));
  std::string appended;
  EXPECT_EQ(append_wal_frame(place, appended), place_hex.size() / 2);
  EXPECT_EQ(appended, encode_wal_frame(place));
}

TEST(ServiceWal, TornTailIsDiscardedCleanly) {
  TempDir dir("wal-torn");
  const auto path = dir.path() / "wal.log";
  std::vector<WalRecord> written;
  {
    WalWriter writer(path);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      written.push_back(sample_record(seq));
      writer.append(written.back());
    }
    writer.flush();
  }
  // A kill -9 mid-write leaves a partial frame: simulate with half a record.
  const std::string next = encode_wal_record(sample_record(6));
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    const std::uint32_t len = static_cast<std::uint32_t>(next.size());
    os.write(reinterpret_cast<const char*>(&len), sizeof(len));
    os.write(next.data(), static_cast<std::streamsize>(next.size() / 2));
  }
  bool torn = false;
  EXPECT_EQ(read_wal(path, &torn), written);
  EXPECT_TRUE(torn);
}

TEST(ServiceWal, CorruptRecordStopsReplayBeforeIt) {
  TempDir dir("wal-corrupt");
  const auto path = dir.path() / "wal.log";
  std::vector<WalRecord> written;
  {
    WalWriter writer(path);
    for (std::uint64_t seq = 1; seq <= 8; ++seq) {
      written.push_back(sample_record(seq));
      writer.append(written.back());
    }
    writer.flush();
  }
  // Flip one payload byte of the last record: its CRC must reject it.
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(static_cast<std::streamoff>(size - 3));
    char byte = 0;
    fs.read(&byte, 1);
    fs.seekp(static_cast<std::streamoff>(size - 3));
    byte = static_cast<char>(byte ^ 0x5a);
    fs.write(&byte, 1);
  }
  bool torn = false;
  const auto records = read_wal(path, &torn);
  EXPECT_TRUE(torn);
  written.pop_back();
  EXPECT_EQ(records, written);
}

TEST(ServiceSnapshot, RoundTripsDatacenterAndAdmissionState) {
  const Catalog catalog = ec2_catalog();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 6));
  AdmissionController admission;
  Rng rng(0x5a5a);
  VmId next_vm = 1;
  for (int op = 0; op < 60; ++op) {
    const PmIndex pm = rng.uniform_index(dc.pm_count());
    const std::size_t type = rng.uniform_index(catalog.vm_types().size());
    const auto options = dc.placements(pm, type);
    if (options.empty()) continue;
    const VmId vm = next_vm++;
    dc.place(pm, Vm{vm, type}, options[rng.uniform_index(options.size())]);
    const std::string group = op % 3 == 0 ? "g" + std::to_string(op % 2) : "";
    admission.record_placement(vm, group, pm);
    if (op % 7 == 0) {
      dc.remove(vm);
      admission.record_release(vm, pm);
    }
  }

  TempDir dir("snapshot");
  const auto path = dir.path() / "snapshot.bin";
  save_snapshot(path, CellState{dc, admission, /*op_seq=*/123});

  const auto loaded = load_snapshot(path, catalog);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->op_seq, 123u);
  EXPECT_TRUE(datacenter_state_equal(dc, loaded->dc));
  EXPECT_TRUE(admission.state_equal(loaded->admission));
  EXPECT_EQ(datacenter_state_digest(dc), datacenter_state_digest(loaded->dc));
  loaded->dc.check_index_invariants();

  EXPECT_FALSE(load_snapshot(dir.path() / "absent.bin", catalog).has_value());
}

// The replay that can stand in for a twin ledger: the WAL of a live service,
// applied record by record to a fresh CellState over the same fleet, lands
// on the service's own state.
TEST(CellState, ApplyingTheWalReproducesTheLiveState) {
  const Catalog catalog = ec2_catalog();
  const std::vector<std::size_t> fleet = mixed_pm_fleet(catalog, 8);
  TempDir dir("cell-state-apply");
  ServiceConfig config;
  config.data_dir = dir.path();
  PlacementService service(catalog, fleet, tables_for(catalog), config);
  Rng rng(0xce11);
  std::vector<VmId> live;
  VmId next_vm = 1;
  for (int op = 0; op < 400; ++op) {
    const int dice = rng.uniform_int(0, 99);
    Request request;
    if (dice < 55 || live.empty()) {
      request.op = RequestOp::kPlace;
      request.vm_id = next_vm++;
      request.vm_type_index = rng.uniform_index(catalog.vm_types().size());
      if (rng.chance(0.4)) request.group = "g" + std::to_string(rng.uniform_int(0, 3));
      if (service.execute(request).ok) live.push_back(request.vm_id);
    } else if (dice < 80) {
      const std::size_t pick = rng.uniform_index(live.size());
      request.op = RequestOp::kRelease;
      request.vm_id = live[pick];
      ASSERT_TRUE(service.execute(request).ok);
      live[pick] = live.back();
      live.pop_back();
    } else {
      request.op = RequestOp::kMigrate;
      request.vm_id = live[rng.uniform_index(live.size())];
      service.execute(request);  // a failed migrate logs a degenerate one
    }
  }
  service.stop_now();
  const ServiceStats stats = service.stats();
  ASSERT_GT(stats.released, 0u);
  ASSERT_GT(stats.migrated, 0u);
  ASSERT_GT(service.state().admission.grouped_vm_count(), 0u);

  CellState replayed{Datacenter(catalog, fleet), {}, 0};
  for (const WalRecord& record : read_wal_ex(dir.path() / "wal.log").records) {
    replayed.apply(record);
  }
  const CellState& live_state = service.state();
  EXPECT_TRUE(datacenter_state_equal(replayed.dc, live_state.dc));
  EXPECT_TRUE(replayed.admission.state_equal(live_state.admission));
  EXPECT_EQ(replayed.op_seq, live_state.op_seq);
  EXPECT_EQ(serialize_snapshot(replayed), serialize_snapshot(live_state));
}

class ServiceRecoveryTest : public ::testing::Test {
 protected:
  ServiceRecoveryTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  std::unique_ptr<PlacementService> make_service(const std::filesystem::path& data_dir,
                                                 std::uint64_t snapshot_every) {
    ServiceConfig config;
    config.data_dir = data_dir;
    config.snapshot_every_ops = snapshot_every;
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 8), tables_,
                                              std::move(config));
  }

  /// Drives `ops` random place/release/migrate requests. With `via_queue`
  /// they go through submit() against a running worker (exercising the
  /// batch-boundary snapshot path); otherwise execute() runs them inline.
  void churn(PlacementService& service, Rng& rng, int ops, std::vector<VmId>& live,
             VmId& next_vm, bool via_queue = false) {
    const auto run = [&](const Request& request) {
      return via_queue ? service.submit(request).get() : service.execute(request);
    };
    for (int op = 0; op < ops; ++op) {
      const int dice = rng.uniform_int(0, 99);
      Request request;
      if (dice < 55 || live.empty()) {
        request.op = RequestOp::kPlace;
        request.vm_id = next_vm++;
        request.vm_type_index = rng.uniform_index(catalog_.vm_types().size());
        if (rng.chance(0.3)) request.group = "g" + std::to_string(rng.uniform_int(0, 2));
        if (run(request).ok) live.push_back(request.vm_id);
      } else if (dice < 85) {
        const std::size_t pick = rng.uniform_index(live.size());
        request.op = RequestOp::kRelease;
        request.vm_id = live[pick];
        ASSERT_TRUE(run(request).ok);
        live[pick] = live.back();
        live.pop_back();
      } else {
        request.op = RequestOp::kMigrate;
        request.vm_id = live[rng.uniform_index(live.size())];
        run(request);  // failed migrates also mutate state — on purpose
      }
    }
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(ServiceRecoveryTest, RecoversBitIdenticalStateAfterHardStop) {
  Rng rng(0xdeadbeef);
  // Several randomized crash/recover cycles, with and without snapshots in
  // the mix (snapshot_every=17 forces mid-run snapshot + WAL truncation, so
  // recovery exercises the snapshot/WAL overlap and op_seq gating too).
  for (const std::uint64_t snapshot_every : {0ull, 17ull}) {
    TempDir dir("recovery-" + std::to_string(snapshot_every));
    std::vector<VmId> live;
    VmId next_vm = 1;
    Rng churn_rng = rng.fork(snapshot_every);

    auto service = make_service(dir.path(), snapshot_every);
    service->start();  // snapshots happen on the worker's batch boundaries
    churn(*service, churn_rng, 150, live, next_vm, /*via_queue=*/true);
    // Hard stop: no drain, no final snapshot. The WAL alone (plus any
    // mid-run snapshot) must reconstruct everything acknowledged.
    service->stop_now();

    const std::uint64_t digest = datacenter_state_digest(service->datacenter());
    const ServiceStats pre = service->stats();
    const Datacenter& pre_dc = service->datacenter();

    auto recovered = make_service(dir.path(), snapshot_every);
    const ServiceStats post = recovered->stats();
    EXPECT_TRUE(post.recovered);
    EXPECT_EQ(post.op_seq, pre.op_seq);
    ASSERT_TRUE(datacenter_state_equal(pre_dc, recovered->datacenter()));
    EXPECT_TRUE(service->state().admission.state_equal(recovered->state().admission));
    EXPECT_EQ(datacenter_state_digest(recovered->datacenter()), digest);
    recovered->datacenter().check_index_invariants();

    // The recovered service keeps working — and a second crash/recover
    // cycle starting from recovered state is also exact.
    recovered->start();
    churn(*recovered, churn_rng, 100, live, next_vm, /*via_queue=*/true);
    recovered->stop_now();
    const std::uint64_t digest2 = datacenter_state_digest(recovered->datacenter());
    auto recovered2 = make_service(dir.path(), snapshot_every);
    ASSERT_TRUE(datacenter_state_equal(recovered->datacenter(), recovered2->datacenter()));
    EXPECT_EQ(datacenter_state_digest(recovered2->datacenter()), digest2);
  }
}

// A snapshot that exists but cannot be opened (here ELOOP, from a symlink
// to itself) is not "no snapshot": recovering from an empty ledger would
// replay only the post-snapshot WAL tail and lose every VM it holds. The
// load throws and the service refuses to start.
TEST_F(ServiceRecoveryTest, UnopenableSnapshotRefusesToStart) {
  TempDir dir("snapshot-loop");
  std::filesystem::create_symlink("snapshot.bin", dir.path() / "snapshot.bin");
  EXPECT_THROW(load_snapshot(dir.path() / "snapshot.bin", catalog_), std::exception);
  EXPECT_THROW(make_service(dir.path(), 0), std::exception);
}

// The admission block of a snapshot depends only on live state, so a
// service rebuilt from a periodic snapshot plus its WAL tail writes the very
// snapshot bytes of the live service at the same op_seq: after 10k grouped
// places, releases and migrates, with groups dying and coming back and sole
// members migrating (which frees and re-creates their group).
TEST_F(ServiceRecoveryTest, RecoveredServiceWritesTheLiveSnapshotBytes) {
  TempDir dir("canonical-bytes");
  ServiceConfig config;
  config.data_dir = dir.path();
  config.snapshot_every_ops = 997;
  const auto make = [&] {
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 64), tables_,
                                              config);
  };
  auto service = make();
  service->start();

  Rng rng(0x5ca1e);
  std::vector<VmId> live;
  std::unordered_map<VmId, std::string> group_of;    // acked group per live VM
  std::unordered_map<std::string, int> members;      // acked members per group
  std::size_t group_deaths = 0;
  std::size_t sole_member_migrates = 0;
  VmId next_vm = 1;
  for (int op = 0; op < 10000; ++op) {
    const int dice = rng.uniform_int(0, 99);
    Request request;
    if (dice < 45 || live.empty()) {
      request.op = RequestOp::kPlace;
      request.vm_id = next_vm++;
      request.vm_type_index = rng.uniform_index(catalog_.vm_types().size());
      if (rng.chance(0.7)) request.group = "g" + std::to_string(rng.uniform_int(0, 299));
      if (service->submit(request).get().ok) {
        live.push_back(static_cast<VmId>(request.vm_id));
        if (!request.group.empty()) {
          ++members[request.group];
          group_of[static_cast<VmId>(request.vm_id)] = request.group;
        }
      }
    } else if (dice < 85) {
      const std::size_t pick = rng.uniform_index(live.size());
      request.op = RequestOp::kRelease;
      request.vm_id = live[pick];
      ASSERT_TRUE(service->submit(request).get().ok);
      const auto it = group_of.find(live[pick]);
      if (it != group_of.end()) {
        group_deaths += --members[it->second] == 0;
        group_of.erase(it);
      }
      live[pick] = live.back();
      live.pop_back();
    } else {
      request.op = RequestOp::kMigrate;
      request.vm_id = live[rng.uniform_index(live.size())];
      const auto it = group_of.find(static_cast<VmId>(request.vm_id));
      if (service->submit(request).get().ok && it != group_of.end() &&
          members[it->second] == 1) {
        ++sole_member_migrates;
      }
    }
  }
  service->stop_now();
  EXPECT_GT(group_deaths, 500u);
  EXPECT_GT(sole_member_migrates, 50u);
  ASSERT_GT(service->stats().snapshots, 0u);
  ASSERT_GT(service->state().admission.group_count(), 0u);

  auto recovered = make();
  const ServiceStats stats = recovered->stats();
  EXPECT_GT(stats.replayed_records, 0u) << "recovery must replay a WAL tail past the snapshot";
  ASSERT_EQ(stats.op_seq, service->stats().op_seq);
  EXPECT_TRUE(service->state().admission.state_equal(recovered->state().admission));
  EXPECT_EQ(serialize_snapshot(recovered->state()), serialize_snapshot(service->state()));
}

TEST_F(ServiceRecoveryTest, DrainTruncatesWalAndRecoversFromSnapshotAlone) {
  TempDir dir("drain");
  std::vector<VmId> live;
  VmId next_vm = 1;
  Rng rng(0xcafe);

  auto service = make_service(dir.path(), 0);
  churn(*service, rng, 80, live, next_vm);
  const std::uint64_t digest = datacenter_state_digest(service->datacenter());
  service->drain();  // final snapshot + WAL truncate

  EXPECT_EQ(std::filesystem::file_size(dir.path() / "wal.log"), 0u);

  auto recovered = make_service(dir.path(), 0);
  const ServiceStats stats = recovered->stats();
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.replayed_records, 0u) << "drain leaves nothing to replay";
  EXPECT_EQ(datacenter_state_digest(recovered->datacenter()), digest);
  EXPECT_TRUE(datacenter_state_equal(service->datacenter(), recovered->datacenter()));
}

TEST_F(ServiceRecoveryTest, AckedOpsSurviveCrashUnderStorageFaults) {
  // Differential oracle under fault injection: churn through a service whose
  // storage intermittently fails (degrade -> probe -> recover cycles), hard
  // stop it, and rebuild from disk with a clean environment. Every
  // acknowledged mutation must be reflected; ops answered degraded_storage
  // were never acknowledged, so either final state is allowed for them.
  TempDir dir("faulty-crash");
  ServiceConfig config;
  config.data_dir = dir.path();
  config.snapshot_every_ops = 13;
  config.probe_initial_ms = 5;
  config.probe_max_ms = 40;
  config.io_env = std::make_shared<FaultInjectingIoEnv>(FaultSchedule::parse(
      "write:every=9:errno=EIO:count=4;rename:nth=2:errno=ENOSPC;seed=11"));
  auto service = std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 8),
                                                    tables_, config);
  service->start();

  Rng rng(0xfa17);
  std::vector<VmId> acked_live;       // place acked, no acked release since
  std::vector<VmId> acked_released;   // release acked
  std::unordered_set<VmId> limbo;     // some op on this vm went unacknowledged
  VmId next_vm = 1;
  for (int op = 0; op < 200; ++op) {
    Request request;
    const bool do_place = acked_live.empty() || rng.chance(0.6);
    if (do_place) {
      request.op = RequestOp::kPlace;
      request.vm_id = next_vm++;
      request.vm_type_index = rng.uniform_index(catalog_.vm_types().size());
    } else {
      const std::size_t pick = rng.uniform_index(acked_live.size());
      request.op = RequestOp::kRelease;
      request.vm_id = acked_live[pick];
      acked_live[pick] = acked_live.back();
      acked_live.pop_back();
    }
    const Response response = service->submit(request).get();
    if (response.ok) {
      if (do_place) acked_live.push_back(request.vm_id);
      else acked_released.push_back(request.vm_id);
    } else if (response.error == "degraded_storage") {
      limbo.insert(request.vm_id);
      // Pace the traffic so the probe loop gets a chance to recover.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else if (!do_place) {
      acked_live.push_back(request.vm_id);  // release refused; still placed
    }
  }
  service->stop_now();  // crash: no drain, no final snapshot

  config.io_env = nullptr;  // the disk is healthy again at next boot
  auto recovered = std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 8),
                                                      tables_, config);
  EXPECT_TRUE(recovered->stats().recovered);
  for (const VmId vm : acked_live) {
    if (limbo.contains(vm)) continue;
    EXPECT_TRUE(recovered->datacenter().pm_of(vm).has_value())
        << "acked placement of vm " << vm << " lost";
  }
  for (const VmId vm : acked_released) {
    if (limbo.contains(vm)) continue;
    EXPECT_FALSE(recovered->datacenter().pm_of(vm).has_value())
        << "acked release of vm " << vm << " lost";
  }
  recovered->datacenter().check_index_invariants();
}

TEST_F(ServiceRecoveryTest, TornWalTailIsSurvived) {
  TempDir dir("torn");
  std::vector<VmId> live;
  VmId next_vm = 1;
  Rng rng(0xbead);

  auto service = make_service(dir.path(), 0);
  churn(*service, rng, 60, live, next_vm);
  const std::uint64_t digest = datacenter_state_digest(service->datacenter());
  service.reset();

  // Simulate a crash mid-append: garbage half-frame at the log's tail.
  {
    std::ofstream os(dir.path() / "wal.log", std::ios::binary | std::ios::app);
    const char garbage[] = {42, 0, 0, 0, 7};
    os.write(garbage, sizeof(garbage));
  }

  auto recovered = make_service(dir.path(), 0);
  EXPECT_TRUE(recovered->stats().wal_torn_tail);
  EXPECT_EQ(datacenter_state_digest(recovered->datacenter()), digest)
      << "unacknowledged torn tail must not change recovered state";
}

// Recorded by recovering the same log with the group directory still in
// the service: the retired records never touched the ledger.
constexpr std::uint64_t kDigestWithRetiredRecords = 15263433111470248515ull;

// A log written while the cross-cell group directory existed holds its
// reserve (4), commit (5) and abort (6) records between placements. It still
// recovers, cleanly: each such record only advances op_seq.
TEST_F(ServiceRecoveryTest, WalWithRetiredGroupRecordsRecovers) {
  std::vector<WalRecord> places;
  std::uint64_t digest = 0;
  {
    TempDir live_dir("retired-live");
    auto live = make_service(live_dir.path(), 0);
    for (std::uint64_t vm = 1; vm <= 6; ++vm) {
      Request request;
      request.op = RequestOp::kPlace;
      request.vm_id = vm;
      request.vm_type_index = vm % catalog_.vm_types().size();
      if (vm % 2 == 0) request.group = "web";
      ASSERT_TRUE(live->execute(request).ok);
    }
    digest = datacenter_state_digest(live->datacenter());
    live.reset();
    places = read_wal(live_dir.path() / "wal.log");
  }
  ASSERT_EQ(places.size(), 6u);

  // One frame built by hand: u32 payload length, u32 CRC-32, then type,
  // op_seq, vm, vm_type, pm, from_pm, the group and no assignments.
  const auto retired_frame = [](char type, std::uint64_t op_seq, std::uint64_t pm,
                                std::uint64_t from_pm) {
    std::string payload(1, type);
    const auto put = [](std::string& out, std::uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
    };
    for (const std::uint64_t field : {op_seq, std::uint64_t{100}, std::uint64_t{0}, pm, from_pm,
                                      std::uint64_t{3}}) {
      put(payload, field, 8);
    }
    payload += "web";
    put(payload, 0, 8);
    std::string frame;
    put(frame, payload.size(), 4);
    put(frame, crc32(payload.data(), payload.size()), 4);
    return frame + payload;
  };
  std::string wal;
  std::uint64_t op_seq = 0;
  for (std::size_t i = 0; i < places.size(); ++i) {
    if (i == 3) {
      wal += retired_frame(4, ++op_seq, 0, /*deadline_ms=*/5000);  // reserve
      wal += retired_frame(5, ++op_seq, /*cell=*/1, 0);             // commit
      wal += retired_frame(6, ++op_seq, 0, 0);                      // abort
    }
    WalRecord record = places[i];
    record.op_seq = ++op_seq;
    wal += encode_wal_frame(record);
  }
  TempDir dir("retired");
  std::ofstream(dir.path() / "wal.log", std::ios::binary) << wal;

  auto recovered = make_service(dir.path(), 0);
  const ServiceStats stats = recovered->stats();
  EXPECT_TRUE(stats.recovered);
  EXPECT_FALSE(stats.wal_torn_tail);
  EXPECT_EQ(stats.replayed_records, 9u);
  EXPECT_EQ(stats.op_seq, 9u) << "op_seq must run past the retired records";
  EXPECT_EQ(datacenter_state_digest(recovered->datacenter()), digest);
  EXPECT_EQ(digest, kDigestWithRetiredRecords);
  recovered->datacenter().check_index_invariants();
}

}  // namespace
}  // namespace prvm
