// Placement pipeline (DESIGN.md §6): a cell whose WAL flush waits on fsync
// or on a follower runs the group-commit flusher, and every other cell
// flushes inline. The flusher path must be *indistinguishable* from the
// inline-flush worker — byte-identical WAL, bit-identical ledger, identical
// responses — and must preserve the ack-after-flush durability contract
// under injected storage faults and hard stops.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "service/io_env.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  // Default on-disk cache — shared across the per-test processes.
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

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

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

Request place_request(std::uint64_t vm, std::size_t type, std::string group = "") {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

class ServicePipelineTest : public ::testing::Test {
 protected:
  ServicePipelineTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  std::unique_ptr<PlacementService> make_service(ServiceConfig config) {
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 12), tables_,
                                              std::move(config));
  }

  /// A seeded churn trace (places with groups, releases, migrates). The
  /// feedback loop (which VMs are live) runs against a throwaway in-memory
  /// service, so the recorded request stream is a pure function of the seed
  /// and can be replayed verbatim against any number of services.
  std::vector<Request> make_trace(std::uint64_t seed, int ops) {
    auto shadow = make_service(ServiceConfig{});
    Rng rng(seed);
    std::vector<Request> trace;
    std::vector<VmId> live;
    VmId next_vm = 1;
    for (int op = 0; op < ops; ++op) {
      const int dice = rng.uniform_int(0, 99);
      Request request;
      if (dice < 60 || live.empty()) {
        request.op = RequestOp::kPlace;
        request.vm_id = next_vm++;
        request.vm_type_index = rng.uniform_index(catalog_.vm_types().size());
        if (rng.chance(0.25)) request.group = "g" + std::to_string(rng.uniform_int(0, 2));
      } else if (dice < 85) {
        const std::size_t pick = rng.uniform_index(live.size());
        request.op = RequestOp::kRelease;
        request.vm_id = live[pick];
      } else {
        request.op = RequestOp::kMigrate;
        request.vm_id = live[rng.uniform_index(live.size())];
      }
      if (shadow->execute(request).ok && request.op == RequestOp::kPlace) {
        live.push_back(request.vm_id);
      } else if (request.op == RequestOp::kRelease) {
        live.erase(std::find(live.begin(), live.end(), request.vm_id));
      }
      trace.push_back(std::move(request));
    }
    return trace;
  }

  /// Pre-enqueues the whole trace, then starts the worker, so batches run at
  /// full batch_size (several batches then share one flush group), then
  /// hard-stops — leaving the WAL bytes on disk.
  std::vector<Response> run_trace(PlacementService& service, const std::vector<Request>& trace) {
    std::vector<std::future<Response>> futures;
    futures.reserve(trace.size());
    for (const Request& request : trace) futures.push_back(service.submit(request));
    service.start();
    std::vector<Response> responses;
    responses.reserve(trace.size());
    for (auto& future : futures) responses.push_back(future.get());
    service.stop_now();
    return responses;
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(ServicePipelineTest, FlusherRunsOnlyWhenAFlushWaitsOnFsyncOrAFollower) {
  // The same placements through every deployment shape: only a cell with a
  // WAL whose flush waits on fsync or on a follower hands passes to the
  // flusher; the others flush inline and never count a flush group.
  TempDir dir("pipe-rule");
  const auto flush_groups = [&](const std::string& tag, bool data_dir, bool fsync,
                                bool replica) {
    ServiceConfig config;
    if (data_dir) {
      config.data_dir = dir.path() / tag;
      std::filesystem::create_directories(config.data_dir);
    }
    config.fsync_wal = fsync;
    // Nobody listens at the replica: replication is best effort
    // (ack_replicas 0), so the placements still succeed.
    if (replica) config.repl.replicas = {"unix:" + (dir.path() / "nobody.sock").string()};
    auto service = make_service(std::move(config));
    service->start();
    for (VmId vm = 1; vm <= 20; ++vm) {
      const Response response = service->submit(place_request(vm, 0)).get();
      EXPECT_TRUE(response.ok) << tag << ": " << response.error;
    }
    service->stop_now();
    return service->metrics_registry().find_counter("prvm_flush_groups_total")->value();
  };
  EXPECT_EQ(flush_groups("wal", true, false, false), 0u);
  EXPECT_EQ(flush_groups("ephemeral-fsync", false, true, false), 0u);
  EXPECT_GT(flush_groups("wal-fsync", true, true, false), 0u);
  EXPECT_GT(flush_groups("wal-replica", true, false, true), 0u);
}

TEST_F(ServicePipelineTest, GroupCommitIsByteIdenticalToSerialWorker) {
  for (const std::uint64_t seed : {0x5eedu, 0xacdcu, 0xf00du}) {
    const std::vector<Request> trace = make_trace(seed, 500);
    TempDir serial_dir("pipe-serial-" + std::to_string(seed));
    TempDir grouped_dir("pipe-grouped-" + std::to_string(seed));

    ServiceConfig serial;
    serial.data_dir = serial_dir.path();
    auto serial_service = make_service(std::move(serial));
    const std::vector<Response> serial_responses = run_trace(*serial_service, trace);

    ServiceConfig grouped;
    grouped.data_dir = grouped_dir.path();
    grouped.fsync_wal = true;  // selects the flusher
    auto grouped_service = make_service(std::move(grouped));
    const std::vector<Response> grouped_responses = run_trace(*grouped_service, trace);

    // Group commit must actually have engaged — otherwise this test proves
    // nothing.
    const obs::Registry& reg = grouped_service->metrics_registry();
    ASSERT_GT(reg.find_counter("prvm_flush_groups_total")->value(), 0u);

    // Identical responses, op for op.
    ASSERT_EQ(serial_responses.size(), grouped_responses.size());
    for (std::size_t i = 0; i < serial_responses.size(); ++i) {
      const Response& a = serial_responses[i];
      const Response& b = grouped_responses[i];
      EXPECT_EQ(a.ok, b.ok) << "op " << i;
      EXPECT_EQ(a.op, b.op) << "op " << i;
      EXPECT_EQ(a.vm, b.vm) << "op " << i;
      EXPECT_EQ(a.pm, b.pm) << "op " << i;
      EXPECT_EQ(a.error, b.error) << "op " << i;
      EXPECT_EQ(a.message, b.message) << "op " << i;
    }

    // Identical final ledger, admission state — and byte-identical WAL.
    EXPECT_TRUE(datacenter_state_equal(serial_service->datacenter(),
                                       grouped_service->datacenter()));
    EXPECT_TRUE(serial_service->state().admission.state_equal(grouped_service->state().admission));
    EXPECT_EQ(datacenter_state_digest(serial_service->datacenter()),
              datacenter_state_digest(grouped_service->datacenter()));
    const std::string serial_wal = read_file(serial_dir.path() / "wal.log");
    const std::string grouped_wal = read_file(grouped_dir.path() / "wal.log");
    ASSERT_FALSE(serial_wal.empty());
    EXPECT_EQ(serial_wal, grouped_wal) << "WAL bytes diverged at seed " << seed;

    // And both recover to the same state from their own disk.
    ServiceConfig recover_config;
    recover_config.data_dir = grouped_dir.path();
    auto recovered = make_service(std::move(recover_config));
    EXPECT_TRUE(recovered->stats().recovered);
    EXPECT_TRUE(
        datacenter_state_equal(serial_service->datacenter(), recovered->datacenter()));
  }
}

TEST_F(ServicePipelineTest, GroupFlushFailureDemotesThenRecoversDurably) {
  TempDir dir("pipe-fault");
  auto env = std::make_shared<FaultInjectingIoEnv>(
      FaultSchedule::parse("write:after=2:errno=ENOSPC:count=4"));
  ServiceConfig config;
  config.data_dir = dir.path();
  config.io_env = env;
  config.fsync_wal = true;  // selects the flusher
  config.probe_initial_ms = 5;
  config.probe_max_ms = 20;
  auto service = make_service(std::move(config));
  service->start();

  // Acked means the group flush covered it; demoted means it did not. Both
  // verdicts must be truthful across the crash boundary below.
  std::vector<VmId> acked;
  std::size_t demoted = 0;
  for (VmId vm = 1; vm <= 60; ++vm) {
    const Response response = service->submit(place_request(vm, 0)).get();
    if (response.ok) {
      acked.push_back(vm);
    } else if (response.error == "degraded_storage") {
      ASSERT_TRUE(response.retry_after_ms.has_value());
      ++demoted;
    } else {
      ASSERT_EQ(response.error, "no_capacity") << response.message;
    }
    if (service->degraded()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(demoted, 0u) << "the fault schedule must have bitten";

  // The worker observes the flusher's failure, degrades, probes, recovers.
  for (int waited = 0; service->degraded() && waited < 3000; waited += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(service->degraded());
  const Response late = service->submit(place_request(1000, 0)).get();
  ASSERT_TRUE(late.ok) << late.error << ": " << late.message;

  service->stop_now();  // kill -9 stand-in
  ServiceConfig recover_config;
  recover_config.data_dir = dir.path();
  auto recovered = make_service(std::move(recover_config));
  EXPECT_TRUE(recovered->stats().recovered);
  for (const VmId vm : acked) {
    EXPECT_TRUE(recovered->datacenter().pm_of(vm).has_value())
        << "acked vm " << vm << " lost across crash recovery";
  }
  EXPECT_TRUE(recovered->datacenter().pm_of(1000).has_value());
}

TEST_F(ServicePipelineTest, DrainFlushesThePipelineBeforeTheFinalSnapshot) {
  TempDir dir("pipe-drain");
  std::vector<VmId> acked;
  {
    ServiceConfig config;
    config.data_dir = dir.path();
    config.fsync_wal = true;  // selects the flusher
    auto service = make_service(std::move(config));
    std::vector<std::future<Response>> futures;
    for (VmId vm = 1; vm <= 100; ++vm) futures.push_back(service->submit(place_request(vm, 0)));
    service->start();
    for (VmId vm = 1; vm <= 100; ++vm) {
      if (futures[vm - 1].get().ok) acked.push_back(vm);
    }
    service->drain();
  }
  ASSERT_FALSE(acked.empty());
  ServiceConfig recover_config;
  recover_config.data_dir = dir.path();
  auto recovered = make_service(std::move(recover_config));
  EXPECT_TRUE(recovered->stats().recovered);
  for (const VmId vm : acked) {
    EXPECT_TRUE(recovered->datacenter().pm_of(vm).has_value());
  }
}

}  // namespace
}  // namespace prvm
