// Sharded-cell subsystem tests (DESIGN.md §7): the GroupDirectory state
// machine, cell topology hashing, group-op protocol frames, the Router over
// embedded cells (hash routing, capacity spillover, the cross-cell
// reserve/commit saga), the sharded-vs-single differential oracle, home-cell
// crash recovery mid-reserve, and the socket cell channel.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "cells/embedded.hpp"
#include "cells/group_directory.hpp"
#include "cells/topology.hpp"
#include "cluster/catalog.hpp"
#include "common/byte_writer.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "router/cell_channel.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/cell_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("prvm-cells-" + tag + "-" + std::to_string(::getpid()));
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

Request vm_request(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

/// The value of an `extra` member, or "" when absent.
std::string extra_of(const Response& response, const std::string& key) {
  for (const auto& [k, v] : response.extra) {
    if (k == key) return v;
  }
  return "";
}

// ---------------------------------------------------------------------------
// GroupDirectory state machine.

TEST(GroupDirectory, ReserveCommitAbortLifecycle) {
  GroupDirectory dir;
  EXPECT_EQ(dir.try_reserve("web", 7, /*now_ms=*/1000), RejectReason::kNone);
  dir.apply_reserve("web", 7, /*token=*/41, /*deadline_ms=*/6000);
  EXPECT_EQ(dir.member_count(), 1u);
  EXPECT_EQ(dir.pending_count(), 1u);

  // A live (unexpired) reservation blocks a second reserve of the same vm.
  EXPECT_EQ(dir.try_reserve("web", 7, 2000), RejectReason::kDuplicateVm);
  // Other vms and other groups are unaffected.
  EXPECT_EQ(dir.try_reserve("web", 8, 2000), RejectReason::kNone);
  EXPECT_EQ(dir.try_reserve("db", 7, 2000), RejectReason::kNone);

  EXPECT_EQ(dir.try_commit("web", 7, /*cell=*/2), RejectReason::kNone);
  dir.apply_commit("web", 7, 2);
  const GroupDirectory::Member* member = dir.member("web", 7);
  ASSERT_NE(member, nullptr);
  EXPECT_EQ(member->state, GroupDirectory::MemberState::kCommitted);
  EXPECT_EQ(member->cell, 2u);
  EXPECT_EQ(dir.pending_count(), 0u);

  // Commit is idempotent for the same cell; a different cell is the
  // double-placement a crashed saga could produce.
  EXPECT_EQ(dir.try_commit("web", 7, 2), RejectReason::kNone);
  EXPECT_EQ(dir.try_commit("web", 7, 3), RejectReason::kDuplicateVm);
  // A committed member also blocks re-reserve regardless of deadline.
  EXPECT_EQ(dir.try_reserve("web", 7, 999999), RejectReason::kDuplicateVm);

  dir.apply_abort("web", 7);
  EXPECT_EQ(dir.member("web", 7), nullptr);
  EXPECT_EQ(dir.try_reserve("web", 7, 999999), RejectReason::kNone);
  dir.apply_abort("web", 7);  // aborting an absent member is a no-op
  EXPECT_EQ(dir.member_count(), 0u);
}

TEST(GroupDirectory, ExpiryIsLazyAndPure) {
  GroupDirectory dir;
  dir.apply_reserve("g", 1, 10, /*deadline_ms=*/500);
  // Before the deadline the reservation holds; after, try_reserve treats it
  // as absent — but the entry itself is NOT dropped (replay determinism).
  EXPECT_EQ(dir.try_reserve("g", 1, 499), RejectReason::kDuplicateVm);
  EXPECT_EQ(dir.try_reserve("g", 1, 501), RejectReason::kNone);
  ASSERT_NE(dir.member("g", 1), nullptr) << "expiry must not mutate the directory";
  EXPECT_EQ(dir.pending_count(), 1u);

  // A fresh reserve overwrites the expired one (new token, new deadline).
  dir.apply_reserve("g", 1, 11, 9000);
  EXPECT_EQ(dir.member("g", 1)->token, 11u);
  EXPECT_EQ(dir.try_reserve("g", 1, 501), RejectReason::kDuplicateVm);
}

TEST(GroupDirectory, SerializeRoundTripsAllStates) {
  GroupDirectory dir;
  dir.apply_reserve("web", 1, 5, 1000);
  dir.apply_commit("web", 2, 3);
  dir.apply_reserve("db", 9, 6, 2000);
  dir.apply_commit("db", 9, 1);  // pending -> committed

  std::string bytes;
  ByteWriter out(bytes);
  dir.serialize(out);
  std::istringstream stream(bytes);
  const GroupDirectory loaded = GroupDirectory::deserialize(stream);
  EXPECT_TRUE(dir.state_equal(loaded));
  EXPECT_EQ(loaded.member_count(), 3u);
  EXPECT_EQ(loaded.pending_count(), 1u);
  ASSERT_NE(loaded.member("web", 1), nullptr);
  EXPECT_EQ(loaded.member("web", 1)->deadline_ms, 1000u);
  ASSERT_NE(loaded.member("db", 9), nullptr);
  EXPECT_EQ(loaded.member("db", 9)->cell, 1u);

  // Empty directory round-trips too (the common snapshot case).
  std::string empty_bytes;
  ByteWriter empty_out(empty_bytes);
  GroupDirectory{}.serialize(empty_out);
  std::istringstream empty(empty_bytes);
  EXPECT_TRUE(GroupDirectory::deserialize(empty).state_equal(GroupDirectory{}));
  EXPECT_FALSE(loaded.state_equal(GroupDirectory{}));
}

// ---------------------------------------------------------------------------
// Topology.

TEST(CellTopology, HashingIsStableInRangeAndRoughlyUniform) {
  for (const std::size_t cells : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    std::vector<std::size_t> load(cells, 0);
    for (std::uint64_t vm = 0; vm < 4000; ++vm) {
      const std::size_t cell = cell_of_vm(vm, cells);
      ASSERT_LT(cell, cells);
      EXPECT_EQ(cell, cell_of_vm(vm, cells)) << "routing must be deterministic";
      ++load[cell];
    }
    for (const std::size_t count : load) {
      // Dense sequential vm ids must spread ~evenly (the mix64 finalizer's
      // whole job); allow a generous ±50% band around the mean.
      EXPECT_GT(count, 4000 / cells / 2) << cells << " cells";
      EXPECT_LT(count, 4000 / cells * 3 / 2) << cells << " cells";
    }
  }
  EXPECT_EQ(cell_of_group("web", 4), cell_of_group("web", 4));
  EXPECT_LT(cell_of_group("anything", 3), 3u);
  EXPECT_EQ(cell_of_vm(12345, 1), 0u);
}

TEST(CellTopology, SplitFleetIsARoundRobinPermutationPreservingMix) {
  const std::vector<std::size_t> fleet = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
  const auto slices = split_fleet(fleet, 3);
  ASSERT_EQ(slices.size(), 3u);
  std::vector<std::size_t> rejoined;
  for (const auto& slice : slices) {
    // Round-robin keeps slice sizes within one PM of even.
    EXPECT_GE(slice.size(), fleet.size() / 3);
    EXPECT_LE(slice.size(), fleet.size() / 3 + 1);
    rejoined.insert(rejoined.end(), slice.begin(), slice.end());
  }
  std::multiset<std::size_t> a(fleet.begin(), fleet.end());
  std::multiset<std::size_t> b(rejoined.begin(), rejoined.end());
  EXPECT_EQ(a, b) << "the slices must be a permutation of the fleet";
  // Each slice keeps both PM types (the alternating mix survives the split).
  for (const auto& slice : slices) {
    EXPECT_NE(std::count(slice.begin(), slice.end(), 0), 0);
    EXPECT_NE(std::count(slice.begin(), slice.end(), 1), 0);
  }
}

// ---------------------------------------------------------------------------
// Protocol: group ops and request round-trips.

TEST(CellProtocol, ParsesGroupOps) {
  const auto reserve = parse_request(R"({"op":"gres","group":"web","vm":7})");
  const Request* request = std::get_if<Request>(&reserve);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->op, RequestOp::kGroupReserve);
  EXPECT_EQ(request->group, "web");
  EXPECT_EQ(request->vm_id, 7u);

  const auto commit = parse_request(R"({"op":"gcommit","group":"web","vm":7,"cell":2})");
  const Request* creq = std::get_if<Request>(&commit);
  ASSERT_NE(creq, nullptr);
  EXPECT_EQ(creq->op, RequestOp::kGroupCommit);
  ASSERT_TRUE(creq->cell.has_value());
  EXPECT_EQ(*creq->cell, 2u);

  const auto abort_parsed = parse_request(R"({"op":"gabort","group":"web","vm":7})");
  ASSERT_NE(std::get_if<Request>(&abort_parsed), nullptr);
  EXPECT_EQ(std::get_if<Request>(&abort_parsed)->op, RequestOp::kGroupAbort);

  // A group op without its group is a structured error, not a default.
  const auto missing = parse_request(R"({"op":"gres","vm":7})");
  const ProtocolError* error = std::get_if<ProtocolError>(&missing);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "missing_field");
}

TEST(CellProtocol, EncodeRequestRoundTripsEveryOp) {
  std::vector<Request> requests;
  requests.push_back(place_request(7, 2, "web"));
  requests.push_back(place_request(8, 0));
  requests.push_back(vm_request(RequestOp::kRelease, 3));
  requests.push_back(vm_request(RequestOp::kMigrate, 4));
  requests.push_back(vm_request(RequestOp::kLookup, 5));
  for (const RequestOp op :
       {RequestOp::kStats, RequestOp::kHealth, RequestOp::kMetrics, RequestOp::kDrain}) {
    Request request;
    request.op = op;
    requests.push_back(request);
  }
  {
    Request request;
    request.op = RequestOp::kGroupReserve;
    request.vm_id = 9;
    request.group = "g \"quoted\"";
    requests.push_back(request);
    request.op = RequestOp::kGroupCommit;
    request.cell = 3;
    requests.push_back(request);
    request.op = RequestOp::kGroupAbort;
    request.cell.reset();
    requests.push_back(request);
  }
  // Type-by-name survives too (the router forwards requests it never built).
  Request by_name;
  by_name.op = RequestOp::kPlace;
  by_name.vm_id = 11;
  by_name.vm_type_name = "m3.xlarge";
  requests.push_back(by_name);
  // Replication payloads are raw bytes: JSON must carry every byte value.
  const std::string raw_bytes{'\x00', '\n', '"', '\\', '\x80', '\xFF', 'z'};
  {
    Request snap;
    snap.op = RequestOp::kReplSnapshot;
    snap.seq = 42;
    snap.offset = 128;
    snap.eof = true;
    snap.data = raw_bytes;
    requests.push_back(snap);
    Request frames;
    frames.op = RequestOp::kReplFrames;
    frames.seq = 43;
    frames.data = raw_bytes;
    requests.push_back(frames);
  }

  for (const Request& request : requests) {
    const std::string line = encode_request(request);
    ASSERT_EQ(line.back(), '\n');
    const auto parsed = parse_request(std::string_view(line).substr(0, line.size() - 1));
    const Request* round = std::get_if<Request>(&parsed);
    ASSERT_NE(round, nullptr) << line;
    EXPECT_EQ(round->op, request.op) << line;
    EXPECT_EQ(round->vm_id, request.vm_id) << line;
    EXPECT_EQ(round->vm_type_index, request.vm_type_index) << line;
    EXPECT_EQ(round->vm_type_name, request.vm_type_name) << line;
    EXPECT_EQ(round->group, request.group) << line;
    EXPECT_EQ(round->cell, request.cell) << line;
    EXPECT_EQ(round->seq, request.seq) << line;
    EXPECT_EQ(round->offset, request.offset) << line;
    EXPECT_EQ(round->eof, request.eof) << line;
    EXPECT_EQ(round->data, request.data) << line;
  }
}

// ---------------------------------------------------------------------------
// Router over embedded cells.

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  /// N started cells over `fleet` PMs, no data dirs (ephemeral).
  std::unique_ptr<EmbeddedCells> make_cells(std::size_t cells, std::size_t fleet,
                                            const std::filesystem::path& data_dir = {}) {
    EmbeddedCellsConfig config;
    config.cells = cells;
    config.data_dir = data_dir;
    auto embedded = std::make_unique<EmbeddedCells>(
        catalog_, mixed_pm_fleet(catalog_, fleet), tables_, config);
    embedded->start();
    return embedded;
  }

  Response call(Router& router, Request request) {
    return router.submit(std::move(request)).get();
  }

  std::uint64_t counter(const Router& router, const char* name) {
    const obs::Counter* c = router.metrics_registry().find_counter(name);
    return c != nullptr ? c->value() : 0;
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(RouterTest, RoutesVmOpsAndMergesFanouts) {
  auto embedded = make_cells(2, 8);
  Router router(embedded->sinks());

  // Place a handful of VMs; each response reports its owning cell and the
  // router must route every follow-up op for that vm to the same cell.
  for (std::uint64_t vm = 1; vm <= 10; ++vm) {
    const Response placed = call(router, place_request(vm, vm % 2));
    ASSERT_TRUE(placed.ok) << placed.error;
    const std::string cell = extra_of(placed, "cell");
    ASSERT_FALSE(cell.empty());
    EXPECT_EQ(cell, std::to_string(*router.cell_of(vm)));

    const Response looked = call(router, vm_request(RequestOp::kLookup, vm));
    ASSERT_TRUE(looked.ok);
    EXPECT_EQ(looked.pm, placed.pm) << "lookup must hit the owning cell";
  }
  // Ops for unknown vms stay structured.
  EXPECT_EQ(call(router, vm_request(RequestOp::kRelease, 999)).error, "unknown_vm");
  EXPECT_EQ(call(router, vm_request(RequestOp::kLookup, 999)).error, "unknown_vm");

  // Migrate keeps the vm known; release forgets it.
  const Response migrated = call(router, vm_request(RequestOp::kMigrate, 1));
  ASSERT_TRUE(migrated.ok) << migrated.error;
  ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, 1)).ok);
  EXPECT_EQ(call(router, vm_request(RequestOp::kLookup, 1)).error, "unknown_vm");
  EXPECT_FALSE(router.cell_of(1).has_value());

  // stats fans out to every cell and sums the counters.
  const Response stats = call(router, Request{});
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(extra_of(stats, "cells"), "2");
  EXPECT_EQ(extra_of(stats, "placed"), "10");
  EXPECT_EQ(extra_of(stats, "released"), "1");
  EXPECT_EQ(extra_of(stats, "migrated"), "1");
  EXPECT_EQ(extra_of(stats, "vm_count"), "9");

  // health merges to the worst mode and reports the router role.
  Request health;
  health.op = RequestOp::kHealth;
  const Response merged = call(router, health);
  ASSERT_TRUE(merged.ok);
  EXPECT_EQ(extra_of(merged, "mode"), "\"ok\"");
  EXPECT_EQ(extra_of(merged, "role"), "\"router\"");
  EXPECT_EQ(extra_of(merged, "cells"), "2");
  EXPECT_EQ(extra_of(merged, "cells_unreachable"), "0");

  EXPECT_GE(counter(router, "prvm_router_requests_total"), 16u);
  EXPECT_GE(counter(router, "prvm_router_fanout_requests_total"), 2u);
  embedded->stop_now();
}

TEST_F(RouterTest, SpillsOverWhenTheHomeCellIsFullAndRejectsWhenAllAre) {
  // Two cells of ONE PM each: the smallest sharded deployment where the
  // hash target can be full while the fleet still has room.
  auto embedded = make_cells(2, 2);
  Router router(embedded->sinks());

  // Keep placing vms that all hash to cell 0. Cell 0 must fill first, after
  // which every placement can only succeed by spilling to cell 1; when both
  // are full the reject is the ordinary structured no_capacity.
  std::uint64_t vm = 0;
  bool spilled = false;
  std::size_t accepted = 0;
  std::string final_error;
  while (final_error.empty() && vm < 100000) {
    ++vm;
    if (cell_of_vm(vm, 2) != 0) continue;
    const Response response = call(router, place_request(vm, 0));
    if (response.ok) {
      ++accepted;
      if (extra_of(response, "cell") == "1") spilled = true;
    } else {
      final_error = response.error;
    }
  }
  EXPECT_TRUE(spilled) << "placements must spill to the non-home cell";
  EXPECT_EQ(final_error, "no_capacity");
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(counter(router, "prvm_router_spillover_total"), 1u);

  // Both cells really are in use: the merged stats see two used PMs.
  const Response stats = call(router, Request{});
  EXPECT_EQ(extra_of(stats, "used_pms"), "2");
  embedded->stop_now();
}

TEST_F(RouterTest, GroupedSagaSpansCellsWithoutDoublePlacement) {
  auto embedded = make_cells(2, 12);
  Router router(embedded->sinks());

  // Four members of one anti-collocation group; the reserve/commit saga must
  // land each on a globally distinct (cell, pm) pair.
  std::set<std::pair<std::string, std::uint64_t>> sites;
  for (std::uint64_t vm = 1; vm <= 4; ++vm) {
    const Response placed = call(router, place_request(vm, 0, "web"));
    ASSERT_TRUE(placed.ok) << placed.error << ": " << placed.message;
    ASSERT_TRUE(placed.pm.has_value());
    EXPECT_TRUE(sites.emplace(extra_of(placed, "cell"), *placed.pm).second)
        << "group members must never share a PM";
  }

  // A duplicate member is vetoed by the home cell's directory, not placed.
  EXPECT_EQ(call(router, place_request(2, 0, "web")).error, "duplicate_vm");

  // The home cell holds all four committed memberships and no pendings
  // (every gcommit landed).
  PlacementService& home = embedded->cell(cell_of_group("web", 2));
  EXPECT_EQ(home.group_directory().member_count(), 4u);
  EXPECT_EQ(home.group_directory().pending_count(), 0u);

  // Releasing a member aborts its membership at the home cell, making the
  // vm id placeable in the group again.
  ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, 2)).ok);
  EXPECT_EQ(home.group_directory().member_count(), 3u);
  const Response replaced = call(router, place_request(2, 0, "web"));
  ASSERT_TRUE(replaced.ok) << replaced.error;
  EXPECT_EQ(home.group_directory().member_count(), 4u);

  EXPECT_GE(counter(router, "prvm_router_group_reserves_total"), 5u);
  EXPECT_GE(counter(router, "prvm_router_group_commits_total"), 5u);
  EXPECT_GE(counter(router, "prvm_router_group_aborts_total"), 1u);
  embedded->stop_now();
}

// ---------------------------------------------------------------------------
// Sharded vs single-cell differential.

TEST_F(RouterTest, ShardedMatchesSingleCellOnRandomSpanningGroupSequences) {
  // With capacity to spare, a sharded deployment must accept and reject
  // EXACTLY the same requests as one big cell: the only rejects left are
  // duplicate_vm / unknown_vm / group vetoes, all capacity-independent.
  // Placements (which pm) legitimately differ — the fleets differ.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ServiceConfig single_config;
    PlacementService single(catalog_, mixed_pm_fleet(catalog_, 40), tables_,
                            single_config);
    single.start();
    auto embedded = make_cells(3, 40);
    Router router(embedded->sinks());

    Rng rng(seed);
    const std::vector<std::string> groups = {"", "", "web", "db", "cache"};
    std::vector<std::uint64_t> live;
    std::uint64_t next_vm = 1;
    for (int op = 0; op < 250; ++op) {
      Request request;
      const std::size_t dice = rng.uniform_index(10);
      if (dice < 6 || live.empty()) {
        const bool duplicate = !live.empty() && rng.chance(0.1);
        const std::uint64_t vm =
            duplicate ? live[rng.uniform_index(live.size())] : next_vm++;
        request = place_request(vm, rng.uniform_index(catalog_.vm_types().size()),
                                groups[rng.uniform_index(groups.size())]);
      } else if (dice < 8) {
        const std::size_t pick = rng.uniform_index(live.size());
        request = vm_request(RequestOp::kRelease, live[pick]);
      } else {
        request = vm_request(RequestOp::kMigrate, live[rng.uniform_index(live.size())]);
      }

      const Response expected = single.execute(request);
      const Response actual = router.submit(request).get();
      ASSERT_EQ(actual.ok, expected.ok)
          << "seed " << seed << " op " << op << " " << to_string(request.op) << " vm "
          << request.vm_id << " group '" << request.group << "': single says '"
          << expected.error << "', sharded says '" << actual.error << "' ("
          << actual.message << ")";
      EXPECT_EQ(actual.error, expected.error) << "seed " << seed << " op " << op;
      ASSERT_NE(expected.error, "no_capacity")
          << "fleet too small for the oracle to be exact; grow it";

      if (request.op == RequestOp::kPlace && expected.ok) {
        live.push_back(request.vm_id);
      } else if (request.op == RequestOp::kRelease && expected.ok) {
        live.erase(std::find(live.begin(), live.end(), request.vm_id));
      }
    }
    // Both deployments end with the same live population.
    const Response single_stats = single.execute(Request{});
    const Response sharded_stats = router.submit(Request{}).get();
    EXPECT_EQ(extra_of(sharded_stats, "vm_count"), extra_of(single_stats, "vm_count"))
        << "seed " << seed;
    EXPECT_EQ(extra_of(sharded_stats, "placed"), extra_of(single_stats, "placed"));
    EXPECT_EQ(extra_of(sharded_stats, "rejected"), extra_of(single_stats, "rejected"));
    embedded->stop_now();
    single.stop_now();
  }
}

// ---------------------------------------------------------------------------
// Crash recovery.

TEST_F(RouterTest, HomeCellCrashMidReserveRecoversThePendingReservation) {
  TempDir dir("midreserve");
  ServiceConfig config;
  config.data_dir = dir.path();
  config.cell_id = 0;

  GroupDirectory pre_crash;
  {
    PlacementService cell(catalog_, mixed_pm_fleet(catalog_, 4), tables_, config);
    Request reserve;
    reserve.op = RequestOp::kGroupReserve;
    reserve.group = "web";
    reserve.vm_id = 7;
    ASSERT_TRUE(cell.execute(reserve).ok);
    // Commit a second member fully, so recovery must reproduce BOTH states.
    reserve.vm_id = 8;
    ASSERT_TRUE(cell.execute(reserve).ok);
    Request commit;
    commit.op = RequestOp::kGroupCommit;
    commit.group = "web";
    commit.vm_id = 8;
    commit.cell = 1;
    ASSERT_TRUE(cell.execute(commit).ok);
    pre_crash = cell.group_directory();
    cell.stop_now();  // SIGKILL-equivalent: no drain, no snapshot
  }

  PlacementService recovered(catalog_, mixed_pm_fleet(catalog_, 4), tables_, config);
  EXPECT_TRUE(recovered.stats().recovered);
  EXPECT_TRUE(recovered.group_directory().state_equal(pre_crash))
      << "WAL replay must reproduce the directory bit-identically";
  EXPECT_EQ(recovered.group_directory().pending_count(), 1u);

  // The recovered reservation still vetoes a duplicate, and the saga can
  // complete against the recovered cell.
  Request reserve;
  reserve.op = RequestOp::kGroupReserve;
  reserve.group = "web";
  reserve.vm_id = 7;
  EXPECT_EQ(recovered.execute(reserve).error, "duplicate_vm");
  Request commit;
  commit.op = RequestOp::kGroupCommit;
  commit.group = "web";
  commit.vm_id = 7;
  commit.cell = 0;
  EXPECT_TRUE(recovered.execute(commit).ok);
  EXPECT_EQ(recovered.group_directory().pending_count(), 0u);
  recovered.stop_now();
}

TEST_F(RouterTest, AllCellsRecoverToThePreCrashStateAfterHardStop) {
  TempDir dir("cellcrash");
  std::vector<std::uint64_t> digests;
  std::vector<GroupDirectory> directories;
  {
    auto embedded = make_cells(2, 12, dir.path());
    Router router(embedded->sinks());
    for (std::uint64_t vm = 1; vm <= 12; ++vm) {
      const std::string group = vm % 3 == 0 ? "web" : (vm % 3 == 1 ? "" : "db");
      ASSERT_TRUE(call(router, place_request(vm, vm % 2, group)).ok);
    }
    ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, 3)).ok);
    for (std::size_t k = 0; k < embedded->size(); ++k) {
      digests.push_back(datacenter_state_digest(embedded->cell(k).datacenter()));
      directories.push_back(embedded->cell(k).group_directory());
    }
    embedded->stop_now();  // every cell dies with a dirty WAL
  }
  {
    auto embedded = make_cells(2, 12, dir.path());
    for (std::size_t k = 0; k < embedded->size(); ++k) {
      EXPECT_TRUE(embedded->cell(k).stats().recovered) << "cell " << k;
      EXPECT_EQ(datacenter_state_digest(embedded->cell(k).datacenter()), digests[k])
          << "cell " << k;
      EXPECT_TRUE(embedded->cell(k).group_directory().state_equal(directories[k]))
          << "cell " << k;
    }
    // The recovered deployment keeps serving: routing state rebuilt from
    // scratch, the fleet still accepts placements.
    Router router(embedded->sinks());
    EXPECT_TRUE(call(router, place_request(100, 0)).ok);
    embedded->stop_now();
  }
}

// ---------------------------------------------------------------------------
// Router vm-map persistence (--map-file).

TEST_F(RouterTest, VmMapRoundTripsThroughItsFile) {
  TempDir dir("vmmap");
  const std::filesystem::path path = dir.path() / "vm.map";
  auto embedded = make_cells(2, 8);
  Router router(embedded->sinks());
  for (std::uint64_t vm = 1; vm <= 6; ++vm) {
    ASSERT_TRUE(call(router, place_request(vm, vm % 2, vm % 3 == 0 ? "web" : "")).ok);
  }
  ASSERT_TRUE(router.save_vm_map(path));

  // A restarted router serves the saved VMs without re-placing them.
  Router restarted(embedded->sinks());
  ASSERT_TRUE(restarted.load_vm_map(path));
  EXPECT_EQ(restarted.vm_map_size(), 6u);
  for (std::uint64_t vm = 1; vm <= 6; ++vm) {
    ASSERT_TRUE(restarted.cell_of(vm).has_value()) << "vm " << vm;
    EXPECT_EQ(restarted.cell_of(vm), router.cell_of(vm)) << "vm " << vm;
  }
  EXPECT_TRUE(call(restarted, vm_request(RequestOp::kLookup, 3)).ok);
  EXPECT_TRUE(call(restarted, vm_request(RequestOp::kRelease, 3)).ok);
  embedded->stop_now();
}

TEST_F(RouterTest, VmMapLoadRejectsDamagedFilesAndDropsUnknownCells) {
  TempDir dir("vmmap-damaged");
  auto embedded = make_cells(2, 8);
  const auto load = [&](const std::string& bytes, Router& router) {
    const std::filesystem::path path = dir.path() / "vm.map";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return router.load_vm_map(path);
  };
  {
    // A damaged count is not trusted to size the map.
    Router router(embedded->sinks());
    EXPECT_FALSE(load("PRVMMAP1 1125899906842624\n", router));
    EXPECT_FALSE(load("PRVMMAP1 1125899906842624\n1 0 \n2 1 web\n", router));
    EXPECT_EQ(router.vm_map_size(), 0u);
  }
  {
    // A body shorter than its count.
    Router router(embedded->sinks());
    EXPECT_FALSE(load("PRVMMAP1 3\n1 0 \n2 1 web\n", router));
    EXPECT_EQ(router.vm_map_size(), 0u);
    EXPECT_FALSE(load("PRVMMAP2 0\n", router));
    EXPECT_FALSE(router.load_vm_map(dir.path() / "missing.map"));
  }
  {
    // A cell index past this router's two cells: the entry is dropped, the
    // rest load.
    Router router(embedded->sinks());
    EXPECT_TRUE(load("PRVMMAP1 3\n1 0 \n2 5 web\n3 1 db\n", router));
    EXPECT_EQ(router.vm_map_size(), 2u);
    EXPECT_EQ(router.cell_of(1), std::optional<std::size_t>(0));
    EXPECT_FALSE(router.cell_of(2).has_value());
    EXPECT_EQ(router.cell_of(3), std::optional<std::size_t>(1));
  }
  embedded->stop_now();
}

// ---------------------------------------------------------------------------
// Socket cell channel.

TEST_F(RouterTest, SocketChannelRoundTripsAndFailsFastWhenTheCellDies) {
  TempDir dir("channel");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  ServiceConfig config;
  config.cell_id = 3;
  PlacementService cell(catalog_, mixed_pm_fleet(catalog_, 4), tables_, config);
  cell.start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(cell, socket_config);
  server.start();

  auto channel = std::make_unique<SocketCellChannel>("unix:" + socket_path);
  ASSERT_TRUE(channel->connected());
  const Response placed = channel->submit(place_request(1, 0)).get();
  ASSERT_TRUE(placed.ok) << placed.error;
  EXPECT_EQ(placed.vm, 1u);

  // Pipelined requests come back in order with extras intact.
  auto f1 = channel->submit(vm_request(RequestOp::kLookup, 1));
  Request health;
  health.op = RequestOp::kHealth;
  auto f2 = channel->submit(health);
  const Response looked = f1.get();
  EXPECT_EQ(looked.pm, placed.pm);
  const Response healthy = f2.get();
  EXPECT_TRUE(healthy.ok);
  EXPECT_EQ(extra_of(healthy, "cell_id"), "3");
  EXPECT_EQ(extra_of(healthy, "role"), "\"cell\"");

  // Kill the cell's server: in-flight and future submits must fail with the
  // structured transport error, never hang.
  server.stop();
  Response dead = channel->submit(place_request(2, 0)).get();
  for (int attempt = 0; dead.error.empty() && attempt < 100; ++attempt) {
    dead = channel->submit(place_request(2, 0)).get();
  }
  EXPECT_EQ(dead.error, kCellUnreachable);
  EXPECT_FALSE(dead.ok);
  cell.stop_now();

  // A router over a dead channel degrades structurally too.
  std::vector<RequestSink*> sinks = {channel.get()};
  Router router(sinks);
  EXPECT_EQ(call(router, place_request(5, 0)).error, kCellUnreachable);
  Request merged_health;
  merged_health.op = RequestOp::kHealth;
  const Response merged = call(router, merged_health);
  EXPECT_TRUE(merged.ok);
  EXPECT_EQ(extra_of(merged, "cells_unreachable"), "1");
  EXPECT_EQ(extra_of(merged, "mode"), "\"degraded\"");
  EXPECT_GE(counter(router, "prvm_router_cell_unreachable_total"), 1u);
}

}  // namespace
}  // namespace prvm
