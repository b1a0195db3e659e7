// Sharded-cell subsystem tests (DESIGN.md §7): cell topology hashing,
// request round-trips, the Router over embedded cells (hash routing,
// capacity spillover, grouped places spanning cells, duplicate places raced
// and retried across a restart), the sharded-vs-single differential oracle,
// cell crash recovery, the vm-map file and its journal, and the socket cell
// channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "cells/embedded.hpp"
#include "cells/topology.hpp"
#include "cluster/catalog.hpp"
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
// Protocol: request round-trips.

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
  requests.push_back(place_request(9, 1, "g \"quoted\""));
  {
    Request util;
    util.op = RequestOp::kUtil;
    util.pm = 2;
    util.cpu = 0.5;
    util.cell = 3;
    requests.push_back(util);
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

  /// Places type-0 filler VMs (ids from `first_id` up) straight into
  /// `cell`, bypassing any router, until the cell rejects one as full.
  std::vector<std::uint64_t> fill_cell(EmbeddedCells& cells, std::size_t cell,
                                       std::uint64_t first_id) {
    std::vector<std::uint64_t> ids;
    for (std::uint64_t vm = first_id;; ++vm) {
      const Response r = cells.cell(cell).submit(place_request(vm, 0)).get();
      if (!r.ok) {
        EXPECT_EQ(r.error, "no_capacity");
        return ids;
      }
      ids.push_back(vm);
    }
  }

  /// How many cells hold `vm`, asked of each cell directly.
  std::size_t placements_of(EmbeddedCells& cells, std::uint64_t vm) {
    std::size_t n = 0;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      if (cells.cell(k).submit(vm_request(RequestOp::kLookup, vm)).get().ok) ++n;
    }
    return n;
  }

  /// `threads` places of one type-0 VM id through `router`, released at once.
  std::vector<Response> race_places(Router& router, std::uint64_t vm, const std::string& group,
                                    std::size_t threads) {
    std::vector<Response> responses(threads);
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        responses[t] = router.submit(place_request(vm, 0, group)).get();
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : pool) thread.join();
    return responses;
  }

  /// `winners` of the responses placed the VM, every other one is a
  /// duplicate_vm rejection, and exactly one cell holds the VM.
  void expect_placed_once(EmbeddedCells& cells, std::uint64_t vm,
                          const std::vector<Response>& responses, std::size_t winners) {
    std::size_t ok = 0;
    for (const Response& r : responses) {
      if (r.ok) {
        ++ok;
      } else {
        EXPECT_EQ(r.error, "duplicate_vm") << "vm " << vm << ": " << r.message;
      }
    }
    EXPECT_EQ(ok, winners) << "vm " << vm;
    EXPECT_EQ(placements_of(cells, vm), 1u) << "vm " << vm << " is placed more than once";
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

// The name predates the retired cross-cell reserve/commit saga; what it
// checks holds without one: each cell's admission vetoes a shared PM for
// the members it hosts, and cells own disjoint PMs.
TEST_F(RouterTest, GroupedSagaSpansCellsWithoutDoublePlacement) {
  auto embedded = make_cells(2, 12);
  Router router(embedded->sinks());

  // Four members of one anti-collocation group, two hashed to each cell:
  // each must land on a globally distinct (cell, pm) pair.
  std::vector<std::uint64_t> members;
  for (std::uint64_t vm = 1; members.size() < 4; ++vm) {
    const std::size_t hashed = cell_of_vm(vm, 2);
    if (std::count_if(members.begin(), members.end(), [&](std::uint64_t m) {
          return cell_of_vm(m, 2) == hashed;
        }) < 2) {
      members.push_back(vm);
    }
  }
  std::set<std::pair<std::string, std::uint64_t>> sites;
  for (const std::uint64_t vm : members) {
    const Response placed = call(router, place_request(vm, 0, "web"));
    ASSERT_TRUE(placed.ok) << placed.error << ": " << placed.message;
    ASSERT_TRUE(placed.pm.has_value());
    EXPECT_TRUE(sites.emplace(extra_of(placed, "cell"), *placed.pm).second)
        << "group members must never share a PM";
  }
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(embedded->cell(k).state().admission.grouped_vm_count(), 2u) << "cell " << k;
  }

  // A duplicate member is rejected by the router's map, not placed.
  EXPECT_EQ(call(router, place_request(members[1], 0, "web")).error, "duplicate_vm");
  EXPECT_EQ(placements_of(*embedded, members[1]), 1u);

  // Releasing a member makes its vm id placeable in the group again.
  ASSERT_TRUE(call(router, vm_request(RequestOp::kRelease, members[1])).ok);
  const Response replaced = call(router, place_request(members[1], 0, "web"));
  ASSERT_TRUE(replaced.ok) << replaced.error;
  EXPECT_EQ(placements_of(*embedded, members[1]), 1u);
  embedded->stop_now();
}

// ---------------------------------------------------------------------------
// Duplicate places of one VM id: each must end with one placement, and
// every losing request must see duplicate_vm. Cell 0 is filled directly, so
// the VM ids that hash to it spill to cell 1.

struct DuplicateCase {
  std::uint64_t vm;
  std::string group;  ///< one group per VM, so no anti-collocation veto
};

/// `per_kind` ids of each (hash cell, grouped) kind named in the arguments.
std::vector<DuplicateCase> duplicate_cases(const std::vector<std::size_t>& hash_cells,
                                           std::size_t per_kind) {
  std::vector<DuplicateCase> cases;
  std::uint64_t vm = 0;
  for (const std::size_t hash_cell : hash_cells) {
    for (const bool grouped : {false, true}) {
      for (std::size_t n = 0; n < per_kind;) {
        if (cell_of_vm(++vm, 2) != hash_cell) continue;
        cases.push_back({vm, grouped ? "dup-" + std::to_string(vm) : ""});
        ++n;
      }
    }
  }
  return cases;
}

TEST_F(RouterTest, DuplicatePlacesRacedAcrossThreadsLandOnce) {
  auto embedded = make_cells(2, 8);
  Router router(embedded->sinks());
  ASSERT_FALSE(fill_cell(*embedded, 0, 1u << 30).empty());

  for (const DuplicateCase& c : duplicate_cases({0, 1}, 2)) {
    SCOPED_TRACE("vm " + std::to_string(c.vm) + " group '" + c.group + "'");
    expect_placed_once(*embedded, c.vm, race_places(router, c.vm, c.group, 4), 1);
    EXPECT_EQ(router.cell_of(c.vm), std::optional<std::size_t>(1));
  }
  embedded->stop_now();
}

TEST_F(RouterTest, DuplicatePlacesRetriedAfterAStaleMapRestartLandOnce) {
  TempDir dir("stale-map");
  const std::filesystem::path path = dir.path() / "vm.map";
  auto embedded = make_cells(2, 8);
  const std::vector<DuplicateCase> cases = duplicate_cases({0}, 2);
  {
    Router first(embedded->sinks());
    ASSERT_TRUE(first.save_vm_map(path));  // before any VM spilled
    const std::vector<std::uint64_t> filler = fill_cell(*embedded, 0, 1u << 30);
    ASSERT_FALSE(filler.empty());
    for (const DuplicateCase& c : cases) {
      const Response placed = call(first, place_request(c.vm, 0, c.group));
      ASSERT_TRUE(placed.ok) << placed.error;
      ASSERT_EQ(extra_of(placed, "cell"), "1") << "vm " << c.vm << " must spill";
    }
    // The hash cell has room again, and the router dies without saving.
    for (const std::uint64_t vm : filler) {
      ASSERT_TRUE(embedded->cell(0).submit(vm_request(RequestOp::kRelease, vm)).get().ok);
    }
  }

  Router restarted(embedded->sinks());
  ASSERT_TRUE(restarted.load_vm_map(path));
  for (const DuplicateCase& c : cases) {
    SCOPED_TRACE("vm " + std::to_string(c.vm) + " group '" + c.group + "'");
    expect_placed_once(*embedded, c.vm, race_places(restarted, c.vm, c.group, 3), 0);
  }
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

TEST_F(RouterTest, AllCellsRecoverToThePreCrashStateAfterHardStop) {
  TempDir dir("cellcrash");
  std::vector<std::uint64_t> digests;
  std::vector<AdmissionController> admissions;
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
      admissions.push_back(embedded->cell(k).state().admission);
    }
    embedded->stop_now();  // every cell dies with a dirty WAL
  }
  {
    auto embedded = make_cells(2, 12, dir.path());
    for (std::size_t k = 0; k < embedded->size(); ++k) {
      EXPECT_TRUE(embedded->cell(k).stats().recovered) << "cell " << k;
      EXPECT_EQ(datacenter_state_digest(embedded->cell(k).datacenter()), digests[k])
          << "cell " << k;
      EXPECT_TRUE(embedded->cell(k).state().admission.state_equal(admissions[k])) << "cell " << k;
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

TEST_F(RouterTest, VmMapLoadsGroupColumnsJournalLinesAndATornTail) {
  TempDir dir("vmmap-journal-lines");
  auto embedded = make_cells(2, 8);
  const auto load = [&](const std::string& bytes, Router& router) {
    const std::filesystem::path path = dir.path() / "vm.map";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return router.load_vm_map(path);
  };
  {
    // A file written when each entry also carried its group: the group
    // column is read past.
    Router router(embedded->sinks());
    EXPECT_TRUE(load("PRVMMAP1 3\n5 0 \n6 1 web\n7 0 two words\n", router));
    EXPECT_EQ(router.vm_map_size(), 3u);
    EXPECT_EQ(router.cell_of(5), std::optional<std::size_t>(0));
    EXPECT_EQ(router.cell_of(6), std::optional<std::size_t>(1));
    EXPECT_EQ(router.cell_of(7), std::optional<std::size_t>(0));
  }
  {
    // Journal lines replay in order after the saved entries; a torn last
    // line (a killed router's cut-short append) is ignored.
    Router router(embedded->sinks());
    EXPECT_TRUE(load("PRVMMAP1 2\n1 0\n2 1 web\n3 1\n1 -\n4 0\n3 -\n3 0\n5 1", router));
    EXPECT_EQ(router.vm_map_size(), 3u);
    EXPECT_FALSE(router.cell_of(1).has_value());
    EXPECT_EQ(router.cell_of(2), std::optional<std::size_t>(1));
    EXPECT_EQ(router.cell_of(3), std::optional<std::size_t>(0));
    EXPECT_EQ(router.cell_of(4), std::optional<std::size_t>(0));
    EXPECT_FALSE(router.cell_of(5).has_value());
  }
  {
    // Damage anywhere else is refused: a bad line before the last, a
    // tombstone among the saved entries, a torn saved entry.
    Router router(embedded->sinks());
    EXPECT_FALSE(load("PRVMMAP1 1\n1 0\n2 x\n3 1\n", router));
    EXPECT_FALSE(load("PRVMMAP1 1\n1 -\n", router));
    EXPECT_FALSE(load("PRVMMAP1 2\n1 0\n2 1", router));
    EXPECT_FALSE(load("PRVMMAP1 0", router));
    EXPECT_EQ(router.vm_map_size(), 0u);
  }
  embedded->stop_now();
}

TEST_F(RouterTest, VmMapJournalServesSpilledVmsAfterARestart) {
  TempDir dir("vmmap-journal");
  const std::filesystem::path path = dir.path() / "vm.map";
  auto embedded = make_cells(2, 8);
  const std::vector<DuplicateCase> spilled = duplicate_cases({0}, 2);
  const std::uint64_t on_hash = duplicate_cases({1}, 1).front().vm;
  std::map<std::uint64_t, std::uint64_t> pm_of;
  {
    Router first(embedded->sinks());
    ASSERT_TRUE(first.save_vm_map(path));
    ASSERT_FALSE(fill_cell(*embedded, 0, 1u << 30).empty());
    const Response native = call(first, place_request(on_hash, 0));
    ASSERT_TRUE(native.ok) << native.error;
    ASSERT_EQ(extra_of(native, "cell"), "1");
    for (const DuplicateCase& c : spilled) {
      const Response placed = call(first, place_request(c.vm, 0, c.group));
      ASSERT_TRUE(placed.ok) << placed.error;
      ASSERT_EQ(extra_of(placed, "cell"), "1");
      pm_of[c.vm] = *placed.pm;
    }
    ASSERT_TRUE(call(first, vm_request(RequestOp::kRelease, spilled[0].vm)).ok);
  }
  // Only the spills and the spilled VM's release were journaled.
  {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::vector<std::string> expected = {"PRVMMAP1 0"};
    for (const DuplicateCase& c : spilled) expected.push_back(std::to_string(c.vm) + " 1");
    expected.push_back(std::to_string(spilled[0].vm) + " -");
    EXPECT_EQ(lines, expected);
  }

  Router restarted(embedded->sinks());
  ASSERT_TRUE(restarted.load_vm_map(path));
  EXPECT_EQ(restarted.vm_map_size(), spilled.size() - 1);
  EXPECT_FALSE(restarted.cell_of(spilled[0].vm).has_value());
  for (std::size_t i = 1; i < spilled.size(); ++i) {
    const std::uint64_t vm = spilled[i].vm;
    EXPECT_EQ(restarted.cell_of(vm), std::optional<std::size_t>(1)) << "vm " << vm;
    const Response looked = call(restarted, vm_request(RequestOp::kLookup, vm));
    ASSERT_TRUE(looked.ok) << "vm " << vm << ": " << looked.error;
    EXPECT_EQ(looked.pm, std::optional<std::uint64_t>(pm_of[vm])) << "vm " << vm;
  }
  // The VM on its hash cell has no line: a retried place of it reaches
  // that cell, which answers duplicate_vm itself.
  EXPECT_EQ(call(restarted, place_request(on_hash, 0)).error, "duplicate_vm");
  EXPECT_EQ(placements_of(*embedded, on_hash), 1u);
  // Its other ops miss the map and reach that cell too: none strands it.
  const Response looked = call(restarted, vm_request(RequestOp::kLookup, on_hash));
  ASSERT_TRUE(looked.ok) << looked.error;
  EXPECT_EQ(extra_of(looked, "cell"), "1");
  Request util = vm_request(RequestOp::kUtil, on_hash);
  util.cpu = 0.5;
  const Response sampled = call(restarted, util);
  EXPECT_TRUE(sampled.ok) << sampled.error;
  const Response migrated = call(restarted, vm_request(RequestOp::kMigrate, on_hash));
  ASSERT_TRUE(migrated.ok) << migrated.error;
  EXPECT_EQ(extra_of(migrated, "cell"), "1");
  EXPECT_NE(migrated.pm, looked.pm);
  const Response released = call(restarted, vm_request(RequestOp::kRelease, on_hash));
  ASSERT_TRUE(released.ok) << released.error;
  EXPECT_EQ(placements_of(*embedded, on_hash), 0u);

  // A save compacts the journal and journals on; a release through the
  // restarted router reaches the next one.
  ASSERT_TRUE(restarted.save_vm_map(path));
  ASSERT_TRUE(call(restarted, vm_request(RequestOp::kRelease, spilled[1].vm)).ok);
  EXPECT_EQ(placements_of(*embedded, spilled[1].vm), 0u);
  Router third(embedded->sinks());
  ASSERT_TRUE(third.load_vm_map(path));
  EXPECT_EQ(third.vm_map_size(), spilled.size() - 2);
  EXPECT_FALSE(third.cell_of(spilled[1].vm).has_value());
  EXPECT_EQ(third.cell_of(spilled[2].vm), std::optional<std::size_t>(1));
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

TEST_F(RouterTest, PlaceThroughASocketChannelKeepsTheVmTypeItAskedFor) {
  TempDir dir("type");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  PlacementService cell(catalog_, mixed_pm_fleet(catalog_, 4), tables_, ServiceConfig{});
  cell.start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(cell, socket_config);
  server.start();
  auto channel = std::make_unique<SocketCellChannel>("unix:" + socket_path);
  ASSERT_TRUE(channel->connected());
  std::vector<RequestSink*> sinks = {channel.get()};
  Router router(sinks);

  // What the router's server does with a client line: decode, then submit.
  const auto submit_line = [&](std::string_view line) {
    auto parsed = parse_request(line);
    if (const auto* error = std::get_if<ProtocolError>(&parsed)) {
      return protocol_error_response(*error);
    }
    return call(router, std::get<Request>(std::move(parsed)));
  };
  // 4294967298 is 2 mod 2^32: a truncating encoder would place a type-2 VM.
  const Response too_big = submit_line(R"({"op":"place","vm":1,"type":4294967298})");
  EXPECT_FALSE(too_big.ok);
  EXPECT_EQ(too_big.error, "bad_field") << too_big.message;
  const Response empty = submit_line(R"({"op":"place","vm":2,"type":""})");
  EXPECT_FALSE(empty.ok);
  EXPECT_EQ(empty.error, "missing_field") << empty.message;
  // A Request built in code skips the decoder; the channel's encoder refuses it.
  Request unencodable = place_request(3, 0);
  unencodable.vm_type_index = 0x1'0000'0002ull;
  const Response refused = call(router, unencodable);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "bad_field") << refused.message;

  for (const std::uint64_t vm : {1u, 2u, 3u}) {
    EXPECT_EQ(channel->submit(vm_request(RequestOp::kLookup, vm)).get().error, "unknown_vm")
        << "vm " << vm << " was placed";
  }
  // The channel still carries well-formed places.
  EXPECT_TRUE(call(router, place_request(4, 2)).ok);
  server.stop();
  cell.stop_now();
}

}  // namespace
}  // namespace prvm
