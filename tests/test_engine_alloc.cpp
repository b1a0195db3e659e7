// Steady-state allocation test for the indexed PageRankVM engine.
//
// Built as its own binary (prvm_alloc_tests): the global operator new/delete
// overrides below count every heap allocation in the process, which would
// perturb the main suite. The contract: once the engine is warm (scratch
// vectors sized, rep cache populated, need masks built, hash maps past their
// final rehash), place() allocates exactly as often as the bare ledger
// update it ends in — the engine's own share of a pick is ZERO heap
// allocations; the whole pick runs on engine-owned scratch and borrowed
// views. The counter also records the largest single request, which the
// snapshot test below bounds, and the heap bytes live at any moment (glibc's
// usable size of each block), which the memo residue test bounds.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>

#include <malloc.h>
#include <unistd.h>

static std::atomic<std::size_t> g_allocations{0};
static std::atomic<std::size_t> g_largest_request{0};
static std::atomic<long long> g_live_bytes{0};

static void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)), std::memory_order_relaxed);
  return p;
}

static void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}

static void count_request(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest_request.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
  }
}

void* operator new(std::size_t size) {
  count_request(size);
  return counted(std::malloc(size));
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  count_request(size);
  const std::size_t a = static_cast<std::size_t>(align);
  return counted(std::aligned_alloc(a, (size + a - 1) / a * a));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }

#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/byte_writer.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/pagerank_vm.hpp"
#include "profile/permutation.hpp"
#include "service/admission.hpp"
#include "service/binary_protocol.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

namespace prvm {
namespace {

TEST(EngineAlloc, WarmPlaceAllocatesOnlyWhatTheLedgerDoes) {
  const Catalog catalog = ec2_sim_catalog();
  const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(catalog, {}, std::nullopt));
  Datacenter dc(catalog, std::vector<std::size_t>(64, 0));
  PageRankVm engine(tables, {});

  // Load the fleet part-way so the probe picks below land on used PMs.
  Rng rng(11);
  VmId next_id = 1;
  const std::size_t vm_types = catalog.vm_types().size();
  for (int i = 0; i < 160; ++i) {
    const Vm vm{next_id++, rng.uniform_index(vm_types)};
    if (!engine.place(dc, vm).has_value()) break;
  }
  ASSERT_GT(dc.used_count(), 0u);
  // The reference ledger: identical state, only ever touched directly.
  Datacenter ref = dc;

  // One probe VM per type, placed and removed again: the ledger returns to
  // the same state every time, so every round makes the same decisions.
  // The warm-up rounds size the scratch vectors, fill the rep cache for
  // every (profile, VM type) the probes touch, trigger the one spurious
  // FlatMap64 rehash try_emplace may perform at its load threshold, build
  // the need-mask matrix, and record each decision for the reference run.
  struct Decision {
    PmIndex pm;
    Vm vm;
    DemandPlacement placement;
  };
  std::vector<Decision> decisions;
  for (int round = 0; round < 2; ++round) {
    decisions.clear();
    for (std::size_t v = 0; v < vm_types; ++v) {
      const Vm vm{static_cast<VmId>(next_id + v), v};
      const std::optional<PmIndex> pm = engine.place(dc, vm);
      if (!pm.has_value()) continue;
      // Datacenter::place reads only the assignments of a placement.
      decisions.push_back({*pm, vm, DemandPlacement{dc.remove(vm.id).assignments, {}}});
    }
  }
  ASSERT_FALSE(decisions.empty());

  constexpr int kRounds = 50;
  std::size_t diverged = 0;  // checked after counting: no gtest inside the window
  const auto engine_round = [&] {
    for (const Decision& d : decisions) {
      if (engine.place(dc, d.vm) != std::optional<PmIndex>(d.pm)) ++diverged;
      dc.remove(d.vm.id);
    }
  };
  const auto ledger_round = [&] {
    for (const Decision& d : decisions) {
      ref.place(d.pm, d.vm, d.placement);
      ref.remove(d.vm.id);
    }
  };
  // Warm the reference ledger the same way before counting.
  ledger_round();
  ledger_round();

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) engine_round();
  const std::size_t engine_allocs = g_allocations.load(std::memory_order_relaxed) - before;

  before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) ledger_round();
  const std::size_t ledger_allocs = g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(diverged, 0u) << "warm rounds must repeat the recorded decisions";
  EXPECT_EQ(engine_allocs, ledger_allocs)
      << "place() allocated " << engine_allocs << " times across " << kRounds
      << " warm rounds; the bare ledger updates alone allocated " << ledger_allocs;
  EXPECT_TRUE(datacenter_state_equal(dc, ref));
}

// A grouped place as the service runs it: the group's veto, the engine's
// constrained pick, the ledger commit and the group record, then the
// release. The veto borrows the group's PM set by pointer (no copy into the
// std::function) and the group and VM maps are flat, so once warm a place
// into a group that already has members, and its release, allocate nothing.
TEST(AdmissionAlloc, WarmGroupedPlaceAndReleaseAllocateNothing) {
  const Catalog catalog = ec2_sim_catalog();
  const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(catalog, {}, std::nullopt));
  Datacenter dc(catalog, std::vector<std::size_t>(64, 0));
  PageRankVm engine(tables, {});
  AdmissionController admission;
  std::vector<std::string> groups;
  for (int g = 0; g < 8; ++g) {
    groups.push_back("group-with-a-heap-allocated-name-" + std::to_string(g));
  }

  Rng rng(23);
  VmId next_id = 1;
  const std::size_t vm_types = catalog.vm_types().size();
  for (int i = 0; i < 160; ++i) {
    const Vm vm{next_id++, rng.uniform_index(vm_types)};
    const std::string& group = groups[i % groups.size()];
    const std::optional<PmIndex> pm = engine.place(dc, vm, admission.constraints_for(group));
    if (!pm.has_value()) break;
    admission.record_placement(vm.id, group, *pm);
  }
  ASSERT_EQ(admission.group_count(), groups.size());

  std::size_t refused = 0;  // checked after counting: no gtest inside the window
  const auto round = [&] {
    for (std::size_t v = 0; v < vm_types; ++v) {
      const Vm vm{static_cast<VmId>(next_id + v), v};
      const std::string& group = groups[v % groups.size()];
      const std::optional<PmIndex> pm = engine.place(dc, vm, admission.constraints_for(group));
      if (!pm.has_value()) {
        ++refused;
        continue;
      }
      admission.record_placement(vm.id, group, *pm);
      admission.record_release(vm.id, *pm);
      dc.remove(vm.id);
    }
  };
  round();
  round();
  refused = 0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < 50; ++r) round();
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations across 50 warm rounds of " << vm_types
                        << " grouped place+release";
  EXPECT_EQ(admission.group_count(), groups.size());
}

// A warm place and release as the daemon runs them: PlacementService::execute
// decides, fills its reused WAL record, applies it to the ledger and the
// admission controller, appends the frame and flushes the WAL. Ungrouped and
// grouped (into groups that keep other members), a warm op allocates
// nothing: the WAL's frame buffer and its flush buffer trade places and keep
// their capacity, and the flush builds its error context only on failure.
// An allocation here is a regression, such as an applier copying a record's
// assignments into a fresh container.
TEST(ServiceAlloc, WarmPlaceAndReleaseAllocateNothing) {
  const Catalog catalog = ec2_sim_catalog();
  const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(catalog, {}, std::nullopt));
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("prvm-service-alloc-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ServiceConfig config;
  config.data_dir = dir;
  std::size_t allocs = 0;
  std::size_t ops = 0;
  std::size_t failed = 0;  // checked after counting: no gtest inside the window
  {
    PlacementService service(catalog, std::vector<std::size_t>(64, 0), tables, config);
    const std::size_t vm_types = catalog.vm_types().size();
    const auto request = [](RequestOp op, VmId vm, std::size_t type, const std::string& group) {
      Request r;
      r.op = op;
      r.vm_id = vm;
      r.vm_type_index = type;
      r.group = group;
      return r;
    };
    // Resident VMs, a third of them in each of two groups with long names.
    const std::string groups[] = {"", "tenant-with-a-heap-allocated-name-a",
                                  "tenant-with-a-heap-allocated-name-b"};
    Rng rng(31);
    for (VmId vm = 1; vm <= 120; ++vm) {
      service.execute(request(RequestOp::kPlace, vm, rng.uniform_index(vm_types),
                              groups[vm % 3]));
    }
    // Per VM type, an ungrouped and a grouped place, each released again.
    std::vector<Request> round;
    for (std::size_t v = 0; v < vm_types; ++v) {
      for (int g = 0; g < 2; ++g) {
        const VmId vm = 1000 + 2 * v + static_cast<VmId>(g);
        round.push_back(request(RequestOp::kPlace, vm, v, groups[g]));
        round.push_back(request(RequestOp::kRelease, vm, 0, ""));
      }
    }
    const auto run = [&] {
      for (const Request& r : round) {
        if (!service.execute(r).ok) ++failed;
      }
    };
    run();
    run();
    failed = 0;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 50; ++i) run();
    allocs = g_allocations.load(std::memory_order_relaxed) - before;
    ops = 50 * round.size();
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(allocs, 0u)
      << static_cast<double>(allocs) / static_cast<double>(ops)
      << " allocations per warm place or release";
}

// A group is freed with its last member: churning 100k VMs through 33k
// distinct groups (a new group every 3 places, at most ~1000 VMs live)
// leaves the controller with nothing, and its snapshot block empty.
TEST(AdmissionAlloc, ChurnThroughManyGroupsLeavesNoGroupBehind) {
  AdmissionController admission;
  constexpr VmId kVms = 100000;
  constexpr VmId kLive = 1000;
  std::size_t peak_groups = 0;
  for (VmId vm = 1; vm <= kVms + kLive; ++vm) {
    if (vm <= kVms) {
      admission.record_placement(vm, "tenant-" + std::to_string(vm / 3), vm % 500);
    }
    if (vm > kLive) admission.record_release(vm - kLive, (vm - kLive) % 500);
    peak_groups = std::max(peak_groups, admission.group_count());
  }
  EXPECT_LE(peak_groups, kLive / 3 + 2) << "only groups with a live member are kept";
  EXPECT_EQ(admission.group_count(), 0u);
  EXPECT_EQ(admission.grouped_vm_count(), 0u);
  std::string block;
  ByteWriter out(block);
  admission.serialize(out);
  EXPECT_EQ(block, "groups 0\nvms 0\n");
}

// Fills `dc` with up to `vms` VMs of random types on random PMs among the
// first `pms`, each with the first feasible placement, and returns every
// placed VM's placement indexed by id (ids start at 1).
std::vector<DemandPlacement> fill_ledger(Datacenter& dc, std::size_t pms, std::size_t vms,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DemandPlacement> placement_of(1);
  const std::size_t types = dc.catalog().vm_types().size();
  for (std::size_t attempt = 0; attempt < 4 * vms && placement_of.size() <= vms; ++attempt) {
    const PmIndex pm = rng.uniform_index(pms);
    const Vm vm{static_cast<VmId>(placement_of.size()), rng.uniform_index(types)};
    auto options = dc.placements(pm, vm.type_index);
    if (options.empty()) continue;
    dc.place(pm, vm, options.front());
    placement_of.push_back(std::move(options.front()));
  }
  return placement_of;
}

// The ledger's own share of churn: releasing a VM and placing it again. Once
// the slot pool and the id map have grown to the live population, a place
// and a remove touch only flat arrays and allocate nothing — about 5000 used
// PMs, PMs turning unused and used again included.
TEST(LedgerAlloc, WarmPlaceAndRemoveAllocateNothing) {
  const Catalog catalog = ec2_sim_catalog();
  Datacenter dc(catalog, mixed_pm_fleet(catalog, 10000));
  const std::vector<DemandPlacement> placement_of = fill_ledger(dc, 5000, 30000, 0x1ed9);
  ASSERT_GT(dc.used_count(), 4500u);

  // Each unit releases a random live VM and places it back on its PM with
  // its recorded assignments (always feasible: the room it left is free).
  Rng rng(17);
  std::vector<VmId> churn(20000);
  for (VmId& id : churn) id = static_cast<VmId>(1 + rng.uniform_index(placement_of.size() - 1));
  const auto run = [&] {
    for (const VmId id : churn) {
      const PmIndex pm = *dc.pm_of(id);
      const Vm vm = dc.remove(id).vm;
      dc.place(pm, vm, placement_of[id]);
    }
  };
  run();  // warm-up
  const std::size_t used_before = dc.used_count();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / static_cast<double>(churn.size())
                        << " allocations per release+place unit";
  EXPECT_EQ(dc.used_count(), used_before);
  dc.check_index_invariants();
}

// rebalance_scan copies the whole ledger on the loop thread. The copy is a
// fixed set of flat arrays, so its heap traffic must not depend on how many
// VMs the ledger holds.
TEST(LedgerAlloc, CopyAllocationsDoNotGrowWithVmCount) {
  const Catalog catalog = ec2_sim_catalog();
  const auto copy_allocations = [&](std::size_t vms) {
    Datacenter dc(catalog, mixed_pm_fleet(catalog, 10000));
    fill_ledger(dc, 10000, vms, 0xc0b1);
    EXPECT_GE(dc.vm_count(), vms * 9 / 10);
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const Datacenter copy = dc;
    const std::size_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(copy.vm_count(), dc.vm_count());
    return allocs;
  };
  const std::size_t small = copy_allocations(3000);
  const std::size_t large = copy_allocations(30000);
  EXPECT_EQ(small, large) << "copying 3k VMs took " << small << " allocations, 30k took "
                          << large;
}

// The cell channel's submit path (cell_channel.cpp) encodes every request
// as PRVB1 into one member buffer it clears and reuses — the fix this test
// pins down: a warm channel must encode without touching the heap at all.
// The channel itself is not constructed here (its promise queue allocates
// by design); the binary encode calls below are exactly the ones submit()
// makes. The JSON rows are the reference a JSON-lines client pays: a reused
// buffer must beat the fresh-string-per-request encode_request() path.
TEST(ChannelEncodeAlloc, WarmReusedEncodeBufferDelta) {
  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 123456;
  place.vm_type_index = 7;
  place.group = "web-tier";

  constexpr int kRounds = 1000;
  std::string reused;

  // Warm-up sizes the reused buffer once.
  encode_binary_request_into(place, reused);
  reused.clear();
  encode_binary_request_into(place, reused, /*type_slot=*/std::nullopt);

  // Binary encode into the warm buffer: zero heap traffic, just byte
  // appends into existing capacity.
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    reused.clear();
    encode_binary_request_into(place, reused);
  }
  const std::size_t binary_allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(binary_allocs, 0u) << "warm binary encode allocated";

  // JSON into the same reused buffer also appends in place (std::to_chars
  // integers, strings quoted straight into the buffer), so it reaches zero
  // too, whatever the field sizes.
  reused.clear();
  encode_request_into(place, reused);
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    reused.clear();
    encode_request_into(place, reused);
  }
  const std::size_t json_reused_allocs =
      g_allocations.load(std::memory_order_relaxed) - before;

  // The old channel behavior: a fresh string per request on top of that.
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    const std::string line = encode_request(place);
    ASSERT_FALSE(line.empty());
  }
  const std::size_t json_fresh_allocs =
      g_allocations.load(std::memory_order_relaxed) - before;

  // Report the per-request deltas the buffer-reuse fix and the binary
  // codec buy (visible with --gtest_brief=0 and in CI logs).
  RecordProperty("binary_allocs_per_request", static_cast<int>(binary_allocs / kRounds));
  RecordProperty("json_reused_allocs_per_request",
                 static_cast<int>(json_reused_allocs / kRounds));
  RecordProperty("json_fresh_allocs_per_request",
                 static_cast<int>(json_fresh_allocs / kRounds));
  std::printf("[ alloc/req ] binary reused=%.2f  json reused=%.2f  json fresh=%.2f\n",
              static_cast<double>(binary_allocs) / kRounds,
              static_cast<double>(json_reused_allocs) / kRounds,
              static_cast<double>(json_fresh_allocs) / kRounds);

  // Reusing the buffer must strictly beat allocating a line per request;
  // binary must never be worse than JSON on the same reused buffer.
  EXPECT_LT(json_reused_allocs, json_fresh_allocs);
  EXPECT_LE(binary_allocs, json_reused_allocs);
}

// The JSON decode path a socket server runs per read: feed() a chunk of
// request lines, then next_request() until it runs dry. Once the buffer has
// its capacity, lookup, util, release and place lines (with and without a
// group) decode straight from views into the buffer: no DOM, no line copy,
// no heap traffic at all.
TEST(JsonDecodeAlloc, WarmLinesAllocateNothing) {
  std::string chunk;
  for (int i = 0; i < 64; ++i) {
    const std::string vm = std::to_string(1000 + i);
    switch (i % 5) {
      case 0: chunk += R"({"op":"lookup","vm":)" + vm + "}\n"; break;
      case 1: chunk += R"({"op":"util","vm":)" + vm + R"(,"cpu":0.4375})" + "\n"; break;
      case 2: chunk += R"({"op":"release","vm":)" + vm + "}\n"; break;
      case 3: chunk += R"({"op":"place","vm":)" + vm + R"(,"type":3})" + "\n"; break;
      default: chunk += R"({"op":"place","vm":)" + vm + R"(,"type":"m3.xlarge","group":"g1.7"})" + "\n";
    }
  }

  LineBuffer lines;
  std::size_t decoded = 0;
  const auto decode_chunk = [&] {
    lines.feed(chunk);
    while (const auto request = next_request(lines)) {
      if (std::holds_alternative<Request>(*request)) ++decoded;
    }
  };
  decode_chunk();  // sizes the buffer
  ASSERT_EQ(decoded, 64u);

  constexpr int kChunks = 200;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kChunks; ++i) decode_chunk();
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(decoded, 64u * (kChunks + 1));
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / (64.0 * kChunks) << " per request";
}

// The PRVB1 twin of the test above, the cell's hot decode path: the same
// 64-request mix as frames, places by interned slot and by catalog index,
// through BinaryFrameBuffer and next_request. Once the frame buffer has its
// capacity and the slot is interned, decoding touches no heap.
TEST(BinaryDecodeAlloc, WarmFramesAllocateNothing) {
  std::string chunk;
  for (int i = 0; i < 64; ++i) {
    Request r;
    r.vm_id = 1000 + static_cast<std::uint64_t>(i);
    switch (i % 5) {
      case 0: r.op = RequestOp::kLookup; break;
      case 1:
        r.op = RequestOp::kUtil;
        r.cpu = 0.4375;
        break;
      case 2: r.op = RequestOp::kRelease; break;
      case 3:
        r.op = RequestOp::kPlace;
        r.vm_type_index = 3;
        break;
      default:
        r.op = RequestOp::kPlace;
        r.vm_type_name = "m3.xlarge";
        r.group = "g1.7";
    }
    const bool by_slot = !r.vm_type_name.empty();
    ASSERT_TRUE(encode_binary_request_into(r, chunk, by_slot ? std::optional<std::uint16_t>(0)
                                                             : std::nullopt));
  }

  BinaryFrameBuffer frames;
  BinaryStringTable types;
  std::string intern;
  ASSERT_TRUE(append_intern_frame(0, "m3.xlarge", intern));
  frames.feed(intern);
  std::size_t decoded = 0;
  const auto decode_chunk = [&] {
    frames.feed(chunk);
    while (const auto request = next_request(frames, types)) {
      if (std::holds_alternative<Request>(*request)) ++decoded;
    }
  };
  decode_chunk();  // sizes the buffer, installs the slot
  ASSERT_EQ(decoded, 64u);

  constexpr int kChunks = 200;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kChunks; ++i) decode_chunk();
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(decoded, 64u * (kChunks + 1));
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / (64.0 * kChunks) << " per request";
}

// The profile-graph build reads the successors of every (profile, VM type)
// pair from the graph's memo, from worker threads.
// Once the memo holds a profile's group states, reading its successors into
// a caller-owned buffer with room must not touch the heap at all.
TEST(SuccessorEnumerationAlloc, CallerOwnedBufferIsAllocationFree) {
  const Catalog catalog = ec2_sim_catalog();
  const ProfileShape& shape = catalog.shape(0);
  const std::vector<QuantizedDemand>& demands = catalog.fitting_demands(0).demands;

  // Three BFS layers from the empty profile, each profile entered in the
  // memo (this part may allocate).
  SuccessorMemo memo(shape);
  std::vector<ProfileKey> profiles = {0};
  std::vector<ProfileKey> layer = {0};
  for (int depth = 0;; ++depth) {
    for (ProfileKey key : layer) memo.fill(key, demands);
    if (depth == 3) break;
    std::vector<ProfileKey> next;
    for (ProfileKey key : layer) {
      for (std::size_t t = 0; t < demands.size(); ++t) memo.append_successors(key, t, next);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    profiles.insert(profiles.end(), next.begin(), next.end());
    layer = std::move(next);
  }
  ASSERT_GT(profiles.size(), 100u);

  std::vector<ProfileKey> out;
  out.reserve(1 << 16);
  std::size_t emitted = 0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (ProfileKey key : profiles) {
    for (std::size_t t = 0; t < demands.size(); ++t) {
      out.clear();
      memo.append_successors(key, t, out);
      emitted += out.size();
    }
  }
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "enumerating " << emitted << " successors allocated";
  EXPECT_GT(emitted, profiles.size());
}

// The memo lives in the ProfileGraph and dies with it: once an EC2 cold
// build's graphs and tables are gone, the heap holds what it held before.
// A memo kept per worker thread (or in any static) would stay behind, about
// 0.4 MB per thread, for the daemon's whole life.
TEST(SuccessorEnumerationAlloc, MemoStorageDiesWithTheBuild) {
  QuantizationConfig coarse;
  coarse.mem_levels = 4;
  const Catalog warmup = ec2_catalog(coarse);
  const Catalog catalog = ec2_sim_catalog();
  const auto build_all = [](const Catalog& c) {
    std::size_t runs = 0;
    for (std::size_t p = 0; p < c.pm_types().size(); ++p) {
      const ProfileGraph graph(c.shape(p), c.fitting_demands(p).demands);
      const ScoreTable table = ScoreTable::build(graph);
      runs += graph.group_enumerations();
    }
    return runs;
  };
  // The first build starts the shared pool and registers the stage
  // histograms, which stay by design.
  ASSERT_GT(build_all(warmup), 0u);
  const long long before = g_live_bytes.load(std::memory_order_relaxed);
  const std::size_t runs = build_all(catalog);
  const long long residue = g_live_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_GT(runs, 1000u);
  EXPECT_LT(residue, 16 * 1024) << "bytes left live by a cold build";
}

// A histogram's shards are about 4 KB each and a daemon registers a few
// dozen histograms, most recorded by one or two threads. Registering one
// allocates no shard; a thread's first record allocates its shard, and warm
// records allocate nothing.
TEST(HistogramAlloc, AShardIsAllocatedByTheFirstRecordIntoIt) {
  obs::Registry registry;
  const long long before = g_live_bytes.load(std::memory_order_relaxed);
  obs::Histogram& h = registry.histogram("prvm_lazy_shard_ns");
  const long long registered = g_live_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(registered, 4096) << "registering a histogram allocated its shards";
  h.record(7);
  const long long shard = g_live_bytes.load(std::memory_order_relaxed) - before - registered;
  EXPECT_GT(shard, static_cast<long long>(obs::Histogram::kBuckets * sizeof(std::uint64_t)));
  EXPECT_LT(shard, 8192);
  const std::size_t allocs = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t v = 0; v < 1000; ++v) h.record(v);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - allocs, 0u);
  EXPECT_EQ(h.snapshot().count, 1001u);
}

// save_snapshot streams through one bounded chunk: however large the
// ledger, no single heap request may exceed the chunk bound plus one PM's
// record (the most a record-granular spill could overshoot by). Serializing
// the whole blob first would request several MiB.
TEST(SnapshotAlloc, SaveRequestsNoBlockLargerThanTheChunk) {
  const Catalog catalog = ec2_catalog();
  CellState state{Datacenter(catalog, mixed_pm_fleet(catalog, 1500)), {}, 1};
  Datacenter& dc = state.dc;
  AdmissionController& admission = state.admission;
  Rng rng(0xc4);
  VmId next_vm = 1;
  for (PmIndex pm = 0; pm < dc.pm_count(); ++pm) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      const std::size_t type = rng.uniform_index(catalog.vm_types().size());
      const auto options = dc.placements(pm, type);
      if (options.empty()) continue;
      dc.place(pm, Vm{next_vm, type}, options.front());
      admission.record_placement(next_vm, next_vm % 16 == 0 ? "g" : "", pm);
      ++next_vm;
    }
  }
  ASSERT_GE(serialize_snapshot(state).size(), 3 * kSnapshotChunkBytes)
      << "the ledger must span three chunks";

  // One PM's record: index, activation sequence, VM count, then per VM its
  // id, type, assignment count and (dim, amount) pairs, all u64.
  std::size_t pm_record = 0;
  for (const PmIndex pm : dc.used_pms()) {
    std::size_t bytes = 3 * 8;
    for (const Datacenter::PlacedVm& placed : dc.pm(pm).vms) {
      bytes += 3 * 8 + placed.assignments.size() * 16;
    }
    pm_record = std::max(pm_record, bytes);
  }

  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("prvm-snap-alloc-" + std::to_string(::getpid()));
  g_largest_request.store(0, std::memory_order_relaxed);
  const IoStatus status = save_snapshot(dir / "snapshot.bin", state);
  const std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_LE(largest, kSnapshotChunkBytes + pm_record)
      << "save_snapshot requested a " << largest << "-byte block";
}

}  // namespace
}  // namespace prvm
