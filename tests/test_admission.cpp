// AdmissionController: inter-VM anti-collocation groups keep only live
// state. A group lives while it has a member; its last release frees it.
// The snapshot block is canonical (live groups in name-byte order, VM ->
// group as ranks), so two controllers that reach the same live state by
// different histories write identical bytes. Blocks from writers that kept
// empty groups still load, without them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/catalog.hpp"
#include "common/byte_writer.hpp"
#include "common/rng.hpp"
#include "service/admission.hpp"

namespace prvm {
namespace {

std::string block_of(const AdmissionController& ac) {
  std::string blob;
  ByteWriter out(blob);
  ac.serialize(out);
  return blob;
}

AdmissionController load_block(const std::string& block) {
  std::istringstream is(block, std::ios::binary);
  return AdmissionController::deserialize(is);
}

bool vetoes(const PlacementConstraints& constraints, PmIndex pm) {
  static const Catalog catalog = ec2_catalog();
  static const Datacenter dc(catalog, std::vector<std::size_t>(1, 0));
  return !constraints.allowed(dc, pm);
}

TEST(Admission, GroupIsFreedWithItsLastMemberAndStartsAfreshAfter) {
  AdmissionController ac;
  ac.record_placement(1, "web", 4);
  ac.record_placement(2, "web", 7);
  ac.record_placement(3, "", 4);
  EXPECT_EQ(ac.group_count(), 1u);
  EXPECT_EQ(ac.grouped_vm_count(), 2u);
  EXPECT_TRUE(vetoes(ac.constraints_for("web"), 4));
  EXPECT_TRUE(vetoes(ac.constraints_for("web"), 7));
  EXPECT_FALSE(vetoes(ac.constraints_for("web"), 5));

  ac.record_release(1, 4);
  ac.record_release(3, 4);  // ungrouped: no-op
  EXPECT_EQ(ac.group_count(), 1u);
  EXPECT_FALSE(vetoes(ac.constraints_for("web"), 4));
  ac.record_release(2, 7);
  EXPECT_EQ(ac.group_count(), 0u);
  EXPECT_EQ(ac.grouped_vm_count(), 0u);
  EXPECT_EQ(ac.group_of(2), "");
  EXPECT_FALSE(static_cast<bool>(ac.constraints_for("web").allow))
      << "a group with no members vetoes nothing";
  EXPECT_EQ(block_of(ac), "groups 0\nvms 0\n");

  ac.record_placement(9, "web", 5);
  EXPECT_EQ(ac.group_of(9), "web");
  EXPECT_TRUE(vetoes(ac.constraints_for("web"), 5));
  EXPECT_FALSE(vetoes(ac.constraints_for("web"), 7)) << "the old group's PMs are gone";
  EXPECT_THROW(ac.record_placement(9, "db", 1), std::invalid_argument);
  EXPECT_EQ(ac.group_count(), 1u) << "a refused record creates no group";
}

struct Placed {
  std::string group;
  PmIndex pm = 0;
};
using LiveState = std::map<VmId, Placed>;

struct History {
  std::size_t group_deaths = 0;
  std::size_t sole_member_migrates = 0;
};

// Moves `vm` the way PlacementService::migrate does: release, then place
// under a copy of the name (the release may free the group it names).
void migrate(AdmissionController& ac, VmId vm, PmIndex from, PmIndex to, History& history) {
  const std::string group = ac.group_of(vm);
  const std::size_t groups = ac.group_count();
  ac.record_release(vm, from);
  if (ac.group_count() < groups) {
    ++history.group_deaths;
    ++history.sole_member_migrates;
  }
  ac.record_placement(vm, group, to);
}

const std::string kNames[] = {"g0", "g1", "g2", "g3", "a b", "a:b", std::string("\xff\x01", 2),
                              std::string("nul\0", 4), "nul"};

// One history that ends in `target`: the target VMs are placed in a
// shuffled order; transient members of random groups are placed and
// released around them (creating and freeing groups); half the target VMs
// land on a detour PM first and migrate to their target PM.
AdmissionController reach(const LiveState& target, std::uint64_t seed, History& history) {
  AdmissionController ac;
  Rng rng(seed);
  std::vector<VmId> order;
  for (const auto& entry : target) order.push_back(entry.first);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  VmId transient = 1000000;
  const auto churn = [&] {
    const std::string& name = kNames[rng.uniform_index(std::size(kNames))];
    const PmIndex pm = rng.uniform_index(40);
    ac.record_placement(transient, name, pm);
    const std::size_t groups = ac.group_count();
    ac.record_release(transient++, pm);
    history.group_deaths += ac.group_count() < groups;
  };
  for (const VmId vm : order) {
    for (int t = rng.uniform_int(0, 2); t > 0; --t) churn();
    const Placed& want = target.at(vm);
    if (!want.group.empty() && rng.chance(0.5)) {
      const PmIndex detour = 40 + rng.uniform_index(10);
      ac.record_placement(vm, want.group, detour);
      migrate(ac, vm, detour, want.pm, history);
    } else {
      ac.record_placement(vm, want.group, want.pm);
    }
  }
  for (int t = 0; t < 20; ++t) churn();
  return ac;
}

TEST(Admission, SameLiveStateSerializesIdenticallyWhateverTheHistory) {
  History history;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    LiveState target;
    for (VmId vm = 1; vm <= 40; ++vm) {
      if (rng.chance(0.2)) continue;
      // Few members per group, so some groups have a sole member.
      const std::string group =
          rng.chance(0.25) ? "" : kNames[rng.uniform_index(std::size(kNames))];
      target[vm] = Placed{group, rng.uniform_index(40)};
    }
    AdmissionController direct;
    for (const auto& [vm, placed] : target) direct.record_placement(vm, placed.group, placed.pm);

    const AdmissionController a = reach(target, 2 * seed, history);
    const AdmissionController b = reach(target, 2 * seed + 1, history);
    EXPECT_TRUE(a.state_equal(b));
    EXPECT_TRUE(a.state_equal(direct));
    const std::string bytes = block_of(direct);
    EXPECT_EQ(block_of(a), bytes);
    EXPECT_EQ(block_of(b), bytes);
    const AdmissionController loaded = load_block(bytes);
    EXPECT_TRUE(loaded.state_equal(direct));
    EXPECT_EQ(block_of(loaded), bytes);
  }
  EXPECT_GT(history.group_deaths, 50u);
  EXPECT_GT(history.sole_member_migrates, 5u);
}

TEST(Admission, OlderBlocksWithEmptyGroupsLoadWithoutThem) {
  // Written by a controller that kept every group it had seen, in creation
  // order: "x" and "w" have no members left.
  const std::string old_block =
      "groups 4\n1:x 0\n1:z 1 3 1\n1:w 0\n1:y 2 4 1 7 1\nvms 3\n5 3\n6 3\n9 1\n";
  const AdmissionController loaded = load_block(old_block);
  EXPECT_EQ(loaded.group_count(), 2u);
  EXPECT_EQ(loaded.group_of(5), "y");
  EXPECT_EQ(loaded.group_of(6), "y");
  EXPECT_EQ(loaded.group_of(9), "z");
  EXPECT_FALSE(static_cast<bool>(loaded.constraints_for("x").allow));

  AdmissionController live;
  live.record_placement(5, "y", 4);
  live.record_placement(6, "y", 7);
  live.record_placement(9, "z", 3);
  EXPECT_TRUE(loaded.state_equal(live));
  EXPECT_EQ(block_of(loaded), "groups 2\n1:y 2 4 1 7 1\n1:z 1 3 1\nvms 3\n5 0\n6 0\n9 1\n");
}

TEST(Admission, InconsistentBlocksAreRejected) {
  for (const char* block : {
           "groups 1\n1:x 0\nvms 1\n5 0\n",                    // a VM in a group with no PM
           "groups 2\n1:x 1 3 1\n1:x 1 4 1\nvms 2\n5 0\n6 1\n",  // one live name twice
           "groups 1\n0: 1 3 1\nvms 1\n5 0\n",                  // the empty name
           "groups 1\n1:x 1 3 2\nvms 2\n5 0\n5 0\n",             // one VM twice
           "groups 1\n1:x 2 3 1 3 1\nvms 2\n5 0\n6 0\n",         // one PM twice
           "groups 1\n1:x 1 3 2\nvms 1\n5 0\n",                 // more hosted than members
           "groups 1\n1:x 1 3 1\nvms 2\n5 0\n6 0\n",             // more members than hosted
           "groups 1\n1:x 1 3 1\nvms 1\n5 1\n",                 // group id out of range
       }) {
    EXPECT_THROW(load_block(block), std::invalid_argument) << block;
  }
}

TEST(Admission, StateEqualComparesLiveGroupsStrictly) {
  AdmissionController a;
  a.record_placement(1, "g", 3);
  a.record_placement(2, "h", 4);

  AdmissionController same_after_churn;
  same_after_churn.record_placement(7, "k", 1);  // a group that dies again
  same_after_churn.record_placement(2, "h", 4);
  same_after_churn.record_placement(1, "g", 3);
  same_after_churn.record_release(7, 1);
  EXPECT_TRUE(a.state_equal(same_after_churn));
  EXPECT_TRUE(same_after_churn.state_equal(a));

  AdmissionController merged;  // same VMs and PMs, one group fewer
  merged.record_placement(1, "g", 3);
  merged.record_placement(2, "g", 4);
  EXPECT_FALSE(a.state_equal(merged));
  EXPECT_FALSE(merged.state_equal(a));

  AdmissionController moved;  // same groups and VMs, another PM
  moved.record_placement(1, "g", 3);
  moved.record_placement(2, "h", 5);
  EXPECT_FALSE(a.state_equal(moved));

  AdmissionController renamed;
  renamed.record_placement(1, "g", 3);
  renamed.record_placement(2, "i", 4);
  EXPECT_FALSE(a.state_equal(renamed));

  EXPECT_FALSE(a.state_equal(AdmissionController{}));
  EXPECT_TRUE(AdmissionController{}.state_equal(AdmissionController{}));
}

}  // namespace
}  // namespace prvm
