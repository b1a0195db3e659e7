// Fuzz the Datacenter ledger against an independent reference model: a
// plain map of VM -> (pm, assignments) with usage recomputed from scratch
// after every operation. Random interleavings of place/remove/clear across
// heterogeneous fleets must keep both models identical.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <unordered_map>

#include "cluster/datacenter.hpp"
#include "common/byte_writer.hpp"
#include "common/rng.hpp"
#include "service/snapshot.hpp"

namespace prvm {
namespace {

struct ReferenceModel {
  // vm -> (pm, assignments)
  std::map<VmId, std::pair<PmIndex, std::vector<std::pair<int, int>>>> placed;

  std::vector<int> usage_of(const Datacenter& dc, PmIndex pm) const {
    const ProfileShape& shape = dc.shape_of(pm);
    std::vector<int> usage(static_cast<std::size_t>(shape.total_dims()), 0);
    for (const auto& [vm, entry] : placed) {
      if (entry.first != pm) continue;
      for (auto [dim, amount] : entry.second) {
        usage[static_cast<std::size_t>(dim)] += amount;
      }
    }
    return usage;
  }

  std::vector<PmIndex> used_set(std::size_t pm_count) const {
    std::vector<bool> used(pm_count, false);
    for (const auto& [vm, entry] : placed) used[entry.first] = true;
    std::vector<PmIndex> result;
    for (PmIndex i = 0; i < pm_count; ++i) {
      if (used[i]) result.push_back(i);
    }
    return result;
  }
};

void expect_models_agree(const Datacenter& dc, const ReferenceModel& reference) {
  ASSERT_EQ(dc.vm_count(), reference.placed.size());
  for (PmIndex i = 0; i < dc.pm_count(); ++i) {
    const auto expected = reference.usage_of(dc, i);
    const auto actual = dc.pm(i).usage.levels();
    ASSERT_EQ(std::vector<int>(actual.begin(), actual.end()), expected) << "pm " << i;
    ASSERT_EQ(dc.pm(i).vms.size(),
              static_cast<std::size_t>(std::count_if(
                  reference.placed.begin(), reference.placed.end(),
                  [&](const auto& e) { return e.second.first == i; })));
  }
  // used_pms as a set (order is activation order, the reference only has
  // the set).
  std::vector<PmIndex> used = dc.used_pms();
  std::sort(used.begin(), used.end());
  ASSERT_EQ(used, reference.used_set(dc.pm_count()));
  for (const auto& [vm, entry] : reference.placed) {
    ASSERT_EQ(dc.pm_of(vm), std::optional<PmIndex>{entry.first});
  }
}

TEST(DatacenterFuzz, RandomOperationSequencesMatchReference) {
  Rng rng(0xfeedface);
  for (int trial = 0; trial < 25; ++trial) {
    const Catalog catalog = ec2_catalog();
    const std::size_t pm_count = static_cast<std::size_t>(rng.uniform_int(2, 6));
    std::vector<std::size_t> fleet;
    for (std::size_t i = 0; i < pm_count; ++i) fleet.push_back(rng.uniform_index(2));
    Datacenter dc(catalog, fleet);
    ReferenceModel reference;
    std::unordered_map<VmId, std::uint64_t> samples;  // soft state, beside the model
    VmId next_id = 0;

    for (int op = 0; op < 120; ++op) {
      const int dice = rng.uniform_int(0, 99);
      if (dice < 55) {
        // Place a random VM type on a random PM with a random permutation.
        const PmIndex pm = rng.uniform_index(pm_count);
        const std::size_t type = rng.uniform_index(catalog.vm_types().size());
        const auto options = dc.placements(pm, type);
        if (options.empty()) continue;
        const auto& placement = options[rng.uniform_index(options.size())];
        const Vm vm{next_id++, type};
        dc.place(pm, vm, placement);
        reference.placed[vm.id] = {pm, placement.assignments};
        // Derived from the id, so the op stream drawn from rng is unchanged.
        samples[vm.id] = 0x9e3779b97f4a7c15ULL * (vm.id + 1ULL);
        ASSERT_TRUE(dc.set_vm_sample(vm.id, samples[vm.id]));
      } else if (dice < 95) {
        if (reference.placed.empty()) continue;
        // Remove a random placed VM.
        auto it = reference.placed.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform_index(reference.placed.size())));
        ASSERT_EQ(dc.remove(it->first).sample, samples[it->first]);
        ASSERT_EQ(dc.vm_sample(it->first), 0u);
        samples.erase(it->first);
        reference.placed.erase(it);
      } else {
        dc.clear();
        reference.placed.clear();
        samples.clear();
      }
      expect_models_agree(dc, reference);
      for (const auto& [vm, sample] : samples) ASSERT_EQ(dc.vm_sample(vm), sample);
      // The bucket index, earliest members included, through place, remove
      // and clear.
      ASSERT_NO_THROW(dc.check_index_invariants());
    }

    // Serialize/deserialize round trip at the end of every trial: the
    // restored ledger must be bit-identical under the full recovery
    // predicate (usage, activation sequences, bucket index, free-list) and
    // still agree with the reference model.
    std::string bytes;
    ByteWriter out(bytes);
    dc.serialize(out);
    std::istringstream blob(bytes);
    Datacenter restored = Datacenter::deserialize(catalog, blob);
    ASSERT_TRUE(datacenter_state_equal(dc, restored));
    restored.check_index_invariants();
    expect_models_agree(restored, reference);
    for (const auto& [vm, sample] : samples) {
      ASSERT_EQ(restored.vm_sample(vm), 0u) << "samples are not snapshot state";
    }

    // The restored ledger is live, not a dead copy: mutating both in
    // lockstep keeps them identical (activation counters were restored too).
    if (!reference.placed.empty()) {
      const VmId victim = reference.placed.begin()->first;
      dc.remove(victim);
      restored.remove(victim);
      ASSERT_TRUE(datacenter_state_equal(dc, restored));
      ASSERT_NO_THROW(restored.check_index_invariants());
    }
  }
}

TEST(DatacenterFuzz, SerializeRejectsCorruptBlobs) {
  const Catalog catalog = ec2_catalog();
  Datacenter dc(catalog, {0, 1});
  const auto options = dc.placements(0, 0);
  ASSERT_FALSE(options.empty());
  dc.place(0, Vm{1, 0}, options.front());

  std::string bytes;
  ByteWriter out(bytes);
  dc.serialize(out);

  // Truncations and a flipped magic byte must throw, not crash or return a
  // half-restored ledger.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4}, bytes.size() / 2}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(Datacenter::deserialize(catalog, truncated), std::exception) << cut;
  }
  std::string flipped = bytes;
  flipped[0] ^= 0x40;
  std::stringstream bad_magic(flipped);
  EXPECT_THROW(Datacenter::deserialize(catalog, bad_magic), std::exception);
}

TEST(DatacenterFuzz, FitsAgreesWithPlacementsEverywhere) {
  Rng rng(0xabcdef);
  const Catalog catalog = ec2_catalog();
  for (int trial = 0; trial < 10; ++trial) {
    Datacenter dc(catalog, {0, 1});
    VmId next_id = 0;
    for (int op = 0; op < 40; ++op) {
      const PmIndex pm = rng.uniform_index(2);
      const std::size_t type = rng.uniform_index(catalog.vm_types().size());
      const auto options = dc.placements(pm, type);
      ASSERT_EQ(dc.fits(pm, type), !options.empty());
      if (!options.empty() && rng.chance(0.7)) {
        dc.place(pm, Vm{next_id++, type}, options[rng.uniform_index(options.size())]);
      }
    }
  }
}

}  // namespace
}  // namespace prvm
