#include "service/admission.hpp"

#include <algorithm>
#include <istream>
#include <limits>

#include "common/byte_writer.hpp"
#include "common/check.hpp"

namespace prvm {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kUnknownVmType: return "unknown_vm_type";
    case RejectReason::kDuplicateVm: return "duplicate_vm";
    case RejectReason::kUnknownVm: return "unknown_vm";
    case RejectReason::kGroupConflict: return "group_conflict";
    case RejectReason::kNoCapacity: return "no_capacity";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kDegradedStorage: return "degraded_storage";
    case RejectReason::kNotLeader: return "not_leader";
    case RejectReason::kNotFollower: return "not_follower";
    case RejectReason::kNotReplicated: return "not_replicated";
  }
  return "?";
}

namespace {

// Group PM sets hold PMs as 32-bit ids; a PM index beyond that range cannot
// come from any fleet this daemon builds.
std::uint32_t pm_key(PmIndex pm) {
  PRVM_REQUIRE(pm <= std::numeric_limits<std::uint32_t>::max(),
               "PM index out of range for a group record");
  return static_cast<std::uint32_t>(pm);
}

// The first entry of the sorted `pms` whose PM is not below `pm`.
template <typename PmCounts>
auto lower_bound_pm(PmCounts& pms, PmIndex pm) {
  return std::lower_bound(pms.begin(), pms.end(), pm,
                          [](const auto& entry, PmIndex key) { return entry.pm < key; });
}

}  // namespace

PlacementConstraints AdmissionController::constraints_for(const std::string& group) const {
  PlacementConstraints constraints;
  if (group.empty()) return constraints;
  const std::uint32_t id = find_group(group);
  if (id == kNoGroup) return constraints;
  // One pointer fits std::function's small buffer: a grouped place copies
  // no veto set and allocates nothing. Both callers run the engine before
  // they mutate the controller, which is all the pointer needs.
  const std::vector<PmCount>* vetoed = &groups_[id].pms;
  constraints.allow = [vetoed](const Datacenter&, PmIndex pm) {
    const auto entry = lower_bound_pm(*vetoed, pm);
    return entry == vetoed->end() || entry->pm != pm;
  };
  return constraints;
}

std::uint32_t AdmissionController::group_id(const std::string& name) {
  std::uint32_t id = find_group(name);
  if (id != kNoGroup) return id;
  if (free_slots_.empty()) {
    id = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
  } else {
    id = free_slots_.back();
    free_slots_.pop_back();
  }
  groups_[id].name = name;
  group_ids_.insert(id, group_name());
  return id;
}

void AdmissionController::drop_group(std::uint32_t id) {
  Group& group = groups_[id];
  group_ids_.erase(id, group_name());
  // Swapped with empties: clear() would keep the storage.
  std::string().swap(group.name);
  std::vector<PmCount>().swap(group.pms);
  free_slots_.push_back(id);
}

void AdmissionController::record_placement(VmId vm, const std::string& group, PmIndex pm) {
  if (group.empty()) return;
  const std::uint32_t key = pm_key(pm);
  PRVM_REQUIRE(group_of_vm_.find(vm) == kNoGroup, "VM already recorded in a group");
  const std::uint32_t id = group_id(group);
  group_of_vm_.insert(vm, id);
  std::vector<PmCount>& pms = groups_[id].pms;
  const auto entry = lower_bound_pm(pms, key);
  if (entry != pms.end() && entry->pm == key) {
    ++entry->count;
  } else {
    pms.insert(entry, PmCount{key, 1});
  }
}

void AdmissionController::record_release(VmId vm, PmIndex pm) {
  const std::uint32_t id = group_of_vm_.find(vm);
  if (id == kNoGroup) return;
  std::vector<PmCount>& pms = groups_[id].pms;
  const auto entry = lower_bound_pm(pms, pm);
  PRVM_CHECK(entry != pms.end() && entry->pm == pm, "group PM count out of sync");
  group_of_vm_.erase(vm);
  if (--entry->count == 0) {
    pms.erase(entry);
    if (pms.empty()) drop_group(id);
  }
}

const std::string& AdmissionController::group_of(VmId vm) const {
  static const std::string kEmpty;
  const std::uint32_t id = group_of_vm_.find(vm);
  return id == kNoGroup ? kEmpty : groups_[id].name;
}

void AdmissionController::serialize(ByteWriter& out) const {
  // Text block: group count, then per group its name and PM counts, then
  // the VM -> group map. Names are written length-prefixed so arbitrary
  // bytes survive. Groups go out in name-byte order and a VM names its group
  // by rank in that order, so identical live state gives identical bytes
  // whatever its history. The sort compares the names' first 8 bytes as one
  // integer and whole names only on a tie: string compares alone took over
  // 1 ms for 5.5k groups, a third of the block's cost.
  struct Ranked {
    std::uint64_t prefix = 0;
    std::uint32_t id = 0;
  };
  std::vector<Ranked> order;
  order.reserve(group_ids_.size());
  for (std::uint32_t id = 0; id < groups_.size(); ++id) {
    const std::string& name = groups_[id].name;
    if (name.empty()) continue;  // a free slot
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      prefix = prefix << 8 | (i < name.size() ? static_cast<unsigned char>(name[i]) : 0u);
    }
    order.push_back(Ranked{prefix, id});
  }
  std::sort(order.begin(), order.end(), [this](const Ranked& a, const Ranked& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return groups_[a.id].name < groups_[b.id].name;
  });
  std::vector<std::uint32_t> rank(groups_.size());
  out << "groups " << order.size() << "\n";
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    const Group& group = groups_[order[r].id];
    rank[order[r].id] = r;
    out << group.name.size() << ":" << group.name << " " << group.pms.size();
    for (const PmCount& entry : group.pms) out << " " << entry.pm << " " << entry.count;
    out << "\n";
  }
  // (VM id, rank) packed in one word: sorting words beats sorting pairs.
  std::vector<std::uint64_t> vms;
  vms.reserve(group_of_vm_.size());
  group_of_vm_.for_each([&](VmId vm, std::uint32_t id) {
    vms.push_back(std::uint64_t{vm} << 32 | rank[id]);
  });
  std::sort(vms.begin(), vms.end());
  out << "vms " << vms.size() << "\n";
  for (const std::uint64_t entry : vms) out << (entry >> 32) << " " << (entry & 0xFFFFFFFFu) << "\n";
}

AdmissionController AdmissionController::deserialize(std::istream& is) {
  AdmissionController ac;
  std::string tag;
  std::size_t group_count = 0;
  PRVM_REQUIRE(static_cast<bool>(is >> tag >> group_count) && tag == "groups",
               "admission snapshot corrupt");
  // File group id -> slot. Writers before live-only groups also kept groups
  // whose members had all left, with no PMs: those load as kNoGroup and are
  // dropped, and the VM ids below are remapped past them.
  std::vector<std::uint32_t> slot_of;
  for (std::size_t g = 0; g < group_count; ++g) {
    std::size_t name_len = 0;
    char colon = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> name_len >> colon) && colon == ':' &&
                     name_len < kMaxGroupName,
                 "admission snapshot corrupt");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    PRVM_REQUIRE(is.good(), "admission snapshot truncated");
    std::size_t pm_count = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> pm_count), "admission snapshot corrupt");
    if (pm_count == 0) {
      slot_of.push_back(kNoGroup);
      continue;
    }
    PRVM_REQUIRE(!name.empty() && ac.find_group(name) == kNoGroup, "admission snapshot corrupt");
    const std::uint32_t id = ac.group_id(name);
    std::vector<PmCount>& pms = ac.groups_[id].pms;
    for (std::size_t p = 0; p < pm_count; ++p) {
      std::size_t pm = 0;
      std::size_t count = 0;
      // Every writer lists a group's PMs in increasing order.
      PRVM_REQUIRE(static_cast<bool>(is >> pm >> count) && count > 0 &&
                       count <= std::numeric_limits<std::uint32_t>::max() &&
                       (pms.empty() || pm > pms.back().pm),
                   "admission snapshot corrupt");
      pms.push_back(PmCount{pm_key(pm), static_cast<std::uint32_t>(count)});
    }
    slot_of.push_back(id);
  }
  std::size_t vm_count = 0;
  PRVM_REQUIRE(static_cast<bool>(is >> tag >> vm_count) && tag == "vms",
               "admission snapshot corrupt");
  std::vector<std::size_t> members(ac.groups_.size());
  for (std::size_t v = 0; v < vm_count; ++v) {
    VmId vm = 0;
    std::size_t group = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> vm >> group) && group < slot_of.size() &&
                     slot_of[group] != kNoGroup &&
                     ac.group_of_vm_.insert(vm, slot_of[group]),
                 "admission snapshot corrupt");
    ++members[slot_of[group]];
  }
  // Every group must be freed by its members' releases: its PM counts add
  // up to the VMs that name it.
  for (std::uint32_t id = 0; id < ac.groups_.size(); ++id) {
    std::size_t hosted = 0;
    for (const PmCount& entry : ac.groups_[id].pms) hosted += entry.count;
    PRVM_REQUIRE(hosted == members[id], "admission snapshot corrupt");
  }
  return ac;
}

bool AdmissionController::state_equal(const AdmissionController& other) const {
  if (group_ids_.size() != other.group_ids_.size() ||
      group_of_vm_.size() != other.group_of_vm_.size()) {
    return false;
  }
  bool equal = true;
  group_of_vm_.for_each([&](VmId vm, std::uint32_t id) {
    equal &= other.group_of(vm) == groups_[id].name;
  });
  if (!equal) return false;
  group_ids_.for_each([&](std::uint32_t id) {
    const std::uint32_t other_id = other.find_group(groups_[id].name);
    equal &= other_id != kNoGroup && groups_[id].pms == other.groups_[other_id].pms;
  });
  return equal;
}

}  // namespace prvm
