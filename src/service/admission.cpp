#include "service/admission.hpp"

#include <algorithm>
#include <istream>

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

PlacementConstraints AdmissionController::constraints_for(const std::string& group) const {
  PlacementConstraints constraints;
  if (group.empty()) return constraints;
  const auto it = group_ids_.find(group);
  if (it == group_ids_.end() || groups_[it->second].pms.empty()) return constraints;
  // The veto set is tiny (one entry per already-placed group member);
  // copying it into the closure keeps the constraints valid independently
  // of controller mutations.
  const std::unordered_map<PmIndex, std::size_t>& vetoed = groups_[it->second].pms;
  constraints.allow = [vetoed](const Datacenter&, PmIndex pm) { return !vetoed.contains(pm); };
  return constraints;
}

std::uint32_t AdmissionController::group_id(const std::string& name) {
  const auto [it, inserted] =
      group_ids_.try_emplace(name, static_cast<std::uint32_t>(groups_.size()));
  if (inserted) groups_.push_back(Group{name, {}});
  return it->second;
}

void AdmissionController::record_placement(VmId vm, const std::string& group, PmIndex pm) {
  if (group.empty()) return;
  const std::uint32_t id = group_id(group);
  PRVM_REQUIRE(group_of_vm_.emplace(vm, id).second, "VM already recorded in a group");
  ++groups_[id].pms[pm];
}

void AdmissionController::record_release(VmId vm, PmIndex pm) {
  const auto it = group_of_vm_.find(vm);
  if (it == group_of_vm_.end()) return;
  Group& group = groups_[it->second];
  const auto pit = group.pms.find(pm);
  PRVM_CHECK(pit != group.pms.end(), "group PM count out of sync");
  if (--pit->second == 0) group.pms.erase(pit);
  group_of_vm_.erase(it);
}

const std::string& AdmissionController::group_of(VmId vm) const {
  static const std::string kEmpty;
  const auto it = group_of_vm_.find(vm);
  if (it == group_of_vm_.end()) return kEmpty;
  return groups_[it->second].name;
}

void AdmissionController::serialize(ByteWriter& out) const {
  // Text block: group count, then per group its name and PM counts, then
  // the VM -> group map. Names are written length-prefixed so arbitrary
  // bytes survive.
  out << "groups " << groups_.size() << "\n";
  for (const Group& group : groups_) {
    out << group.name.size() << ":" << group.name << " " << group.pms.size();
    // Deterministic order keeps snapshots byte-stable for identical state.
    std::vector<std::pair<PmIndex, std::size_t>> sorted(group.pms.begin(), group.pms.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [pm, count] : sorted) out << " " << pm << " " << count;
    out << "\n";
  }
  std::vector<std::pair<VmId, std::uint32_t>> vms(group_of_vm_.begin(), group_of_vm_.end());
  std::sort(vms.begin(), vms.end());
  out << "vms " << vms.size() << "\n";
  for (const auto& [vm, group] : vms) out << vm << " " << group << "\n";
}

AdmissionController AdmissionController::deserialize(std::istream& is) {
  AdmissionController ac;
  std::string tag;
  std::size_t group_count = 0;
  PRVM_REQUIRE(static_cast<bool>(is >> tag >> group_count) && tag == "groups",
               "admission snapshot corrupt");
  ac.groups_.reserve(group_count);
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
    Group group{std::move(name), {}};
    for (std::size_t p = 0; p < pm_count; ++p) {
      PmIndex pm = 0;
      std::size_t count = 0;
      PRVM_REQUIRE(static_cast<bool>(is >> pm >> count) && count > 0,
                   "admission snapshot corrupt");
      group.pms.emplace(pm, count);
    }
    ac.group_ids_.emplace(group.name, static_cast<std::uint32_t>(ac.groups_.size()));
    ac.groups_.push_back(std::move(group));
  }
  std::size_t vm_count = 0;
  PRVM_REQUIRE(static_cast<bool>(is >> tag >> vm_count) && tag == "vms",
               "admission snapshot corrupt");
  for (std::size_t v = 0; v < vm_count; ++v) {
    VmId vm = 0;
    std::uint32_t group = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> vm >> group) && group < ac.groups_.size(),
                 "admission snapshot corrupt");
    ac.group_of_vm_.emplace(vm, group);
  }
  return ac;
}

bool AdmissionController::state_equal(const AdmissionController& other) const {
  if (group_of_vm_.size() != other.group_of_vm_.size()) return false;
  for (const auto& [vm, group] : group_of_vm_) {
    if (other.group_of(vm) != groups_[group].name) return false;
  }
  // Compare group -> PM multisets by name (ids may differ by creation order).
  for (const Group& group : groups_) {
    const auto it = other.group_ids_.find(group.name);
    const bool empty = group.pms.empty();
    if (it == other.group_ids_.end()) {
      if (!empty) return false;
      continue;
    }
    if (other.groups_[it->second].pms != group.pms) return false;
  }
  for (const Group& group : other.groups_) {
    if (!group.pms.empty() && !group_ids_.contains(group.name)) return false;
  }
  return true;
}

}  // namespace prvm
