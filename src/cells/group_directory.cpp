#include "cells/group_directory.hpp"

#include <istream>

#include "common/byte_writer.hpp"
#include "common/check.hpp"

namespace prvm {

RejectReason GroupDirectory::try_reserve(const std::string& group, std::uint64_t vm,
                                         std::uint64_t now_ms) const {
  const Member* m = member(group, vm);
  if (m == nullptr) return RejectReason::kNone;
  if (m->state == MemberState::kCommitted) return RejectReason::kDuplicateVm;
  // Pending: live until its deadline passes; an expired reservation is
  // reclaimable (the new reserve overwrites it through a fresh WAL record).
  return now_ms > m->deadline_ms ? RejectReason::kNone : RejectReason::kDuplicateVm;
}

RejectReason GroupDirectory::try_commit(const std::string& group, std::uint64_t vm,
                                        std::uint64_t cell) const {
  const Member* m = member(group, vm);
  if (m != nullptr && m->state == MemberState::kCommitted && m->cell != cell) {
    return RejectReason::kDuplicateVm;
  }
  return RejectReason::kNone;
}

void GroupDirectory::apply_reserve(const std::string& group, std::uint64_t vm,
                                   std::uint64_t token, std::uint64_t deadline_ms) {
  groups_[group][vm] = Member{MemberState::kPending, 0, token, deadline_ms};
}

void GroupDirectory::apply_commit(const std::string& group, std::uint64_t vm,
                                  std::uint64_t cell) {
  groups_[group][vm] = Member{MemberState::kCommitted, cell, 0, 0};
}

void GroupDirectory::apply_abort(const std::string& group, std::uint64_t vm) {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return;
  git->second.erase(vm);
  if (git->second.empty()) groups_.erase(git);
}

const GroupDirectory::Member* GroupDirectory::member(const std::string& group,
                                                     std::uint64_t vm) const {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return nullptr;
  const auto mit = git->second.find(vm);
  return mit == git->second.end() ? nullptr : &mit->second;
}

std::size_t GroupDirectory::member_count() const {
  std::size_t n = 0;
  for (const auto& [name, members] : groups_) n += members.size();
  return n;
}

std::size_t GroupDirectory::pending_count() const {
  std::size_t n = 0;
  for (const auto& [name, members] : groups_) {
    for (const auto& [vm, m] : members) {
      if (m.state == MemberState::kPending) ++n;
    }
  }
  return n;
}

void GroupDirectory::serialize(ByteWriter& out) const {
  out << "gdir " << groups_.size() << "\n";
  for (const auto& [name, members] : groups_) {
    out << name.size() << ":" << name << " " << members.size() << "\n";
    for (const auto& [vm, m] : members) {
      out << vm << " " << static_cast<unsigned>(m.state) << " " << m.cell << " " << m.token
          << " " << m.deadline_ms << "\n";
    }
  }
}

GroupDirectory GroupDirectory::deserialize(std::istream& is) {
  GroupDirectory dir;
  std::string tag;
  std::size_t group_count = 0;
  PRVM_REQUIRE(static_cast<bool>(is >> tag >> group_count) && tag == "gdir",
               "group directory snapshot corrupt");
  for (std::size_t g = 0; g < group_count; ++g) {
    std::size_t name_len = 0;
    char colon = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> name_len >> colon) && colon == ':' &&
                     name_len < kMaxGroupName,
                 "group directory snapshot corrupt");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    PRVM_REQUIRE(is.good(), "group directory snapshot truncated");
    std::size_t member_count = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> member_count), "group directory snapshot corrupt");
    auto& members = dir.groups_[name];
    for (std::size_t v = 0; v < member_count; ++v) {
      std::uint64_t vm = 0;
      unsigned state = 0;
      Member m;
      PRVM_REQUIRE(
          static_cast<bool>(is >> vm >> state >> m.cell >> m.token >> m.deadline_ms) &&
              (state == 1 || state == 2),
          "group directory snapshot corrupt");
      m.state = static_cast<MemberState>(state);
      members.emplace(vm, m);
    }
  }
  return dir;
}

bool GroupDirectory::state_equal(const GroupDirectory& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  for (const auto& [name, members] : groups_) {
    const auto it = other.groups_.find(name);
    if (it == other.groups_.end() || it->second.size() != members.size()) return false;
    for (const auto& [vm, m] : members) {
      const auto mit = it->second.find(vm);
      if (mit == it->second.end()) return false;
      const Member& o = mit->second;
      if (o.state != m.state || o.cell != m.cell || o.token != m.token ||
          o.deadline_ms != m.deadline_ms) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace prvm
