#include "service/snapshot.hpp"

#include <fcntl.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/byte_writer.hpp"
#include "common/check.hpp"

namespace prvm {

namespace {

constexpr char kHeaderMagicV1[] = "PRVMSNAP1";
constexpr char kHeaderMagicV2[] = "PRVMSNAP2";

void write_snapshot(ByteWriter& out, const CellState& state) {
  out << kHeaderMagicV1 << " " << state.op_seq << "\n";
  state.admission.serialize(out);
  state.dc.serialize(out);
}

}  // namespace

void CellState::apply(const WalRecord& record) {
  const VmId vm = static_cast<VmId>(record.vm);
  const auto pm = static_cast<PmIndex>(record.pm);
  switch (record.type) {
    case WalRecord::Type::kPlace:
      dc.place(pm, Vm{vm, static_cast<std::size_t>(record.vm_type)}, record.assignments);
      admission.record_placement(vm, record.group, pm);
      break;
    case WalRecord::Type::kRelease:
      dc.remove(vm);
      admission.record_release(vm, pm);
      break;
    case WalRecord::Type::kMigrate: {
      // The degenerate pm == from_pm record of a failed migrate runs the
      // same remove+place: it moves the PM's activation sequence number.
      const Datacenter::PlacedVm removed = dc.remove(vm);
      admission.record_release(vm, static_cast<PmIndex>(record.from_pm));
      dc.place(pm, removed.vm, record.assignments);
      dc.set_vm_sample(vm, removed.sample);  // a migrated VM keeps its sample
      admission.record_placement(vm, record.group, pm);
      break;
    }
    case WalRecord::Type::kRetiredGroupReserve:
    case WalRecord::Type::kRetiredGroupCommit:
    case WalRecord::Type::kRetiredGroupAbort:
      break;  // a log written before these were retired: op_seq only
  }
  op_seq = record.op_seq;
}

IoStatus save_snapshot(const std::filesystem::path& path, const CellState& state, IoEnv* env) {
  IoEnv& io = env != nullptr ? *env : IoEnv::real();
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }

  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = io.open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoStatus::failure(-fd, "open(" + tmp.string() + ")");

  // Stream the snapshot through one bounded chunk. Once a write fails the
  // rest is dropped and the function returns before the rename, so the
  // partial temp file never replaces the previous snapshot; the next save
  // truncates it and writes it whole.
  const std::string what = "write(" + tmp.string() + ")";
  IoStatus status;
  std::string chunk;
  chunk.reserve(kSnapshotChunkBytes);
  ByteWriter out(chunk, kSnapshotChunkBytes, [&](std::string_view bytes) {
    if (status.ok()) status = io_write_all(io, fd, bytes.data(), bytes.size(), what);
  });
  write_snapshot(out, state);
  out.finish();
  if (status.ok()) status = io_fsync(io, fd, "fsync(" + tmp.string() + ")");
  const IoStatus close_status = io_close(io, fd, "close(" + tmp.string() + ")");
  if (status.ok()) status = close_status;
  if (!status.ok()) return status;

  const int rc = io.rename(tmp.c_str(), path.c_str());
  if (rc != 0) {
    return IoStatus::failure(-rc, "rename(" + tmp.string() + " -> " + path.string() + ")");
  }

  // fsync the parent directory: the rename itself is metadata, and until
  // the directory hits the platter a power loss can make the *renamed*
  // snapshot vanish — fatal once the WAL it covers has been truncated.
  const std::filesystem::path parent = path.has_parent_path() ? path.parent_path() : ".";
  const int dirfd = io.open(parent.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (dirfd < 0) return IoStatus::failure(-dirfd, "open(" + parent.string() + ")");
  status = io_fsync(io, dirfd, "fsync(" + parent.string() + ")");
  const IoStatus dir_close = io_close(io, dirfd, "close(" + parent.string() + ")");
  return status.ok() ? dir_close : status;
}

namespace {

/// Reads past a v2 file's group-directory block ("gdir <groups>", then per
/// group "<len>:<name> <members>" and five numbers per member), checking its
/// shape as it goes.
void skip_group_directory(std::istream& is) {
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
    PRVM_REQUIRE(static_cast<bool>(is.ignore(static_cast<std::streamsize>(name_len))) &&
                     is.gcount() == static_cast<std::streamsize>(name_len),
                 "group directory snapshot truncated");
    std::size_t member_count = 0;
    PRVM_REQUIRE(static_cast<bool>(is >> member_count), "group directory snapshot corrupt");
    for (std::size_t v = 0; v < member_count; ++v) {
      std::uint64_t fields[5];
      for (std::uint64_t& field : fields) {
        PRVM_REQUIRE(static_cast<bool>(is >> field), "group directory snapshot corrupt");
      }
    }
  }
}

CellState read_snapshot_stream(std::istream& is, const Catalog& catalog, const std::string& what) {
  std::string magic;
  std::uint64_t op_seq = 0;
  PRVM_REQUIRE(static_cast<bool>(is >> magic >> op_seq) &&
                   (magic == kHeaderMagicV1 || magic == kHeaderMagicV2),
               "not a service snapshot: " + what);
  is.get();  // the newline after the header
  AdmissionController admission = AdmissionController::deserialize(is);
  if (magic == kHeaderMagicV2) {
    while (is.peek() == '\n') is.get();
    skip_group_directory(is);
  }
  // Each text block ends with a newline; the datacenter blob starts at the
  // next byte. operator>> left the stream right after the last token, so
  // skip the single separator.
  while (is.peek() == '\n') is.get();
  return CellState{Datacenter::deserialize(catalog, is), std::move(admission), op_seq};
}

}  // namespace

std::optional<CellState> load_snapshot(const std::filesystem::path& path,
                                       const Catalog& catalog) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    // Only a missing file means "no snapshot yet". Recovering from an empty
    // ledger past any other open failure (EACCES, EIO, ELOOP) would replay
    // only the post-snapshot WAL tail and silently drop every VM the
    // snapshot holds.
    std::error_code ec;
    static_cast<void>(std::filesystem::status(path, ec));
    if (ec == std::errc::no_such_file_or_directory) return std::nullopt;
    throw std::runtime_error("cannot open snapshot " + path.string() +
                             (ec ? ": " + ec.message() : std::string()));
  }
  return read_snapshot_stream(is, catalog, path.string());
}

std::string serialize_snapshot(const CellState& state) {
  std::string blob;
  ByteWriter out(blob);
  write_snapshot(out, state);
  return blob;
}

CellState parse_snapshot(const std::string& blob, const Catalog& catalog) {
  std::istringstream is(blob, std::ios::binary);
  return read_snapshot_stream(is, catalog, "replication snapshot blob");
}

bool datacenter_state_equal(const Datacenter& a, const Datacenter& b) {
  if (a.pm_count() != b.pm_count() || a.vm_count() != b.vm_count() ||
      a.used_pms() != b.used_pms() || a.activation_counter() != b.activation_counter()) {
    return false;
  }
  for (PmIndex i = 0; i < a.pm_count(); ++i) {
    const Datacenter::PmView pa = a.pm(i);
    const Datacenter::PmView pb = b.pm(i);
    if (pa.type_index != pb.type_index || pa.canonical_key != pb.canonical_key) return false;
    const auto la = pa.usage.levels();
    const auto lb = pb.usage.levels();
    if (!std::equal(la.begin(), la.end(), lb.begin(), lb.end())) return false;
    if (pa.vms.size() != pb.vms.size()) return false;
    for (auto va = pa.vms.begin(), vb = pb.vms.begin(); va != pa.vms.end(); ++va, ++vb) {
      const Datacenter::PlacedVm x = *va;
      const Datacenter::PlacedVm y = *vb;
      if (x.vm.id != y.vm.id || x.vm.type_index != y.vm.type_index ||
          x.assignments != y.assignments) {
        return false;
      }
    }
    if (pa.used() && a.activation_seq(i) != b.activation_seq(i)) return false;
  }
  // Bucket membership per (PM type, canonical key). Dense-array order is a
  // non-observable artifact of insertion history, so compare as sets.
  for (std::size_t t = 0; t < a.catalog().pm_types().size(); ++t) {
    if (a.used_count_of_type(t) != b.used_count_of_type(t) ||
        a.used_bucket_count(t) != b.used_bucket_count(t)) {
      return false;
    }
    bool equal = true;
    a.for_each_used_bucket(t, [&](ProfileKey key, Datacenter::BucketView pms) {
      const Datacenter::BucketView other = b.used_bucket(t, key);
      if (other.empty() || other.size() != pms.size()) {
        equal = false;
        return;
      }
      std::vector<PmIndex> lhs(pms.begin(), pms.end());
      std::vector<PmIndex> rhs(other.begin(), other.end());
      std::sort(lhs.begin(), lhs.end());
      std::sort(rhs.begin(), rhs.end());
      if (lhs != rhs) equal = false;
    });
    if (!equal) return false;
  }
  // Free-list bitmap: same next_unused chain.
  auto ua = a.next_unused(0);
  auto ub = b.next_unused(0);
  while (ua.has_value() && ub.has_value()) {
    if (*ua != *ub) return false;
    ua = a.next_unused(*ua + 1);
    ub = b.next_unused(*ub + 1);
  }
  return !ua.has_value() && !ub.has_value();
}

std::uint64_t datacenter_state_digest(const Datacenter& dc) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(dc.pm_count());
  mix(dc.vm_count());
  mix(dc.activation_counter());
  for (const PmIndex i : dc.used_pms()) {
    mix(i);
    mix(dc.activation_seq(i));
    const Datacenter::PmView pm = dc.pm(i);
    mix(pm.vms.size());
    for (const Datacenter::PlacedVm& placed : pm.vms) {
      mix(placed.vm.id);
      mix(placed.vm.type_index);
      for (auto [dim, amount] : placed.assignments) {
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(dim)));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(amount)));
      }
    }
  }
  return h;
}

}  // namespace prvm
