// Golden bytes for the PRVMSNAP2 service snapshot.
//
// Both golden files hold the snapshot of one fixed, seeded ledger: VMs with
// several per-core and per-disk assignments, PMs freed again, admission
// groups whose names carry ':', spaces, newlines and 0xFF bytes (one of them
// empties and is placed into again), and a group directory with pending and
// committed members.
//
// snapshot_v2_live.golden is what the current writer produces: live groups
// only, in name-byte order. Both writers of the format, save_snapshot (to a
// file) and serialize_snapshot (the in-memory blob follower catch-up ships),
// must reproduce it byte for byte.
//
// snapshot_v2.golden is the same ledger as written before groups were
// dropped with their last member (groups in creation order). It stays as
// recorded: parse_snapshot of it must rebuild the same state, and a v1
// (PRVMSNAP1) blob cut from it must still load.
//
// On a mismatch the writer tests write the bytes they produced to
// snapshot_v2_live.golden.actual next to the golden file; copying that file
// over the recorded one re-records it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

constexpr std::uint64_t kOpSeq = 918273;

struct GoldenLedger {
  Catalog catalog = ec2_catalog();
  Datacenter dc{catalog, mixed_pm_fleet(catalog, 10)};
  AdmissionController admission;
  GroupDirectory groups;

  GoldenLedger() {
    const std::string names[] = {"", "a:b", "two words", std::string("line\nbreak"),
                                 std::string("\xff\xfe:\xff", 4), ""};
    Rng rng(0x5eed2);
    VmId next_vm = 1;
    for (int op = 0; op < 90; ++op) {
      const PmIndex pm = rng.uniform_index(dc.pm_count());
      const std::size_t type = rng.uniform_index(catalog.vm_types().size());
      const auto options = dc.placements(pm, type);
      if (options.empty()) continue;
      const VmId vm = next_vm++;
      dc.place(pm, Vm{vm, type}, options[rng.uniform_index(options.size())]);
      admission.record_placement(vm, names[rng.uniform_index(std::size(names))], pm);
      if (op % 6 == 0) {
        dc.remove(vm);
        admission.record_release(vm, pm);
      }
    }
    groups.apply_reserve("a:b", 7, 11, 5000);
    groups.apply_commit("a:b", 8, 2);
    groups.apply_reserve(std::string("line\nbreak \xff", 12), 9, 12, 6000);
    groups.apply_reserve("two words", 10, 13, 7000);
    groups.apply_commit("two words", 10, 1);
  }
};

std::string golden_path() { return std::string(PRVM_TEST_DATA_DIR) + "/snapshot_v2.golden"; }
std::string live_golden_path() {
  return std::string(PRVM_TEST_DATA_DIR) + "/snapshot_v2_live.golden";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Byte comparison against the recorded file; on a difference writes the
// produced bytes beside it and reports the first differing offset.
void expect_golden(const std::string& bytes, const char* writer) {
  const std::string path = live_golden_path();
  const std::string recorded = read_file(path);
  EXPECT_FALSE(recorded.empty()) << "missing golden " << path;
  if (bytes == recorded) return;
  std::size_t at = 0;
  while (at < bytes.size() && at < recorded.size() && bytes[at] == recorded[at]) ++at;
  std::ofstream(path + ".actual", std::ios::binary) << bytes;
  ADD_FAILURE() << writer << " wrote " << bytes.size() << " bytes against " << recorded.size()
                << " recorded, first difference at offset " << at << "; actual bytes written to "
                << path << ".actual";
}

TEST(SnapshotGolden, SerializeSnapshotMatchesRecordedBytes) {
  const GoldenLedger ledger;
  ASSERT_GE(ledger.admission.grouped_vm_count(), 10u);
  ASSERT_EQ(ledger.groups.pending_count(), 2u);
  expect_golden(serialize_snapshot(ledger.dc, ledger.admission, ledger.groups, kOpSeq),
                "serialize_snapshot");
}

TEST(SnapshotGolden, SaveSnapshotMatchesRecordedBytes) {
  const GoldenLedger ledger;
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("prvm-snap-golden-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "snapshot.bin";
  const IoStatus status =
      save_snapshot(path, ledger.dc, ledger.admission, ledger.groups, kOpSeq);
  ASSERT_TRUE(status.ok()) << status.message();
  expect_golden(read_file(path.string()), "save_snapshot");
  std::filesystem::remove_all(dir);
}

TEST(SnapshotGolden, RecordedBytesParseBackToTheLedger) {
  const GoldenLedger ledger;
  for (const std::string& path : {golden_path(), live_golden_path()}) {
    SCOPED_TRACE(path);
    const ServiceSnapshot parsed = parse_snapshot(read_file(path), ledger.catalog);
    EXPECT_EQ(parsed.last_op_seq, kOpSeq);
    ASSERT_TRUE(parsed.datacenter.has_value());
    EXPECT_TRUE(datacenter_state_equal(ledger.dc, *parsed.datacenter));
    EXPECT_TRUE(ledger.admission.state_equal(parsed.admission));
    EXPECT_TRUE(ledger.groups.state_equal(parsed.groups));
    parsed.datacenter->check_index_invariants();
  }
}

// v1 is v2 without the group-directory section: it still loads, with an
// empty directory.
TEST(SnapshotGolden, V1BlobCutFromTheGoldenStillLoads) {
  const GoldenLedger ledger;
  const std::string v2 = read_file(golden_path());
  const std::size_t gdir = v2.find("gdir ");
  const std::size_t dc = v2.find("PRVMDC01");
  ASSERT_NE(gdir, std::string::npos);
  ASSERT_NE(dc, std::string::npos);
  std::string v1 = v2.substr(0, gdir) + v2.substr(dc);
  ASSERT_EQ(v1.compare(0, 9, "PRVMSNAP2"), 0);
  v1[8] = '1';

  const ServiceSnapshot parsed = parse_snapshot(v1, ledger.catalog);
  EXPECT_EQ(parsed.last_op_seq, kOpSeq);
  ASSERT_TRUE(parsed.datacenter.has_value());
  EXPECT_TRUE(datacenter_state_equal(ledger.dc, *parsed.datacenter));
  EXPECT_TRUE(ledger.admission.state_equal(parsed.admission));
  EXPECT_TRUE(parsed.groups.state_equal(GroupDirectory{}));
}

}  // namespace
}  // namespace prvm
