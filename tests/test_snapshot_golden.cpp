// Golden bytes for the service snapshot.
//
// The golden files hold the snapshot of one fixed, seeded ledger: VMs with
// several per-core and per-disk assignments, PMs freed again, and admission
// groups whose names carry ':', spaces, newlines and 0xFF bytes (one of them
// empties and is placed into again).
//
// snapshot_v1_live.golden is what the current writer produces: the
// PRVMSNAP1 layout, live groups only, in name-byte order. Both writers,
// save_snapshot (to a file) and serialize_snapshot (the in-memory blob
// follower catch-up ships), must reproduce it byte for byte. It is
// snapshot_v2_live.golden with its group-directory block cut out and byte 8
// of the magic set to '1', and a test checks that relation.
//
// The two PRVMSNAP2 files stay as recorded and must still load, their
// directory blocks (pending and committed members of the retired cross-cell
// group directory) skipped. snapshot_v2_live.golden was the previous
// writer's output; snapshot_v2.golden is the same ledger as written before
// groups were dropped with their last member (groups in creation order).
//
// On a mismatch the writer tests write the bytes they produced to
// snapshot_v1_live.golden.actual next to the golden file; copying that file
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

  CellState state() const { return CellState{dc, admission, kOpSeq}; }

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
  }
};

std::string data_path(const char* name) { return std::string(PRVM_TEST_DATA_DIR) + "/" + name; }
std::string golden_path() { return data_path("snapshot_v1_live.golden"); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Byte comparison against the recorded file; on a difference writes the
// produced bytes beside it and reports the first differing offset.
void expect_golden(const std::string& bytes, const char* writer) {
  const std::string path = golden_path();
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
  expect_golden(serialize_snapshot(ledger.state()), "serialize_snapshot");
}

TEST(SnapshotGolden, SaveSnapshotMatchesRecordedBytes) {
  const GoldenLedger ledger;
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("prvm-snap-golden-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "snapshot.bin";
  const IoStatus status = save_snapshot(path, ledger.state());
  ASSERT_TRUE(status.ok()) << status.message();
  expect_golden(read_file(path.string()), "save_snapshot");
  std::filesystem::remove_all(dir);
}

TEST(SnapshotGolden, RecordedBytesParseBackToTheLedger) {
  const GoldenLedger ledger;
  for (const std::string& path :
       {golden_path(), data_path("snapshot_v2_live.golden"), data_path("snapshot_v2.golden")}) {
    SCOPED_TRACE(path);
    const CellState parsed = parse_snapshot(read_file(path), ledger.catalog);
    EXPECT_EQ(parsed.op_seq, kOpSeq);
    EXPECT_TRUE(datacenter_state_equal(ledger.dc, parsed.dc));
    EXPECT_TRUE(ledger.admission.state_equal(parsed.admission));
    parsed.dc.check_index_invariants();
  }
}

// v1 is v2 without the group-directory section. Cut from the previous
// writer's golden, it is byte for byte the current writer's golden; cut from
// the creation-order golden, it loads to the same ledger.
TEST(SnapshotGolden, V1BlobCutFromTheGoldenStillLoads) {
  const GoldenLedger ledger;
  const auto cut_v1 = [](const std::string& v2) {
    const std::size_t gdir = v2.find("gdir ");
    const std::size_t dc = v2.find("PRVMDC01");
    EXPECT_NE(gdir, std::string::npos);
    EXPECT_NE(dc, std::string::npos);
    EXPECT_EQ(v2.compare(0, 9, "PRVMSNAP2"), 0);
    std::string v1 = v2.substr(0, gdir) + v2.substr(dc);
    v1[8] = '1';
    return v1;
  };
  EXPECT_EQ(cut_v1(read_file(data_path("snapshot_v2_live.golden"))), read_file(golden_path()));

  const CellState parsed =
      parse_snapshot(cut_v1(read_file(data_path("snapshot_v2.golden"))), ledger.catalog);
  EXPECT_EQ(parsed.op_seq, kOpSeq);
  EXPECT_TRUE(datacenter_state_equal(ledger.dc, parsed.dc));
  EXPECT_TRUE(ledger.admission.state_equal(parsed.admission));
}

}  // namespace
}  // namespace prvm
