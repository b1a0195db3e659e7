// Decision golden: every placement decision the service makes, pinned.
//
// A seeded stream of 50,000 requests runs through PlacementService::execute
// on a 2,000-PM EC2 fleet: ungrouped and grouped places, releases, migrates,
// and requests that must be rejected (duplicates, unknown VMs, a full fleet
// near the end). The stream once also sent the retired cross-cell group
// directory's reserve/commit/abort ops; it still draws their random numbers,
// so every other request and the final ledger are what they were, but sends
// nothing for them. Four hashes of what the service produced are pinned in
// data/decision_golden.txt:
//   - responses:    every response line, in order;
//   - state_digest: datacenter_state_digest of the final ledger;
//   - wal:          the bytes of wal.log after the last request;
//   - snapshot:     the bytes of the snapshot a drain then writes.
// The stream runs twice: over tables built in memory and over the same
// tables mapped from an image directory by build_score_tables. Both runs
// must hit the recorded hashes.
//
// A change that alters a decision fails here. If the change is meant to
// alter decisions, the test writes the hashes it saw to
// decision_golden.txt.actual next to the recorded file; copying that file
// over the recorded one re-records the golden (and the change says why).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/catalog.hpp"
#include "core/catalog_graphs.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

constexpr std::size_t kFleet = 2000;
constexpr std::size_t kOps = 50000;
constexpr std::size_t kGroups = 400;

// splitmix64: the stream must not depend on a standard library's
// distributions.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("prvm-decision-" + tag + "-" + std::to_string(::getpid()))) {
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

Request vm_request(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

// Picks and removes a random element (order of the rest is not kept).
std::uint64_t take(std::vector<std::uint64_t>& pool, Stream& rng) {
  const std::size_t i = rng.below(pool.size());
  const std::uint64_t value = pool[i];
  pool[i] = pool.back();
  pool.pop_back();
  return value;
}

// The four pinned hashes, one "name value" line each.
std::string run_stream(const Catalog& catalog, std::shared_ptr<const ScoreTableSet> tables,
                       const std::filesystem::path& data_dir) {
  std::filesystem::create_directories(data_dir);
  ServiceConfig config;
  config.data_dir = data_dir;
  PlacementService service(catalog, mixed_pm_fleet(catalog, kFleet), std::move(tables), config);

  Stream rng(0xdec15104);
  const std::size_t vm_types = catalog.vm_types().size();
  std::vector<std::uint64_t> live;     // VMs placed and not released
  std::size_t pending = 0;  // members the retired reserves left pending
  std::uint64_t next_vm = 1;
  std::uint64_t responses = kFnvBasis;
  std::string line;

  for (std::size_t op = 0; op < kOps; ++op) {
    const std::size_t roll = rng.below(100);
    Request request;
    if (roll < 38 || live.empty()) {  // ungrouped place
      request = vm_request(RequestOp::kPlace, next_vm++);
      request.vm_type_index = rng.below(vm_types);
    } else if (roll < 52) {  // grouped place
      request = vm_request(RequestOp::kPlace, next_vm++);
      request.vm_type_index = rng.below(vm_types);
      request.group = "g" + std::to_string(rng.below(kGroups));
    } else if (roll < 78) {  // release
      request = vm_request(RequestOp::kRelease, take(live, rng));
    } else if (roll < 86) {  // migrate
      request = vm_request(RequestOp::kMigrate, live[rng.below(live.size())]);
    } else if (roll < 92 || pending == 0) {  // retired: group reserve
      rng.below(kGroups);  // its group
      ++pending;
      continue;
    } else if (roll < 98) {  // retired: commit or abort of a pending member
      rng.below(pending);                   // the member
      if (rng.below(2) == 0) rng.below(4);  // commit, and its cell
      --pending;
      continue;
    } else {  // requests to reject: a duplicate place, an unknown release
      request = rng.below(2) == 0 ? vm_request(RequestOp::kPlace, live[rng.below(live.size())])
                                  : vm_request(RequestOp::kRelease, next_vm + 7);
      request.vm_type_index = 0;
    }
    const Response response = service.execute(request);
    if (request.op == RequestOp::kPlace && response.ok) live.push_back(request.vm_id);
    line.clear();
    encode_response_into(response, line);
    responses = fnv1a(responses, line);
  }

  std::ostringstream out;
  out << std::hex << "responses 0x" << responses << "\n"
      << std::dec << "state_digest " << datacenter_state_digest(service.datacenter()) << "\n"
      << std::hex << "wal 0x" << fnv1a(kFnvBasis, read_file(data_dir / "wal.log")) << "\n";
  service.drain();
  out << "snapshot 0x" << fnv1a(kFnvBasis, read_file(data_dir / "snapshot.bin")) << "\n";
  return out.str();
}

std::string golden_path() {
  return std::string(PRVM_TEST_DATA_DIR) + "/decision_golden.txt";
}

void expect_golden(const std::string& actual, const char* run) {
  const std::string recorded = read_file(golden_path());
  EXPECT_FALSE(recorded.empty()) << "missing golden " << golden_path();
  if (actual == recorded) return;
  std::ofstream(golden_path() + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << run << " tables decided differently from the recorded stream.\nrecorded:\n"
                << recorded << "actual (written to " << golden_path() << ".actual):\n"
                << actual;
}

TEST(DecisionGolden, SeededStreamHitsTheRecordedHashesOnBuiltAndMappedTables) {
  const Catalog catalog = ec2_sim_catalog();
  const auto built = std::make_shared<const ScoreTableSet>(
      build_score_tables(catalog, {}, std::nullopt));
  const TempDir dir("stream");
  // The two services share nothing, so the runs overlap to keep the test
  // short.
  std::future<std::string> in_memory = std::async(
      std::launch::async, [&] { return run_stream(catalog, built, dir.path() / "built"); });

  // The image directory holds the images of the tables just built, so the
  // mapped run serves the same bytes without a second build.
  const std::filesystem::path images = dir.path() / "img";
  std::filesystem::create_directories(images);
  for (std::size_t p = 0; p < built->pm_type_count(); ++p) {
    const ScoreTable& table = built->table(p);
    table.save_image(images / ("scoretable-" + table.digest_string() + ".img"));
  }
  ScoreImageReport report;
  const auto mapped = std::make_shared<const ScoreTableSet>(
      build_score_tables(catalog, {}, images, &report));
  EXPECT_EQ(report.mapped, built->pm_type_count());
  const std::string mapped_hashes = run_stream(catalog, mapped, dir.path() / "mapped");

  expect_golden(in_memory.get(), "in-memory");
  expect_golden(mapped_hashes, "mapped");
}

}  // namespace
}  // namespace prvm
