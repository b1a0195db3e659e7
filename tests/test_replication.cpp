// Replication & failover tests (DESIGN.md §8): the WAL reader's torn-tail
// vs mid-file-corruption verdicts, leader->follower streaming over a real
// socket with ack_after_replicated, snapshot catch-up of a follower that
// joined mid-stream, promotion semantics, not_leader routing hints, and a
// follower whose disk fails mid-replication (the leader must stay healthy
// and re-converge once the follower recovers).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "cluster/catalog.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "service/binary_protocol.hpp"
#include "service/io_env.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/cell_server.hpp"
#include "service/wal.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("prvm-repl-" + tag + "-" + std::to_string(::getpid()));
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

Request place_request(std::uint64_t vm, std::size_t type, std::string group = "") {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

Request vm_request(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

std::string extra_of(const Response& response, const std::string& key) {
  for (const auto& [k, v] : response.extra) {
    if (k == key) return v;
  }
  return "";
}

WalRecord sample_record(std::uint64_t seq) {
  WalRecord record;
  record.type = seq % 2 == 0 ? WalRecord::Type::kPlace : WalRecord::Type::kRelease;
  record.op_seq = seq;
  record.vm = seq * 11;
  record.pm = seq * 3;
  if (seq % 3 == 0) record.group = "g" + std::to_string(seq);
  record.assignments.emplace_back(0, static_cast<int>(seq % 7) + 1);
  return record;
}

// ---------------------------------------------------------------------------
// WalReader verdicts: a torn FINAL frame is the normal kill -9 signature;
// a complete mid-file frame failing its CRC is disk damage — acknowledged
// records after it are gone, and the two must not be confused.

TEST(ReplicationWal, TornFinalFrameReportsTornTail) {
  TempDir dir("torn");
  const auto path = dir.path() / "wal.log";
  std::vector<WalRecord> written;
  {
    WalWriter writer(path);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      written.push_back(sample_record(seq));
      writer.append(written.back());
    }
    writer.flush();
  }
  // Append half a frame, as a crash mid-write would.
  const std::string frame = encode_wal_frame(sample_record(6));
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }
  const WalReadResult result = read_wal_ex(path);
  EXPECT_EQ(result.records, written);
  EXPECT_EQ(result.tail, WalTailStatus::kTornTail);
  EXPECT_EQ(result.discarded_bytes, frame.size() / 2);
  EXPECT_EQ(result.valid_bytes,
            std::filesystem::file_size(path) - result.discarded_bytes);
}

TEST(ReplicationWal, MidFileCorruptionReportsCorrupt) {
  TempDir dir("corrupt");
  const auto path = dir.path() / "wal.log";
  std::vector<WalRecord> written;
  {
    WalWriter writer(path);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      written.push_back(sample_record(seq));
      writer.append(written.back());
    }
    writer.flush();
  }
  // Flip one payload byte inside the SECOND frame: its CRC check must fail,
  // and replay must stop there even though later frames are intact.
  const std::size_t first = encode_wal_frame(sample_record(1)).size();
  {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(static_cast<std::streamoff>(first + 8 + 1));
    char byte = 0;
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    io.seekp(static_cast<std::streamoff>(first + 8 + 1));
    io.write(&byte, 1);
  }
  const WalReadResult result = read_wal_ex(path);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], written[0]);
  EXPECT_EQ(result.tail, WalTailStatus::kCorrupt);
  EXPECT_EQ(result.valid_bytes, first);
  EXPECT_EQ(result.discarded_bytes, std::filesystem::file_size(path) - first);
}

// ---------------------------------------------------------------------------
// Leader -> follower streaming over a real socket.

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  /// Builds a follower service listening on `socket_path` and a leader
  /// replicating to it. Both persist under `dir`.
  void boot_pair(const TempDir& dir, const std::string& socket_path,
                 std::size_t ack_replicas, IoEnv* follower_env = nullptr) {
    std::filesystem::create_directories(dir.path() / "follower");
    std::filesystem::create_directories(dir.path() / "leader");

    ServiceConfig follower_config;
    follower_config.data_dir = dir.path() / "follower";
    follower_config.repl.follower = true;
    follower_config.repl.leader_hint = "unix:leader.sock";
    follower_config.probe_initial_ms = 20;
    follower_config.probe_max_ms = 100;
    follower_config.metrics = std::make_shared<obs::Registry>();
    if (follower_env != nullptr) {
      follower_config.io_env = std::shared_ptr<IoEnv>(follower_env, [](IoEnv*) {});
    }
    follower_ = std::make_unique<PlacementService>(
        catalog_, mixed_pm_fleet(catalog_, 40), tables_, follower_config);
    follower_->start();
    SocketServerConfig socket_config;
    socket_config.unix_path = socket_path;
    socket_config.max_frame = kMaxReplFrameBytes;
    server_ = std::make_unique<CellServer>(*follower_, socket_config);
    server_->start();

    ServiceConfig leader_config;
    leader_config.data_dir = dir.path() / "leader";
    leader_config.repl.replicas = {"unix:" + socket_path};
    leader_config.repl.ack_replicas = ack_replicas;
    leader_config.repl.ack_timeout_ms = 5000;
    leader_config.metrics = std::make_shared<obs::Registry>();
    leader_ = std::make_unique<PlacementService>(
        catalog_, mixed_pm_fleet(catalog_, 40), tables_, leader_config);
    leader_->start();
  }

  /// Stops both loops (and the follower's server), so the ledgers can be
  /// read directly; the pointers stay for the assertions.
  void quiesce() {
    if (leader_ != nullptr) leader_->stop_now();
    if (server_ != nullptr) server_->stop();
    if (follower_ != nullptr) follower_->stop_now();
  }

  void teardown_pair() {
    quiesce();
    leader_.reset();
    server_.reset();
    follower_.reset();
  }

  /// A live service's op_seq, read in-band: stats() is loop-owned state.
  static std::uint64_t op_seq_of(PlacementService& service) {
    Request stats;
    stats.op = RequestOp::kStats;
    return std::stoull(extra_of(service.submit(stats).get(), "op_seq"));
  }

  /// Waits until the follower's applied op_seq reaches the leader's.
  bool converged(std::chrono::seconds budget = 20s) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    const std::uint64_t target = op_seq_of(*leader_);
    while (std::chrono::steady_clock::now() < deadline) {
      if (op_seq_of(*follower_) >= target) return true;
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
  std::unique_ptr<PlacementService> follower_;
  std::unique_ptr<CellServer> server_;
  std::unique_ptr<PlacementService> leader_;
};

TEST_F(ReplicationTest, FollowerMirrorsLeaderUnderAckAfterReplicated) {
  TempDir dir("mirror");
  boot_pair(dir, (dir.path() / "f.sock").string(), /*ack_replicas=*/1);

  // With ack_replicas=1 every ack means the follower confirmed the frames,
  // so after the last .get() the follower has applied every op.
  for (std::uint64_t vm = 1; vm <= 20; ++vm) {
    const std::string group = vm % 4 == 0 ? "web" : "";
    ASSERT_TRUE(leader_->submit(place_request(vm, vm % 3, group)).get().ok);
  }
  for (std::uint64_t vm = 1; vm <= 20; vm += 5) {
    ASSERT_TRUE(leader_->submit(vm_request(RequestOp::kRelease, vm)).get().ok);
  }
  ASSERT_TRUE(converged());

  // The follower serves reads but routes writers to the leader.
  const Response looked = follower_->submit(vm_request(RequestOp::kLookup, 2)).get();
  EXPECT_TRUE(looked.ok);
  const Response rejected = follower_->submit(place_request(999, 0)).get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "not_leader");
  EXPECT_EQ(extra_of(rejected, "leader"), "\"unix:leader.sock\"");

  quiesce();
  EXPECT_TRUE(datacenter_state_equal(leader_->datacenter(), follower_->datacenter()));
  EXPECT_EQ(datacenter_state_digest(leader_->datacenter()),
            datacenter_state_digest(follower_->datacenter()));

  teardown_pair();
}

TEST_F(ReplicationTest, FollowerCatchesUpFromSnapshotMidStream) {
  TempDir dir("catchup");
  const std::string socket_path = (dir.path() / "f.sock").string();
  std::filesystem::create_directories(dir.path() / "leader");

  // The leader boots first, with nobody listening at the replica endpoint,
  // and accepts best-effort traffic (ack_replicas=0: no demotions).
  ServiceConfig leader_config;
  leader_config.data_dir = dir.path() / "leader";
  leader_config.repl.replicas = {"unix:" + socket_path};
  leader_config.metrics = std::make_shared<obs::Registry>();
  leader_ = std::make_unique<PlacementService>(
      catalog_, mixed_pm_fleet(catalog_, 40), tables_, leader_config);
  leader_->start();
  for (std::uint64_t vm = 1; vm <= 15; ++vm) {
    ASSERT_TRUE(leader_->submit(place_request(vm, vm % 3)).get().ok);
  }

  // The follower appears mid-stream, behind by 15 ops: the next replicate
  // round must classify the link as needing a snapshot, install one, and
  // resume streaming live frames after it.
  std::filesystem::create_directories(dir.path() / "follower");
  ServiceConfig follower_config;
  follower_config.data_dir = dir.path() / "follower";
  follower_config.repl.follower = true;
  auto follower_registry = std::make_shared<obs::Registry>();
  follower_config.metrics = follower_registry;
  follower_ = std::make_unique<PlacementService>(
      catalog_, mixed_pm_fleet(catalog_, 40), tables_, follower_config);
  follower_->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  socket_config.max_frame = kMaxReplFrameBytes;
  server_ = std::make_unique<CellServer>(*follower_, socket_config);
  server_->start();

  // Keep trickling ops: each flush retries the down link until it joins.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::uint64_t vm = 100;
  while (std::chrono::steady_clock::now() < deadline &&
         op_seq_of(*follower_) < op_seq_of(*leader_)) {
    ASSERT_TRUE(leader_->submit(place_request(vm++, 0)).get().ok);
    std::this_thread::sleep_for(50ms);
  }
  ASSERT_TRUE(converged());
  quiesce();
  EXPECT_TRUE(datacenter_state_equal(leader_->datacenter(), follower_->datacenter()));
  EXPECT_GE(follower_registry->counter("prvm_repl_snapshots_installed_total").value(), 1u);

  teardown_pair();
}

TEST_F(ReplicationTest, PromotionFlipsRoleOnceAndOnlyOnce) {
  TempDir dir("promote");
  boot_pair(dir, (dir.path() / "f.sock").string(), /*ack_replicas=*/1);
  ASSERT_TRUE(leader_->submit(place_request(1, 0)).get().ok);
  ASSERT_TRUE(converged());

  Request promote;
  promote.op = RequestOp::kPromote;
  const Response promoted = follower_->submit(promote).get();
  ASSERT_TRUE(promoted.ok) << promoted.error;
  EXPECT_EQ(extra_of(promoted, "role"), "\"leader\"");
  EXPECT_FALSE(follower_->is_follower());

  // Double promotion is a protocol error, not an idempotent no-op: the
  // router treats not_follower as "someone beat me to it".
  const Response again = follower_->submit(promote).get();
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error, "not_follower");

  // The promoted node accepts writes; a leader never accepts promote.
  EXPECT_TRUE(follower_->submit(place_request(50, 0)).get().ok);
  const Response on_leader = leader_->submit(promote).get();
  EXPECT_FALSE(on_leader.ok);
  EXPECT_EQ(on_leader.error, "not_follower");

  teardown_pair();
}

TEST_F(ReplicationTest, FollowerDiskFaultsDoNotPoisonTheLeader) {
  TempDir dir("faulty");
  // The follower's WAL writes fail for a bounded burst: it must degrade,
  // reject the stream, recover via its storage probe, and rejoin by
  // snapshot — while the leader stays healthy and keeps acking (best
  // effort: ack_replicas=0).
  auto faulty = io_env_from_spec("write:after=10:errno=EIO:count=3");
  boot_pair(dir, (dir.path() / "f.sock").string(), /*ack_replicas=*/0,
            faulty.get());

  const auto deadline = std::chrono::steady_clock::now() + 40s;
  std::uint64_t vm = 1;
  bool follower_degraded = false;
  while (std::chrono::steady_clock::now() < deadline && vm <= 120) {
    const std::size_t type = vm % 3;
    const Response response = leader_->submit(place_request(vm++, type)).get();
    ASSERT_TRUE(response.ok) << response.error << ": " << response.message;
    if (follower_->degraded()) follower_degraded = true;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(follower_degraded) << "fault schedule never fired on the follower";
  EXPECT_FALSE(leader_->degraded());

  // Keep trickling until the follower has recovered and re-converged.
  const auto converge_deadline = std::chrono::steady_clock::now() + 40s;
  while (std::chrono::steady_clock::now() < converge_deadline &&
         (follower_->degraded() || op_seq_of(*follower_) < op_seq_of(*leader_))) {
    ASSERT_TRUE(leader_->submit(place_request(vm++, 0)).get().ok);
    std::this_thread::sleep_for(50ms);
  }
  ASSERT_TRUE(converged());
  quiesce();
  EXPECT_TRUE(datacenter_state_equal(leader_->datacenter(), follower_->datacenter()));

  teardown_pair();
}

// ---------------------------------------------------------------------------
// Follower apply paths, driven in-process.

TEST_F(ReplicationTest, FollowerAppliesRawFrameBytesFromEitherCodec) {
  // repl_frames carries the leader's WAL frames as raw bytes (length
  // prefixes and CRCs full of 0x00 and high bytes); the follower applies
  // them as they arrive, whichever codec the request crossed.
  TempDir dir("raw");
  ServiceConfig leader_config;
  leader_config.data_dir = dir.path();
  leader_config.metrics = std::make_shared<obs::Registry>();
  PlacementService leader(catalog_, mixed_pm_fleet(catalog_, 40), tables_, leader_config);
  for (std::uint64_t vm = 1; vm <= 10; ++vm) {
    ASSERT_TRUE(leader.execute(place_request(vm, vm % 3, vm % 4 == 0 ? "web" : "")).ok);
  }
  ASSERT_TRUE(leader.execute(vm_request(RequestOp::kRelease, 4)).ok);
  Request batch;
  batch.op = RequestOp::kReplFrames;
  batch.seq = leader.stats().op_seq;
  batch.data = read_file(dir.path() / "wal.log");  // append_wal_frame bytes
  ASSERT_NE(batch.data.find('\0'), std::string::npos);

  std::string json = encode_request(batch);
  json.pop_back();
  std::string binary;
  ASSERT_TRUE(encode_binary_request_into(batch, binary));
  BinaryFrameBuffer frames(kMaxReplFrameBytes);
  frames.feed(binary);
  const auto frame = frames.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->status, BinaryFrameBuffer::Status::kOk);
  for (const auto& decoded :
       {parse_binary_request(frame->payload, BinaryStringTable{}), parse_request(json)}) {
    ASSERT_NE(std::get_if<Request>(&decoded), nullptr);
    ServiceConfig follower_config;
    follower_config.repl.follower = true;
    follower_config.metrics = std::make_shared<obs::Registry>();
    PlacementService follower(catalog_, mixed_pm_fleet(catalog_, 40), tables_, follower_config);
    const Response applied = follower.execute(std::get<Request>(decoded));
    ASSERT_TRUE(applied.ok) << applied.error << ": " << applied.message;
    EXPECT_EQ(extra_of(applied, "op_seq"), std::to_string(leader.stats().op_seq));
    EXPECT_TRUE(datacenter_state_equal(leader.datacenter(), follower.datacenter()));
  }
}

TEST_F(ReplicationTest, SnapshotInstallForgetsUtilizationOfVmsItDoesNotHold) {
  ServiceConfig leader_config;
  leader_config.metrics = std::make_shared<obs::Registry>();
  PlacementService leader(catalog_, mixed_pm_fleet(catalog_, 40), tables_, leader_config);
  ServiceConfig follower_config;
  follower_config.repl.follower = true;
  follower_config.metrics = std::make_shared<obs::Registry>();
  PlacementService follower(catalog_, mixed_pm_fleet(catalog_, 40), tables_, follower_config);
  const auto install_leader_state = [&] {
    Request snap;
    snap.op = RequestOp::kReplSnapshot;
    snap.seq = leader.stats().op_seq;
    snap.offset = 0;
    snap.eof = true;
    snap.data = serialize_snapshot(leader.state());
    return follower.execute(snap);
  };

  for (std::uint64_t vm = 1; vm <= 6; ++vm) {
    ASSERT_TRUE(leader.execute(place_request(vm, vm % 3)).ok);
  }
  ASSERT_TRUE(install_leader_state().ok);
  for (std::uint64_t vm = 1; vm <= 6; ++vm) {
    Request sample;
    sample.op = RequestOp::kUtil;
    sample.vm_id = vm;
    sample.cpu = 0.5;
    ASSERT_TRUE(follower.execute(sample).ok);
  }

  // The follower misses the frames that release VMs 1-3, then resyncs.
  for (std::uint64_t vm = 1; vm <= 3; ++vm) {
    ASSERT_TRUE(leader.execute(vm_request(RequestOp::kRelease, vm)).ok);
  }
  ASSERT_TRUE(leader.execute(place_request(7, 0)).ok);
  const Response installed = install_leader_state();
  ASSERT_TRUE(installed.ok) << installed.error << ": " << installed.message;

  // A VM the snapshot does not hold has no sample: it left the ledger with
  // its slot. The VMs the snapshot holds keep theirs, and a VM new to the
  // follower starts without one.
  const Datacenter& dc = follower.datacenter();
  const UtilizationCodec& codec = follower.utilization_codec();
  const std::uint64_t now = obs::now_ns();
  for (VmId vm = 1; vm <= 3; ++vm) EXPECT_EQ(dc.vm_sample(vm), 0u) << vm;
  for (VmId vm = 4; vm <= 6; ++vm) {
    EXPECT_TRUE(codec.decayed(dc.vm_sample(vm), now).has_value()) << vm;
  }
  EXPECT_EQ(dc.vm_sample(7), 0u);
  dc.check_index_invariants();
}

}  // namespace
}  // namespace prvm
