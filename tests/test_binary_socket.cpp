// PRVB1 end-to-end over real sockets (DESIGN.md §10): the trace-replay
// differential — the same request stream driven through a raw JSON-lines
// client and the router's binary cell channel must leave byte-identical
// WALs and equal state digests behind, with semantically identical
// responses. Plus the connection-level hostile cases the codec tests
// cannot reach: garbage injected mid-stream on a live binary connection, a
// near-miss preamble falling back to JSON, and FailoverCellChannel
// qualifying a cell over the binary protocol.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "router/cell_channel.hpp"
#include "service/binary_protocol.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/cell_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("prvm-binsock-" + tag + "-" + std::to_string(::getpid()));
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

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

/// A raw Unix-domain client for driving hostile bytes at the server —
/// below the SocketCellChannel abstraction, above nothing.
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    ::sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  void send(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ::ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads until `frames` intact binary response frames arrived (damage
  /// reports from the buffer fail the test — the server must never emit a
  /// damaged frame), or the connection closes.
  std::vector<Response> recv_binary_responses(std::size_t frames) {
    std::vector<Response> responses;
    BinaryFrameBuffer buffer;
    char chunk[4096];
    while (responses.size() < frames) {
      while (const auto frame = buffer.next()) {
        EXPECT_EQ(frame->status, BinaryFrameBuffer::Status::kOk);
        EXPECT_EQ(frame->kind, BinaryFrameKind::kResponse);
        std::string error;
        const auto response = parse_binary_response(frame->payload, &error);
        EXPECT_TRUE(response.has_value()) << error;
        if (response.has_value()) responses.push_back(*response);
        if (responses.size() == frames) return responses;
      }
      const ::ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
    return responses;
  }

  /// Reads until `count` JSON-lines responses arrived.
  std::vector<Response> recv_json_responses(std::size_t count) {
    std::vector<Response> responses;
    LineBuffer buffer;
    char chunk[4096];
    while (responses.size() < count) {
      while (const auto frame = buffer.next()) {
        EXPECT_FALSE(frame->oversized);
        std::string error;
        const auto response = parse_response(frame->line, &error);
        EXPECT_TRUE(response.has_value()) << error << ": " << frame->line;
        if (response.has_value()) responses.push_back(*response);
        if (responses.size() == count) return responses;
      }
      const ::ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
    return responses;
  }

 private:
  int fd_ = -1;
};

class BinarySocketTest : public ::testing::Test {
 protected:
  BinarySocketTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  std::unique_ptr<PlacementService> make_service(ServiceConfig config) {
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 12), tables_,
                                              std::move(config));
  }

  /// A seeded churn trace over the full wire surface a router exercises:
  /// places by catalog index AND by type name (the name path is what the
  /// binary channel interns), anti-collocation groups, releases, migrates,
  /// lookups. The feedback loop runs against a throwaway in-memory service
  /// so the stream is a pure function of the seed.
  std::vector<Request> make_trace(std::uint64_t seed, int ops) {
    auto shadow = make_service(ServiceConfig{});
    Rng rng(seed);
    std::vector<Request> trace;
    std::vector<VmId> live;
    VmId next_vm = 1;
    for (int op = 0; op < ops; ++op) {
      const int dice = rng.uniform_int(0, 99);
      Request request;
      if (dice < 55 || live.empty()) {
        request.op = RequestOp::kPlace;
        request.vm_id = next_vm++;
        const std::size_t type = rng.uniform_index(catalog_.vm_types().size());
        if (rng.chance(0.5)) {
          request.vm_type_name = catalog_.vm_types()[type].name;
        } else {
          request.vm_type_index = type;
        }
        if (rng.chance(0.25)) request.group = "g" + std::to_string(rng.uniform_int(0, 2));
      } else if (dice < 75) {
        request.op = RequestOp::kRelease;
        request.vm_id = live[rng.uniform_index(live.size())];
      } else if (dice < 90) {
        request.op = RequestOp::kMigrate;
        request.vm_id = live[rng.uniform_index(live.size())];
      } else {
        request.op = RequestOp::kLookup;
        request.vm_id = live[rng.uniform_index(live.size())];
      }
      if (shadow->execute(request).ok && request.op == RequestOp::kPlace) {
        live.push_back(request.vm_id);
      } else if (request.op == RequestOp::kRelease) {
        live.erase(std::find(live.begin(), live.end(), request.vm_id));
      }
      trace.push_back(std::move(request));
    }
    return trace;
  }

  /// One complete service + socket server + client stack; replays `trace`
  /// through the router's cell channel (PRVB1) or a raw JSON-lines client
  /// and returns (responses, wal bytes, state digest).
  struct ReplayResult {
    std::vector<Response> responses;
    std::string wal;
    std::uint64_t digest = 0;
  };

  ReplayResult replay(const std::vector<Request>& trace, bool binary, const std::string& tag) {
    TempDir dir(tag);
    const std::string socket_path = (dir.path() / "cell.sock").string();
    ServiceConfig config;
    config.data_dir = dir.path();
    auto service = make_service(std::move(config));
    service->start();
    SocketServerConfig socket_config;
    socket_config.unix_path = socket_path;
    CellServer server(*service, socket_config);
    server.start();

    ReplayResult result;
    if (binary) {
      SocketCellChannel channel("unix:" + socket_path);
      std::vector<std::future<Response>> futures;
      futures.reserve(trace.size());
      for (const Request& request : trace) futures.push_back(channel.submit(request));
      result.responses.reserve(trace.size());
      for (auto& future : futures) result.responses.push_back(future.get());
    } else {
      RawClient client(socket_path);
      EXPECT_TRUE(client.ok());
      std::string lines;
      for (const Request& request : trace) encode_request_into(request, lines);
      client.send(lines);
      result.responses = client.recv_json_responses(trace.size());
    }
    server.stop();
    service->stop_now();
    result.wal = read_file(dir.path() / "wal.log");
    result.digest = datacenter_state_digest(service->datacenter());
    return result;
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(BinarySocketTest, TraceReplayDifferentialJsonVsBinary) {
  for (const std::uint64_t seed : {0xb1a5u, 0xcafeu}) {
    const std::vector<Request> trace = make_trace(seed, 300);
    const ReplayResult json = replay(trace, /*binary=*/false, "json-" + std::to_string(seed));
    const ReplayResult binary = replay(trace, /*binary=*/true, "bin-" + std::to_string(seed));

    // Semantically identical responses, op for op.
    ASSERT_EQ(json.responses.size(), binary.responses.size());
    for (std::size_t i = 0; i < json.responses.size(); ++i) {
      const Response& a = json.responses[i];
      const Response& b = binary.responses[i];
      EXPECT_EQ(a.ok, b.ok) << "op " << i;
      EXPECT_EQ(a.op, b.op) << "op " << i;
      EXPECT_EQ(a.vm, b.vm) << "op " << i;
      EXPECT_EQ(a.pm, b.pm) << "op " << i;
      EXPECT_EQ(a.error, b.error) << "op " << i;
      EXPECT_EQ(a.message, b.message) << "op " << i;
      EXPECT_EQ(a.extra, b.extra) << "op " << i;
    }

    // The differential anchor: the service behind the codec cannot tell the
    // protocols apart — byte-identical WAL, equal state digest.
    ASSERT_FALSE(json.wal.empty());
    EXPECT_EQ(json.wal, binary.wal) << "WAL bytes diverged at seed " << seed;
    EXPECT_EQ(json.digest, binary.digest);
  }
}

TEST_F(BinarySocketTest, GarbageMidStreamGetsOneErrorAndTheConnectionSurvives) {
  TempDir dir("resync");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  auto service = make_service(ServiceConfig{});
  service->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(*service, socket_config);
  server.start();

  RawClient client(socket_path);
  ASSERT_TRUE(client.ok());

  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 1;
  place.vm_type_index = 0;

  std::string bytes(kBinaryPreamble, sizeof(kBinaryPreamble));
  encode_binary_request_into(place, bytes);
  bytes += "!! NOT A FRAME !!";  // no 0xBF anywhere: one clean garbage run
  place.vm_id = 2;
  encode_binary_request_into(place, bytes);
  client.send(bytes);

  const std::vector<Response> responses = client.recv_binary_responses(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok) << responses[0].error;
  EXPECT_EQ(responses[0].vm, 1u);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].error, "bad_frame");
  EXPECT_TRUE(responses[2].ok) << responses[2].error;
  EXPECT_EQ(responses[2].vm, 2u);

  server.stop();
  service->stop_now();
}

TEST_F(BinarySocketTest, EveryDamagedCrcFrameGetsItsOwnErrorAndFifoHolds) {
  // Two corrupted pipelined requests must produce two error responses in
  // their own order slots — a collapsed report would pair every later
  // response with the wrong request and hang the final ones.
  TempDir dir("crc");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  auto service = make_service(ServiceConfig{});
  service->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(*service, socket_config);
  server.start();

  RawClient client(socket_path);
  ASSERT_TRUE(client.ok());

  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 7;
  place.vm_type_index = 1;

  std::string bytes(kBinaryPreamble, sizeof(kBinaryPreamble));
  encode_binary_request_into(place, bytes);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // corrupt frame 1's payload
  place.vm_id = 8;
  encode_binary_request_into(place, bytes);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // ... and frame 2's
  place.vm_id = 9;
  encode_binary_request_into(place, bytes);
  client.send(bytes);

  const std::vector<Response> responses = client.recv_binary_responses(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error, "bad_frame");
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].error, "bad_frame");
  EXPECT_TRUE(responses[2].ok) << responses[2].error;
  EXPECT_EQ(responses[2].vm, 9u);

  server.stop();
  service->stop_now();
}

// A client cannot pin more of a cell than the string table's byte cap: an
// intern that would take the connection's names past it is dropped, a
// place naming that slot is refused as bad_field in its own order slot, and
// the connection keeps serving, interned slots included.
TEST_F(BinarySocketTest, InternsPastTheByteCapAreDroppedAndTheConnectionServes) {
  TempDir dir("intern-cap");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  auto service = make_service(ServiceConfig{});
  service->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(*service, socket_config);
  server.start();

  RawClient client(socket_path);
  ASSERT_TRUE(client.ok());
  const std::string& type = catalog_.vm_types()[0].name;
  const std::string filler(BinaryStringTable::kMaxBytes - type.size() - 10, 'f');
  std::string bytes(kBinaryPreamble, sizeof(kBinaryPreamble));
  ASSERT_TRUE(append_intern_frame(0, type, bytes));
  ASSERT_TRUE(append_intern_frame(1, filler, bytes));
  ASSERT_TRUE(append_intern_frame(2, type + "-past-the-cap", bytes));  // dropped
  Request place;
  place.op = RequestOp::kPlace;
  place.vm_type_name = type;
  for (const std::uint16_t slot : {0, 2, 0}) {
    ++place.vm_id;
    ASSERT_TRUE(encode_binary_request_into(place, bytes, slot));
  }
  client.send(bytes);

  const std::vector<Response> responses = client.recv_binary_responses(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok) << responses[0].error;
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].error, "bad_field");
  EXPECT_EQ(responses[1].message, "type slot 2 not interned");
  EXPECT_TRUE(responses[2].ok) << responses[2].error;
  EXPECT_EQ(responses[2].vm, 3u);

  server.stop();
  service->stop_now();
  EXPECT_EQ(service->datacenter().vm_count(), 2u);
}

// The cross-cell group ops are retired: sent straight to a cell, as JSON
// ("gres", "gcommit", "gabort") or as their old PRVB1 codes 9-11, each is an
// unknown_op, and none of them touches the cell's op_seq or its WAL.
TEST_F(BinarySocketTest, RetiredGroupOpsAreUnknownAndLeaveTheCellUntouched) {
  TempDir dir("retired");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  ServiceConfig config;
  config.data_dir = dir.path();
  auto service = make_service(std::move(config));
  service->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(*service, socket_config);
  server.start();

  RawClient json(socket_path);
  ASSERT_TRUE(json.ok());
  json.send("{\"op\":\"place\",\"vm\":1,\"type\":0,\"group\":\"web\"}\n");
  ASSERT_TRUE(json.recv_json_responses(1).at(0).ok);
  const auto op_seq = [&] {
    json.send("{\"op\":\"stats\"}\n");
    const Response stats = json.recv_json_responses(1).at(0);
    for (const auto& [key, value] : stats.extra) {
      if (key == "op_seq") return value;
    }
    return std::string("missing");
  };
  const std::string seq_before = op_seq();
  const std::string wal_before = read_file(dir.path() / "wal.log");
  ASSERT_EQ(seq_before, "1");
  ASSERT_FALSE(wal_before.empty());

  json.send("{\"op\":\"gres\",\"group\":\"web\",\"vm\":2}\n"
            "{\"op\":\"gcommit\",\"group\":\"web\",\"vm\":2,\"cell\":0}\n"
            "{\"op\":\"gabort\",\"group\":\"web\",\"vm\":1}\n");
  for (const Response& response : json.recv_json_responses(3)) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, "unknown_op") << response.message;
  }

  RawClient binary(socket_path);
  ASSERT_TRUE(binary.ok());
  std::string bytes(kBinaryPreamble, sizeof(kBinaryPreamble));
  for (const char code : {9, 10, 11}) {
    // op code, field bits (vm), string bits, reserved, then the vm.
    std::string payload = {code, 0x01, 0, 0};
    for (int i = 0; i < 8; ++i) payload.push_back(i == 0 ? 2 : 0);
    append_binary_frame(BinaryFrameKind::kRequest, payload, bytes);
  }
  binary.send(bytes);
  const std::vector<Response> responses = binary.recv_binary_responses(3);
  ASSERT_EQ(responses.size(), 3u);
  for (const Response& response : responses) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, "unknown_op") << response.message;
  }

  EXPECT_EQ(op_seq(), seq_before);
  EXPECT_EQ(read_file(dir.path() / "wal.log"), wal_before);
  server.stop();
  service->stop_now();
}

TEST_F(BinarySocketTest, NearMissPreambleFallsBackToJsonLines) {
  TempDir dir("fallback");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  auto service = make_service(ServiceConfig{});
  service->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(*service, socket_config);
  server.start();

  // Starts with 'P' like the preamble but is not it: the server must fall
  // back to the JSON-lines path (one bad_json error), not hang or die, and
  // real JSON on the same connection must then work.
  RawClient client(socket_path);
  ASSERT_TRUE(client.ok());
  client.send("PING nothing\n{\"op\":\"place\",\"vm\":1,\"type\":0}\n");
  const std::vector<Response> responses = client.recv_json_responses(2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error, "bad_json");
  EXPECT_TRUE(responses[1].ok) << responses[1].error;
  EXPECT_EQ(responses[1].vm, 1u);

  server.stop();
  service->stop_now();
}

TEST_F(BinarySocketTest, FailoverChannelQualifiesAndServesOverBinary) {
  TempDir dir("failover");
  const std::string socket_path = (dir.path() / "cell.sock").string();
  ServiceConfig config;
  config.cell_id = 1;
  auto service = make_service(std::move(config));
  service->start();
  SocketServerConfig socket_config;
  socket_config.unix_path = socket_path;
  CellServer server(*service, socket_config);
  server.start();

  // Qualification runs health (and possibly promote) through the same
  // binary channel the traffic will use.
  FailoverCellChannel::Config failover;
  failover.endpoints = {"unix:" + socket_path};
  FailoverCellChannel channel(failover);
  ASSERT_TRUE(channel.connected());
  EXPECT_EQ(channel.active_endpoint(), "unix:" + socket_path);

  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 4;
  place.vm_type_name = catalog_.vm_types()[0].name;  // exercises interning
  const Response placed = channel.submit(place).get();
  ASSERT_TRUE(placed.ok) << placed.error << ": " << placed.message;
  EXPECT_EQ(placed.vm, 4u);

  Request lookup;
  lookup.op = RequestOp::kLookup;
  lookup.vm_id = 4;
  const Response looked = channel.submit(lookup).get();
  EXPECT_TRUE(looked.ok);
  EXPECT_EQ(looked.pm, placed.pm);

  server.stop();
  service->stop_now();
}

}  // namespace
}  // namespace prvm
