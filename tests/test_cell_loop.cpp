// The cell's run-to-completion socket loop (CellServer on the PlacementService
// loop thread) and the router's thread-per-connection SocketServer:
// response order across engine-answered and decode-answered requests, a
// client that never reads, a burst past max_pipeline on both WAL flush
// paths, in-process submit() racing socket traffic, and
// descriptor hygiene — closed connections release their fds, and both
// servers keep serving past RLIMIT_NOFILE.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/time.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/catalog_graphs.hpp"
#include "service/binary_protocol.hpp"
#include "service/cell_server.hpp"
#include "service/service.hpp"
#include "service/socket_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using namespace std::chrono_literals;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("prvm-loop-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }
  std::string socket() const { return (path_ / "s.sock").string(); }

 private:
  std::filesystem::path path_;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // A server that stopped answering fails the test instead of hanging it.
  const ::timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads `count` responses in the connection's protocol (fewer if it closes).
std::vector<Response> recv_responses(int fd, std::size_t count, bool binary) {
  std::vector<Response> responses;
  LineBuffer lines(kMaxBinaryResponseBytes);
  BinaryFrameBuffer frames(kMaxBinaryResponseBytes);
  char chunk[4096];
  while (responses.size() < count) {
    if (binary) {
      while (const auto frame = frames.next()) {
        EXPECT_EQ(frame->status, BinaryFrameBuffer::Status::kOk);
        std::string error;
        const auto response = parse_binary_response(frame->payload, &error);
        EXPECT_TRUE(response.has_value()) << error;
        if (response.has_value()) responses.push_back(*response);
      }
    } else {
      while (const auto frame = lines.next()) {
        std::string error;
        const auto response = parse_response(frame->line, &error);
        EXPECT_TRUE(response.has_value()) << error;
        if (response.has_value()) responses.push_back(*response);
      }
    }
    if (responses.size() >= count) break;
    const ::ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    (binary ? static_cast<void>(frames.feed({chunk, static_cast<std::size_t>(n)}))
            : static_cast<void>(lines.feed({chunk, static_cast<std::size_t>(n)})));
  }
  return responses;
}

/// One health round trip on a fresh connection that half-closes after its
/// request: the server must still answer, then close its side.
bool health_round_trip(const std::string& path) {
  const int fd = connect_unix(path);
  if (fd < 0) return false;
  const bool sent = send_all(fd, "{\"op\":\"health\"}\n") && ::shutdown(fd, SHUT_WR) == 0;
  const std::vector<Response> responses = sent ? recv_responses(fd, 1, false)
                                               : std::vector<Response>{};
  char byte = 0;
  const bool closed = ::recv(fd, &byte, 1, 0) == 0;
  ::close(fd);
  return responses.size() == 1 && responses[0].ok && closed;
}

std::size_t open_fds() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

/// Waits up to 2 s for the fd count to fall back to `baseline` (servers
/// close their side asynchronously after the client's close).
bool fds_return_to(std::size_t baseline) {
  for (int i = 0; i < 200; ++i) {
    if (open_fds() <= baseline) return true;
    std::this_thread::sleep_for(10ms);
  }
  return false;
}

Request place_request(std::uint64_t vm, std::uint64_t type) {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  return request;
}

Request vm_request(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

class CellLoopTest : public ::testing::Test {
 protected:
  CellLoopTest()
      : catalog_(ec2_catalog()),
        tables_(std::make_shared<const ScoreTableSet>(build_score_tables(catalog_))) {}

  std::unique_ptr<PlacementService> make_service(ServiceConfig config = {}) {
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, 16), tables_,
                                              std::move(config));
  }

  static SocketServerConfig socket_config(const TempDir& dir) {
    SocketServerConfig config;
    config.unix_path = dir.socket();
    return config;
  }

  /// 200 connect/health/close cycles, then the fd table is back to where it
  /// started: a closed connection keeps no descriptor (or thread) behind.
  template <typename Server, typename Sink>
  void expect_no_fd_leak(Sink& sink) {
    TempDir dir("leak");
    Server server(sink, socket_config(dir));
    server.start();
    ASSERT_TRUE(health_round_trip(dir.socket()));
    ASSERT_TRUE(fds_return_to(open_fds()));
    const std::size_t baseline = open_fds();
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(health_round_trip(dir.socket())) << "cycle " << i;
    EXPECT_TRUE(fds_return_to(baseline)) << open_fds() << " fds open, baseline " << baseline;
    server.stop();
  }

  /// Lowers RLIMIT_NOFILE to 64 in a process of its own: a child that
  /// re-runs the calling test alone (`/proc/self/exe --gtest_filter=<it>`)
  /// with kFdLimitChild set. The fork only sets the limit and execs, so no
  /// thread starts in a forked copy of this threaded process, which
  /// ThreadSanitizer refuses. The child, seeing the marker, runs
  /// serve_past_fd_limit instead.
  template <typename Server>
  void expect_serving_past_fd_limit() {
    if (std::getenv(kFdLimitChild) != nullptr) {
      serve_past_fd_limit<Server>();
      return;
    }
    const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string filter = std::string("--gtest_filter=") + test->test_suite_name() + "." +
                         test->name();
    std::string self = "/proc/self/exe";
    char* const argv[] = {self.data(), filter.data(), nullptr};
    std::string marker = std::string(kFdLimitChild) + "=1";
    std::vector<char*> env;
    for (char** var = environ; *var != nullptr; ++var) env.push_back(*var);
    env.push_back(marker.data());
    env.push_back(nullptr);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      const ::rlimit limit{64, 64};
      ::setrlimit(RLIMIT_NOFILE, &limit);
      ::execve(self.c_str(), argv, env.data());
      ::_exit(127);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "the child run failed (its output is above)";
  }

  /// Under the lowered limit: exhaust the fd table with idle clients (the
  /// server's accept hits EMFILE), free it, then run more round trips than
  /// the limit — the server must still answer.
  template <typename Server>
  void serve_past_fd_limit() {
    ::rlimit limit{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
    ASSERT_EQ(limit.rlim_cur, 64u) << "meant to run under expect_serving_past_fd_limit";
    TempDir dir("emfile");
    auto service = make_service();
    service->start();
    Server server(*service, socket_config(dir));
    server.start();
    std::vector<int> idle;
    for (int i = 0; i < 64; ++i) {
      const int fd = connect_unix(dir.socket());
      if (fd < 0) break;
      idle.push_back(fd);
    }
    std::this_thread::sleep_for(50ms);  // let accept run into the limit
    for (const int fd : idle) ::close(fd);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(health_round_trip(dir.socket())) << "round trip " << i << " after fd exhaustion";
    }
    server.stop();
    service->stop_now();
  }

  /// Marks the re-executed child of expect_serving_past_fd_limit.
  static constexpr const char* kFdLimitChild = "PRVM_TEST_FD_LIMIT_CHILD";

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(CellLoopTest, BinaryPipelineInterleavingAnswersEveryRequestInOrder) {
  TempDir dir("order-bin");
  auto service = make_service();
  service->start();
  CellServer server(*service, socket_config(dir));
  server.start();

  std::string bytes(kBinaryPreamble, sizeof(kBinaryPreamble));
  encode_binary_request_into(place_request(1, 0), bytes);
  encode_binary_request_into(place_request(2, 0), bytes);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // damaged CRC
  Request util = vm_request(RequestOp::kUtil, 1);
  util.cpu = 0.5;
  encode_binary_request_into(util, bytes);
  // Oversized: a header claiming more than the frame cap, then its payload
  // (no magic byte in it, so it is skipped as one already-reported run).
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  bytes.push_back(static_cast<char>(kBinaryMagic));
  bytes.push_back(static_cast<char>(BinaryFrameKind::kRequest));
  bytes.append(2, '\0');
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  bytes.append(4, '\0');
  bytes.append(200, 'x');
  encode_binary_request_into(vm_request(RequestOp::kLookup, 1), bytes);

  const int fd = connect_unix(dir.socket());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, bytes));
  const std::vector<Response> responses = recv_responses(fd, 5, true);
  ::close(fd);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].op, "place");
  EXPECT_EQ(responses[1].error, "bad_frame");
  EXPECT_TRUE(responses[2].ok);
  EXPECT_EQ(responses[2].op, "util");
  EXPECT_EQ(responses[3].error, "oversized_frame");
  EXPECT_TRUE(responses[4].ok);
  EXPECT_EQ(responses[4].op, "lookup");
  EXPECT_EQ(responses[4].pm, responses[0].pm);

  server.stop();
  service->drain();
}

TEST_F(CellLoopTest, JsonPipelineInterleavingAnswersEveryRequestInOrder) {
  TempDir dir("order-json");
  auto service = make_service();
  service->start();
  CellServer server(*service, socket_config(dir));
  server.start();

  std::string bytes = "{\"op\":\"place\",\"vm\":1,\"type\":0}\n";
  bytes += "{\"op\":\"place\",\"vm\":2,";  // damaged: cut short, then a newline
  bytes += "\n{\"op\":\"util\",\"vm\":1,\"cpu\":0.5}\n";
  bytes += "{\"op\":\"place\",\"pad\":\"" + std::string(kMaxFrameBytes + 10, 'x') + "\"}\n";
  bytes += "{\"op\":\"rebalance\"}\n{\"op\":\"lookup\",\"vm\":1}\n";

  const int fd = connect_unix(dir.socket());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, bytes));
  const std::vector<Response> responses = recv_responses(fd, 6, false);
  ::close(fd);
  ASSERT_EQ(responses.size(), 6u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[1].error, "bad_json");
  EXPECT_EQ(responses[2].op, "util");
  EXPECT_EQ(responses[3].error, "oversized_frame");
  EXPECT_EQ(responses[4].op, "rebalance");
  EXPECT_EQ(responses[5].op, "lookup");
  EXPECT_EQ(responses[5].pm, responses[0].pm);

  server.stop();
  service->drain();
}

TEST_F(CellLoopTest, ClientThatNeverReadsStallsOnlyItself) {
  TempDir dir("slow");
  auto service = make_service();
  service->start();
  SocketServerConfig config = socket_config(dir);
  config.max_pipeline = 64;
  CellServer server(*service, config);
  server.start();

  // 20k pipelined requests, never read: once 64 responses are unsent the
  // daemon stops reading it, and its send blocks on full socket buffers.
  const int greedy = connect_unix(dir.socket());
  ASSERT_GE(greedy, 0);
  std::string burst;
  for (int i = 0; i < 20000; ++i) burst += "{\"op\":\"stats\"}\n";
  std::thread writer([greedy, &burst] { send_all(greedy, burst); });
  std::this_thread::sleep_for(200ms);

  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(health_round_trip(dir.socket()));
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s) << "health stalled behind a slow client";
  }
  EXPECT_GT(server.peak_unsent(), 0u);
  EXPECT_LE(server.peak_unsent(), config.max_pipeline);

  ::shutdown(greedy, SHUT_RDWR);  // unblocks the writer
  writer.join();
  ::close(greedy);
  server.stop();
  service->drain();
}

TEST_F(CellLoopTest, BurstPastMaxPipelineIsAnsweredInFull) {
  // 40 requests arrive in one burst on a connection allowed 4 unsent
  // responses: the loop reads them all into user space, pauses after 4,
  // and must resume from that buffer once the 4 are sent, with no further
  // epoll event. Both flush paths: inline, and the flusher (fsync_wal with
  // a data dir), which holds responses across passes.
  for (const bool flusher : {false, true}) {
    TempDir dir(flusher ? "burst-flusher" : "burst-inline");
    ServiceConfig config;
    if (flusher) {
      config.data_dir = dir.path();
      config.fsync_wal = true;
    }
    auto service = make_service(std::move(config));
    service->start();
    SocketServerConfig socket = socket_config(dir);
    socket.max_pipeline = 4;
    CellServer server(*service, socket);
    server.start();

    std::string burst;
    for (int vm = 1; vm <= 40; ++vm) {
      burst += "{\"op\":\"place\",\"vm\":" + std::to_string(vm) + ",\"type\":0}\n";
    }
    const int fd = connect_unix(dir.socket());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, burst));
    const std::vector<Response> responses = recv_responses(fd, 40, false);
    ::close(fd);
    ASSERT_EQ(responses.size(), 40u) << (flusher ? "flusher" : "inline");
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].op, "place");
      EXPECT_EQ(responses[i].vm.value_or(0), i + 1);
    }
    EXPECT_LE(server.peak_unsent(), socket.max_pipeline);
    EXPECT_EQ(service->metrics_registry().find_counter("prvm_flush_groups_total")->value() > 0,
              flusher);

    server.stop();
    service->drain();
  }
}

TEST_F(CellLoopTest, InProcessSubmitRacingSocketTrafficKeepsCapacityAndOrder) {
  TempDir dir("race");
  ServiceConfig config;
  config.queue_capacity = 8;
  auto service = make_service(std::move(config));
  service->start();
  CellServer server(*service, socket_config(dir));
  server.start();

  std::atomic<bool> stop{false};
  std::thread socket_load([&] {
    const int fd = connect_unix(dir.socket());
    if (fd < 0) return;
    std::string burst;
    for (int i = 0; i < 32; ++i) burst += "{\"op\":\"stats\"}\n";
    while (!stop.load()) {
      if (!send_all(fd, burst) || recv_responses(fd, 32, false).size() != 32) break;
    }
    ::close(fd);
  });

  // Each submitter fires place(v) + lookup(v) pairs without waiting: when
  // both were admitted, FIFO per submitter means the lookup finds the VM.
  std::atomic<std::size_t> queue_full{0};
  std::atomic<std::size_t> checked_pairs{0};
  std::vector<std::thread> submitters;
  for (std::uint64_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (std::uint64_t round = 0; round < 50; ++round) {
        std::vector<std::pair<std::future<Response>, std::future<Response>>> pairs;
        for (std::uint64_t k = 0; k < 6; ++k) {
          const std::uint64_t vm = 1 + t * 100000 + round * 10 + k;
          auto placed = service->submit(place_request(vm, 0));
          auto looked = service->submit(vm_request(RequestOp::kLookup, vm));
          pairs.emplace_back(std::move(placed), std::move(looked));
        }
        for (auto& [placed_future, looked_future] : pairs) {
          const Response placed = placed_future.get();
          const Response looked = looked_future.get();
          for (const Response* r : {&placed, &looked}) {
            if (r->error == "queue_full") {
              ++queue_full;
              EXPECT_TRUE(r->retry_after_ms.has_value());
            }
          }
          if (placed.error == "queue_full" || looked.error == "queue_full") continue;
          if (!placed.ok) continue;  // fleet full: nothing to look up
          ++checked_pairs;
          EXPECT_TRUE(looked.ok) << looked.error << ": lookup overtook its place";
          EXPECT_EQ(looked.pm, placed.pm);
          if (service->submit(vm_request(RequestOp::kRelease, placed.vm.value_or(0)))
                  .get()
                  .error == "queue_full") {
            ++queue_full;
          }
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  stop.store(true);
  socket_load.join();

  EXPECT_GT(checked_pairs.load(), 0u);
  // The registry counter, not stats(): the loop is still running.
  EXPECT_EQ(service->metrics_registry().find_counter("prvm_queue_rejected_total")->value(),
            queue_full.load())
      << "every queue_full answer is counted, and only those";
  server.stop();
  service->drain();
}

TEST_F(CellLoopTest, ClosedConnectionsReleaseTheirFds) {
  auto service = make_service();
  service->start();
  expect_no_fd_leak<CellServer>(*service);
  service->drain();
}

TEST_F(CellLoopTest, KeepsServingPastTheFdLimit) {
  expect_serving_past_fd_limit<CellServer>();
}

using SocketServerTest = CellLoopTest;

TEST_F(SocketServerTest, ClosedConnectionsReleaseTheirFds) {
  auto service = make_service();
  service->start();
  expect_no_fd_leak<SocketServer>(static_cast<RequestSink&>(*service));
  service->drain();
}

TEST_F(SocketServerTest, KeepsServingPastTheFdLimit) {
  expect_serving_past_fd_limit<SocketServer>();
}

}  // namespace
}  // namespace prvm
