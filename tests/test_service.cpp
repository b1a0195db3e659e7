// PlacementService behavior: admission control (groups, duplicates, unknown
// types), queue backpressure and batching, graceful drain, and the socket
// front-end end-to-end over TCP — including split writes and hostile frames
// arriving on a live connection.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/catalog.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "service/cell_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

std::shared_ptr<const ScoreTableSet> tables_for(const Catalog& catalog) {
  // Default on-disk cache: each discovered test is its own process, so an
  // in-memory static would rebuild the tables 18 times over.
  return std::make_shared<const ScoreTableSet>(build_score_tables(catalog));
}

Request place_request(std::uint64_t vm, std::size_t type, std::string group = "") {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

Request release_request(std::uint64_t vm) {
  Request request;
  request.op = RequestOp::kRelease;
  request.vm_id = vm;
  return request;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : catalog_(ec2_catalog()), tables_(tables_for(catalog_)) {}

  std::unique_ptr<PlacementService> make_service(std::size_t fleet_size,
                                                 ServiceConfig config = {}) {
    return std::make_unique<PlacementService>(catalog_, mixed_pm_fleet(catalog_, fleet_size),
                                              tables_, std::move(config));
  }

  Catalog catalog_;
  std::shared_ptr<const ScoreTableSet> tables_;
};

TEST_F(ServiceTest, PlaceReleaseMigrateLifecycle) {
  auto service = make_service(4);
  const Response placed = service->execute(place_request(1, 0));
  ASSERT_TRUE(placed.ok) << placed.error << ": " << placed.message;
  ASSERT_TRUE(placed.pm.has_value());
  EXPECT_EQ(service->datacenter().vm_count(), 1u);

  // Duplicate id is refused before touching the engine.
  const Response duplicate = service->execute(place_request(1, 0));
  EXPECT_FALSE(duplicate.ok);
  EXPECT_EQ(duplicate.error, "duplicate_vm");

  Request migrate;
  migrate.op = RequestOp::kMigrate;
  migrate.vm_id = 1;
  const Response migrated = service->execute(migrate);
  ASSERT_TRUE(migrated.ok) << migrated.error;
  EXPECT_NE(*migrated.pm, *placed.pm) << "migrate must leave the source PM";

  const Response released = service->execute(release_request(1));
  EXPECT_TRUE(released.ok);
  EXPECT_EQ(service->datacenter().vm_count(), 0u);

  const Response missing = service->execute(release_request(1));
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error, "unknown_vm");
}

TEST_F(ServiceTest, UnknownVmTypeIsRejected) {
  auto service = make_service(2);
  Request by_index = place_request(1, catalog_.vm_types().size() + 5);
  EXPECT_EQ(service->execute(by_index).error, "unknown_vm_type");

  Request by_name;
  by_name.op = RequestOp::kPlace;
  by_name.vm_id = 2;
  by_name.vm_type_name = "no-such-type";
  EXPECT_EQ(service->execute(by_name).error, "unknown_vm_type");

  Request by_real_name;
  by_real_name.op = RequestOp::kPlace;
  by_real_name.vm_id = 3;
  by_real_name.vm_type_name = catalog_.vm_type(0).name;
  EXPECT_TRUE(service->execute(by_real_name).ok);
}

TEST_F(ServiceTest, AntiCollocationGroupSpreadsAcrossPms) {
  auto service = make_service(3);
  std::set<std::uint64_t> pms;
  for (std::uint64_t vm = 1; vm <= 3; ++vm) {
    const Response r = service->execute(place_request(vm, 0, "web"));
    ASSERT_TRUE(r.ok) << r.error << ": " << r.message;
    pms.insert(*r.pm);
  }
  EXPECT_EQ(pms.size(), 3u) << "group members must land on pairwise-distinct PMs";

  // All three PMs now host a member: the group vetoes everything, and the
  // reject reason distinguishes that from a full datacenter.
  const Response conflict = service->execute(place_request(4, 0, "web"));
  ASSERT_FALSE(conflict.ok);
  EXPECT_EQ(conflict.error, "group_conflict");

  // Ungrouped (and other-group) placements still succeed.
  EXPECT_TRUE(service->execute(place_request(5, 0)).ok);
  EXPECT_TRUE(service->execute(place_request(6, 0, "db")).ok);

  // Releasing a member frees its PM for the group again.
  ASSERT_TRUE(service->execute(release_request(1)).ok);
  const Response retry = service->execute(place_request(4, 0, "web"));
  EXPECT_TRUE(retry.ok) << retry.error;
}

TEST_F(ServiceTest, NoCapacityWhenFleetIsFull) {
  auto service = make_service(1);
  std::uint64_t vm = 1;
  Response last;
  for (; vm < 10000; ++vm) {
    last = service->execute(place_request(vm, 0));
    if (!last.ok) break;
  }
  ASSERT_FALSE(last.ok) << "a 1-PM fleet must eventually fill up";
  EXPECT_EQ(last.error, "no_capacity");
}

TEST_F(ServiceTest, QueueBackpressureRejectsWithRetryHint) {
  ServiceConfig config;
  config.queue_capacity = 2;
  config.retry_after_ms = 7.5;
  auto service = make_service(4, config);
  // Worker not started: the queue fills and the third submit bounces
  // immediately instead of blocking.
  auto f1 = service->submit(place_request(1, 0));
  auto f2 = service->submit(place_request(2, 0));
  auto f3 = service->submit(place_request(3, 0));
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response rejected = f3.get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "queue_full");
  ASSERT_TRUE(rejected.retry_after_ms.has_value());
  EXPECT_DOUBLE_EQ(*rejected.retry_after_ms, 7.5);

  // Once the worker runs, the queued two complete normally.
  service->start();
  EXPECT_TRUE(f1.get().ok);
  EXPECT_TRUE(f2.get().ok);
  service->drain();
  EXPECT_EQ(service->stats().queue_rejected, 1u);
}

TEST_F(ServiceTest, WorkerBatchesQueuedRequests) {
  ServiceConfig config;
  config.batch_size = 8;
  auto service = make_service(8, config);
  std::vector<std::future<Response>> futures;
  for (std::uint64_t vm = 1; vm <= 40; ++vm) {
    futures.push_back(service->submit(place_request(vm, 0)));
  }
  service->start();  // everything is already queued: batches form immediately
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  service->drain();

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.placed, 40u);
  EXPECT_GE(stats.max_batch, 2u) << "pre-queued work should drain in batches";
  EXPECT_LE(stats.max_batch, 8u) << "batches must honor batch_size";
  EXPECT_GE(stats.batches, 5u);
}

TEST_F(ServiceTest, DrainStopsAdmittingAndKeepsState) {
  auto service = make_service(4);
  service->start();
  EXPECT_TRUE(service->submit(place_request(1, 0)).get().ok);
  service->drain();
  EXPECT_TRUE(service->draining());

  const Response after = service->submit(place_request(2, 0)).get();
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.error, "draining");
  EXPECT_EQ(service->datacenter().vm_count(), 1u);
}

TEST_F(ServiceTest, StopNowFailsQueuedRequestsInsteadOfDroppingThem) {
  auto service = make_service(4);
  // Not started: requests sit in the queue until the hard stop fails them.
  auto f1 = service->submit(place_request(1, 0));
  service->start();
  service->stop_now();
  const Response r = f1.get();  // must be resolved either way — never hangs
  if (!r.ok) EXPECT_EQ(r.error, "draining");
}

// --- Socket front-end -------------------------------------------------------

/// Minimal blocking test client.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ADD_FAILURE() << "connect failed";
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_raw(std::string_view bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ::ssize_t n =
          ::send(fd_, bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      written += static_cast<std::size_t>(n);
    }
  }

  JsonValue recv_response() {
    while (true) {
      if (const auto frame = buffer_.next()) {
        std::string error;
        auto doc = parse_json(frame->line, &error);
        EXPECT_TRUE(doc.has_value()) << error << " in: " << frame->line;
        return doc.has_value() ? std::move(*doc) : JsonValue{};
      }
      char buf[4096];
      const ::ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while awaiting response";
        return JsonValue{};
      }
      buffer_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  LineBuffer buffer_;
};

bool response_ok(const JsonValue& doc) {
  const JsonValue* ok = doc.find("ok");
  return ok != nullptr && ok->kind == JsonValue::Kind::kBool && ok->boolean;
}

std::string response_error(const JsonValue& doc) {
  const JsonValue* error = doc.find("error");
  return error != nullptr ? error->string : "";
}

TEST_F(ServiceTest, SocketEndToEndPlaceAndStats) {
  auto service = make_service(4);
  service->start();
  SocketServerConfig socket_config;
  socket_config.tcp_port = 0;  // ephemeral: parallel test runs cannot collide
  CellServer server(*service, socket_config);
  server.start();
  ASSERT_GT(server.port(), 0);

  {
    TestClient client(server.port());
    client.send_raw("{\"op\":\"place\",\"vm\":1,\"type\":0}\n");
    const JsonValue placed = client.recv_response();
    EXPECT_TRUE(response_ok(placed));
    ASSERT_NE(placed.find("pm"), nullptr);

    // Split write: half a frame, then the rest plus a second frame. The
    // responses arrive in order, one per line.
    client.send_raw("{\"op\":\"place\",\"vm\":2,");
    client.send_raw("\"type\":0}\n{\"op\":\"stats\"}\n");
    EXPECT_TRUE(response_ok(client.recv_response()));
    const JsonValue stats = client.recv_response();
    EXPECT_TRUE(response_ok(stats));
    ASSERT_NE(stats.find("vm_count"), nullptr);
    EXPECT_EQ(stats.find("vm_count")->number, 2.0);
  }
  server.stop();
  service->drain();
}

TEST_F(ServiceTest, SocketSurvivesHostileFrames) {
  auto service = make_service(4);
  service->start();
  SocketServerConfig socket_config;
  socket_config.tcp_port = 0;
  CellServer server(*service, socket_config);
  server.start();

  {
    TestClient client(server.port());
    // Malformed JSON: structured error, connection stays up.
    client.send_raw("this is not json\n");
    EXPECT_EQ(response_error(client.recv_response()), "bad_json");

    // Unknown op.
    client.send_raw("{\"op\":\"selfdestruct\"}\n");
    EXPECT_EQ(response_error(client.recv_response()), "unknown_op");

    // Oversized frame: discarded with an error, stream resyncs at newline.
    std::string huge = "{\"op\":\"place\",\"vm\":1,\"pad\":\"";
    huge.append(kMaxFrameBytes + 10, 'x');
    huge += "\"}\n";
    client.send_raw(huge);
    EXPECT_EQ(response_error(client.recv_response()), "oversized_frame");

    // The connection still serves real requests afterwards.
    client.send_raw("{\"op\":\"place\",\"vm\":3,\"type\":0}\n");
    EXPECT_TRUE(response_ok(client.recv_response()));
  }
  server.stop();
  service->drain();
}

TEST_F(ServiceTest, SocketPipelinedRequestsKeepOrder) {
  auto service = make_service(8);
  service->start();
  SocketServerConfig socket_config;
  socket_config.tcp_port = 0;
  CellServer server(*service, socket_config);
  server.start();

  {
    TestClient client(server.port());
    std::string burst;
    for (int vm = 1; vm <= 50; ++vm) {
      burst += "{\"op\":\"place\",\"vm\":" + std::to_string(vm) + ",\"type\":0}\n";
    }
    client.send_raw(burst);
    for (int vm = 1; vm <= 50; ++vm) {
      const JsonValue doc = client.recv_response();
      ASSERT_NE(doc.find("vm"), nullptr);
      EXPECT_EQ(doc.find("vm")->number, static_cast<double>(vm))
          << "responses must keep request order";
    }
  }
  server.stop();
  service->drain();
}

// --- Observability ----------------------------------------------------------

/// Executes a no-argument op and returns the wire-encoded response, parsed —
/// the same bytes a socket client would see.
JsonValue exec_parsed(PlacementService& service, RequestOp op) {
  Request request;
  request.op = op;
  std::string error;
  auto doc = parse_json(encode_response(service.execute(request)), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.has_value() ? std::move(*doc) : JsonValue{};
}

TEST_F(ServiceTest, HealthResponseKeepsBackwardCompatibleShape) {
  auto service = make_service(4);
  ASSERT_TRUE(service->execute(place_request(1, 0)).ok);
  ASSERT_TRUE(service->execute(place_request(2, 0)).ok);

  // The health shape predates the metrics registry; monitoring keys on these
  // exact names and semantics, so migrating the counters onto the registry
  // must not move or rename them.
  const JsonValue health = exec_parsed(*service, RequestOp::kHealth);
  EXPECT_TRUE(response_ok(health));
  ASSERT_NE(health.find("mode"), nullptr);
  EXPECT_EQ(health.find("mode")->string, "ok");
  for (const char* key : {"queue_depth", "wal_lag", "op_seq", "degraded_entries",
                          "storage_probes", "io_errors"}) {
    ASSERT_NE(health.find(key), nullptr) << key;
    EXPECT_EQ(health.find(key)->kind, JsonValue::Kind::kNumber) << key;
  }
  ASSERT_NE(health.find("last_error"), nullptr);
  EXPECT_EQ(health.find("op_seq")->number, 2.0);
  EXPECT_EQ(health.find("queue_depth")->number, 0.0);
  EXPECT_EQ(health.find("degraded_entries")->number, 0.0);
  EXPECT_EQ(health.find("io_errors")->number, 0.0);
  EXPECT_EQ(health.find("last_error")->string, "");

  // The multi-cell additions extend the shape without moving anything: a
  // daemon with no cell_id reports cell 0 with role "single".
  ASSERT_NE(health.find("cell_id"), nullptr);
  EXPECT_EQ(health.find("cell_id")->number, 0.0);
  ASSERT_NE(health.find("role"), nullptr);
  EXPECT_EQ(health.find("role")->string, "single");
}

TEST_F(ServiceTest, MetricsOpReportsRegistryState) {
  auto service = make_service(4);
  for (std::uint64_t vm = 1; vm <= 3; ++vm) {
    ASSERT_TRUE(service->execute(place_request(vm, 0)).ok);
  }
  ASSERT_TRUE(service->execute(release_request(3)).ok);
  EXPECT_EQ(service->execute(place_request(1, 0)).error, "duplicate_vm");

  const JsonValue doc = exec_parsed(*service, RequestOp::kMetrics);
  EXPECT_TRUE(response_ok(doc));
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->kind, JsonValue::Kind::kObject);

  const JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("prvm_ops_placed_total"), nullptr);
  EXPECT_EQ(counters->find("prvm_ops_placed_total")->number, 3.0);
  EXPECT_EQ(counters->find("prvm_ops_released_total")->number, 1.0);
  // prvm_ops_rejected_total keeps the stats-op semantics (engine-level
  // rejections only); admission rejects show up per reason instead.
  EXPECT_EQ(counters->find("prvm_ops_rejected_total")->number, 0.0);
  ASSERT_NE(counters->find("prvm_reject_duplicate_vm_total"), nullptr);
  EXPECT_EQ(counters->find("prvm_reject_duplicate_vm_total")->number, 1.0);
  // The engine reports into the same registry as its owning service.
  ASSERT_NE(counters->find("prvm_engine_place_total"), nullptr);
  EXPECT_GE(counters->find("prvm_engine_place_total")->number, 3.0);

  const JsonValue* gauges = metrics->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("prvm_mode"), nullptr);
  EXPECT_NE(gauges->find("prvm_queue_depth"), nullptr);
  // The process's memory, read when the op is served. Sanitizer allocators
  // bypass the malloc whose statistics the heap gauge reads.
  ASSERT_NE(gauges->find("prvm_resident_bytes"), nullptr);
  EXPECT_GT(gauges->find("prvm_resident_bytes")->number, 0.0);
  ASSERT_NE(gauges->find("prvm_heap_in_use_bytes"), nullptr);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_GT(gauges->find("prvm_heap_in_use_bytes")->number, 0.0);
#endif

  const JsonValue* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* compute = histograms->find("prvm_place_compute_ns");
  ASSERT_NE(compute, nullptr);
  EXPECT_GE(compute->find("count")->number, 3.0);
  const double p50 = compute->find("p50")->number;
  const double p99 = compute->find("p99")->number;
  const double p999 = compute->find("p999")->number;
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
}

TEST_F(ServiceTest, MetricsRegistriesIsolateServicesAndAcceptInjection) {
  // Default: each service gets a private registry, so parallel services in
  // one process (tests!) never bleed counters into each other. An injected
  // registry (the daemon passes the global one) is used as-is.
  auto shared = std::make_shared<obs::Registry>();
  ServiceConfig injected;
  injected.metrics = shared;
  auto a = make_service(4, injected);
  auto b = make_service(4);
  ASSERT_TRUE(a->execute(place_request(1, 0)).ok);
  ASSERT_TRUE(a->execute(place_request(2, 0)).ok);
  ASSERT_TRUE(b->execute(place_request(1, 0)).ok);

  EXPECT_EQ(&a->metrics_registry(), shared.get());
  EXPECT_NE(&a->metrics_registry(), &b->metrics_registry());
  ASSERT_NE(shared->find_counter("prvm_ops_placed_total"), nullptr);
  EXPECT_EQ(shared->find_counter("prvm_ops_placed_total")->value(), 2u);
  ASSERT_NE(b->metrics_registry().find_counter("prvm_ops_placed_total"), nullptr);
  EXPECT_EQ(b->metrics_registry().find_counter("prvm_ops_placed_total")->value(), 1u);
}

}  // namespace
}  // namespace prvm
