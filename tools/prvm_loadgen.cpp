// prvm_loadgen — load generator / measurement client for prvm_serve.
//
// Replays an EC2-mix placement workload against a running daemon over the
// JSON-lines protocol and reports end-to-end placements/sec and
// p50/p99/p999 request latency (send -> response received, i.e. including
// queueing, batching, WAL flush and the socket round trip) in the same
// --json schema as bench_placement_throughput. Latencies are accumulated in
// one shared obs::Histogram (the daemon's own histogram type — lock-free
// across connections, quantiles within 12.5%), not a per-sample vector.
//
// Modes:
//   --fill-pms N --ops M   fill the fleet to N used PMs, then run M
//                          release+place churn ops at that operating point;
//                          the fill places 256 VMs per connection between
//                          two used-PM checks, so it overshoots N by at most
//                          one such chunk; the used PMs where the fill ended
//                          are the reported operating point
//   --place N              place exactly N VMs and print the daemon's stats
//                          line (crash-recovery smoke test hook)
//   --stats                print the daemon's stats line and exit
//   --metrics              print the daemon's metrics-op JSON and exit
//   --util-feed N          collector-agent mode: push skewed per-VM `util`
//                          samples for VMs 1..N so one PM reads overloaded
//                          (drives the online rebalancer; see DESIGN.md §9)
//
// --binary switches the workload connections to the PRVB1 binary protocol
// (binary_protocol.hpp): same requests, same semantics, measured against
// the same daemon. Stats/metrics queries stay JSON-lines on their own
// connections either way.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cluster/catalog.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "service/binary_protocol.hpp"
#include "service/protocol.hpp"
#include "service/socket_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket_path = "/tmp/prvm.sock";
  int port = -1;  ///< >= 0 selects TCP
  /// Endpoint specs to aim at (from --endpoint flags, else one from
  /// --socket/--port). Several drive several daemons (or routers) from one
  /// run: connections are dealt round-robin across them and the report
  /// breaks placements/sec out per target.
  std::vector<std::string> endpoints;
  std::size_t connections = 4;
  /// --sweep: fill+churn rounds at each of these connection counts against
  /// one warm daemon (workers release their VMs at round end, so every
  /// round fills from an empty fleet and rounds are comparable).
  std::vector<std::size_t> sweep;
  std::size_t pipeline = 64;
  std::size_t fill_pms = 0;
  std::size_t churn_ops = 2000;
  std::size_t place_exact = 0;
  bool stats_only = false;
  bool metrics_only = false;
  std::string json_path;
  /// --util-feed N: collector-agent mode — push per-VM `util` samples for
  /// VMs 1..N, skewed so one PM reads hot (the rebalancer smoke scenario).
  std::size_t util_feed = 0;
  std::size_t util_rounds = 10;
  double util_interval_ms = 200.0;
  double util_hot = 1.0;    ///< fraction fed to VMs on the hot PM
  double util_cool = 0.05;  ///< fraction fed to everyone else
  std::optional<std::uint64_t> hot_pm;  ///< default: the fullest PM
  /// --binary: speak PRVB1 on the workload connections.
  bool binary = false;
};

/// A blocking client connection with FIFO pipelining: JSON-lines by
/// default, PRVB1 binary when constructed with binary = true (the preamble
/// goes out at connect). The typed send helpers encode into one reused
/// buffer, so a warm connection sends without allocating.
class Client {
 public:
  explicit Client(const std::string& endpoint, bool binary = false)
      : fd_(connect_endpoint(endpoint)), binary_(binary) {
    if (fd_ < 0) throw std::runtime_error("cannot connect to " + endpoint);
    if (binary_) {
      out_.assign(kBinaryPreamble, sizeof(kBinaryPreamble));
      send_buffer();
    }
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_line(const std::string& line) {
    std::size_t written = 0;
    while (written < line.size()) {
      const ::ssize_t n = ::send(fd_, line.data() + written, line.size() - written, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("connection lost while sending");
      written += static_cast<std::size_t>(n);
    }
  }

  /// Encodes and sends one request in the connection's protocol.
  void send_request(const Request& request) {
    out_.clear();
    if (binary_) {
      encode_binary_request_into(request, out_);
    } else {
      encode_request_into(request, out_);
    }
    send_buffer();
  }

  void send_place(std::uint64_t vm, std::size_t type) {
    Request request;
    request.op = RequestOp::kPlace;
    request.vm_id = vm;
    request.vm_type_index = type;
    send_request(request);
  }

  void send_release(std::uint64_t vm) {
    Request request;
    request.op = RequestOp::kRelease;
    request.vm_id = vm;
    send_request(request);
  }

  void send_lookup(std::uint64_t vm) {
    Request request;
    request.op = RequestOp::kLookup;
    request.vm_id = vm;
    send_request(request);
  }

  void send_util(std::uint64_t vm, double cpu) {
    Request request;
    request.op = RequestOp::kUtil;
    request.vm_id = vm;
    request.cpu = cpu;
    send_request(request);
  }

  /// Next response, decoded in the connection's protocol (blocking).
  Response recv_response() {
    if (!binary_) {
      std::string error;
      auto response = parse_response(recv_line(), &error);
      if (!response.has_value()) {
        throw std::runtime_error("bad response from daemon: " + error);
      }
      return std::move(*response);
    }
    while (true) {
      if (const auto frame = bframes_.next()) {
        if (frame->status != BinaryFrameBuffer::Status::kOk ||
            frame->kind != BinaryFrameKind::kResponse) {
          throw std::runtime_error("corrupt binary response stream from daemon");
        }
        std::string error;
        auto response = parse_binary_response(frame->payload, &error);
        if (!response.has_value()) {
          throw std::runtime_error("bad response from daemon: " + error);
        }
        return std::move(*response);
      }
      char buf[16 * 1024];
      const ::ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw std::runtime_error("connection closed by daemon");
      bframes_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  /// Next response line (blocking); JSON-lines connections only. The view
  /// is valid until the next receive on this connection.
  std::string_view recv_line() {
    while (true) {
      if (const auto frame = frames_.next()) {
        if (frame->oversized) continue;
        return frame->line;
      }
      char buf[16 * 1024];
      const ::ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw std::runtime_error("connection closed by daemon");
      frames_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  JsonValue recv_json() {
    std::string error;
    auto doc = parse_json(recv_line(), &error);
    if (!doc.has_value()) throw std::runtime_error("bad response from daemon: " + error);
    return std::move(*doc);
  }

 private:
  void send_buffer() {
    std::size_t written = 0;
    while (written < out_.size()) {
      const ::ssize_t n =
          ::send(fd_, out_.data() + written, out_.size() - written, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("connection lost while sending");
      written += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
  const bool binary_;
  std::string out_;  ///< reused encode buffer
  LineBuffer frames_;
  BinaryFrameBuffer bframes_{kMaxBinaryResponseBytes};  ///< responses exceed the request cap
};

double field_number(const JsonValue& doc, const char* key) {
  const JsonValue* value = doc.find(key);
  return value != nullptr && value->kind == JsonValue::Kind::kNumber ? value->number : 0.0;
}

JsonValue query_stats(const std::string& endpoint) {
  Client client(endpoint);
  client.send_line("{\"op\":\"stats\"}\n");
  return client.recv_json();
}

/// used_pms summed across every target (the fill-phase progress signal).
std::size_t total_used_pms(const Options& options) {
  std::size_t used = 0;
  for (const std::string& endpoint : options.endpoints) {
    used += static_cast<std::size_t>(field_number(query_stats(endpoint), "used_pms"));
  }
  return used;
}

struct WorkerResult {
  std::size_t fill_placed = 0;
  std::size_t fill_rejected = 0;
  std::size_t churn_places = 0;
  std::size_t retries = 0;      ///< resends after queue_full / degraded_storage
  double churn_seconds = 0.0;   ///< this connection's own churn wall clock
};

/// VMs each connection places per fill chunk.
constexpr std::size_t kFillChunk = 256;

/// Paces the fill in chunks: the coordinator releases one chunk to every
/// connection at a time and reads used PMs only once all of them have
/// settled it, so where the fill stops depends on the placements alone and
/// not on how many landed between two polls.
class FillGate {
 public:
  explicit FillGate(std::size_t workers) : workers_(workers) {}

  /// Worker: waits until chunk `chunk` (0-based) is released; false once
  /// the fill is over instead.
  bool next(std::size_t chunk) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return released_ > chunk || over_; });
    return released_ > chunk;
  }

  /// Worker: its current chunk is settled, `placed` of it accepted.
  void finish(std::size_t placed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    placed_ += placed;
    cv_.notify_all();
  }

  /// Coordinator: runs one more chunk on every worker; returns the VMs
  /// placed in it.
  std::size_t run_chunk() {
    std::unique_lock<std::mutex> lock(mu_);
    finished_ = 0;
    placed_ = 0;
    ++released_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return finished_ == workers_; });
    return placed_;
  }

  /// Coordinator: the fill is over; workers go on to churn.
  void end() {
    std::lock_guard<std::mutex> lock(mu_);
    over_ = true;
    cv_.notify_all();
  }

 private:
  const std::size_t workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t released_ = 0;
  std::size_t finished_ = 0;
  std::size_t placed_ = 0;
  bool over_ = false;
};

/// Churn place latencies, all connections; obs::Histogram is lock-free
/// across the worker threads by construction.
obs::Histogram g_churn_latency_ns;

struct Inflight {
  Clock::time_point sent;
  bool is_place = false;
  bool timed = false;
  std::uint64_t vm = 0;
  std::size_t type = 0;
  std::uint32_t attempt = 0;  ///< retries already spent on this request
};

/// Give up retrying a single request after this many attempts; the daemon is
/// either persistently degraded or persistently overloaded, and the loadgen
/// should finish rather than spin.
constexpr std::uint32_t kMaxAttempts = 8;

/// Backoff before attempt `attempt+1`: the server's retry_after_ms hint,
/// doubled per attempt, capped, with +/-25% jitter so retries from many
/// connections do not re-arrive as one thundering herd.
double retry_delay_ms(double hint_ms, std::uint32_t attempt, Rng& rng) {
  double delay = std::max(hint_ms, 1.0) * static_cast<double>(1u << std::min(attempt, 9u));
  delay = std::min(delay, 500.0);
  return delay * rng.uniform(0.75, 1.25);
}

// One connection's workload: pipelined fill chunks while the coordinator
// releases them, then `churn_ops` release+place pairs.
void run_worker(const Options& options, const std::vector<double>& mix, std::size_t index,
                std::size_t churn_ops, FillGate& fill, WorkerResult& result) {
  // Connections are dealt round-robin across the targets.
  Client client(options.endpoints[index % options.endpoints.size()], options.binary);
  Rng rng(0x10adull * (index + 1));
  // Per-connection id space: the protocol caps VM ids at 32 bits, so each
  // connection gets a 16M-id band.
  std::uint64_t next_vm = (static_cast<std::uint64_t>(index) + 1) << 24;
  std::vector<std::uint64_t> live;
  std::deque<Inflight> inflight;

  // Requests bounced with a retry hint (queue_full / degraded_storage) wait
  // here until their backoff deadline, then go back on the wire.
  struct Resend {
    Clock::time_point due;
    Inflight request;
  };
  std::deque<Resend> resend;

  const auto draw_type = [&] { return rng.weighted_index(mix); };
  const auto send_inflight = [&](const Inflight& r) {
    if (r.is_place) {
      client.send_place(r.vm, r.type);
    } else {
      client.send_release(r.vm);
    }
  };

  // Puts every due resend back on the wire. When `wait` and nothing is in
  // flight, sleeps until the earliest deadline first (otherwise the worker
  // would busy-spin or deadlock waiting for a response that was never sent).
  const auto flush_resends = [&](bool wait) {
    if (resend.empty()) return;
    if (wait && inflight.empty()) {
      auto earliest = resend.front().due;
      for (const Resend& r : resend) earliest = std::min(earliest, r.due);
      std::this_thread::sleep_until(earliest);
    }
    const auto now = Clock::now();
    for (std::size_t i = 0; i < resend.size();) {
      if (resend[i].due <= now) {
        send_inflight(resend[i].request);
        inflight.push_back(resend[i].request);
        resend[i] = resend.back();
        resend.pop_back();
      } else {
        ++i;
      }
    }
  };

  // Settles the oldest in-flight request. Returns: 1 = accepted, 0 = final
  // rejection, 2 = requeued for retry (not yet resolved).
  const auto settle_one = [&](bool timing) -> int {
    Inflight front = inflight.front();
    inflight.pop_front();
    const Response reply = client.recv_response();
    bool accepted = reply.ok;
    if (!accepted) {
      const std::string& reason = reply.error;
      if ((reason == "queue_full" || reason == "degraded_storage") &&
          front.attempt < kMaxAttempts) {
        const double delay = retry_delay_ms(reply.retry_after_ms.value_or(0.0),
                                            front.attempt, rng);
        ++front.attempt;
        ++result.retries;
        resend.push_back(Resend{
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(delay)),
            front});
        return 2;
      }
      // Retry idempotency: a *retried* place answered duplicate_vm means an
      // earlier attempt was actually applied (degraded demotion); likewise a
      // retried release answered unknown_vm already released the VM.
      if (front.attempt > 0 &&
          ((front.is_place && reason == "duplicate_vm") ||
           (!front.is_place && reason == "unknown_vm"))) {
        accepted = true;
      }
    }
    if (front.is_place) {
      if (accepted) {
        live.push_back(front.vm);
        if (timing) ++result.churn_places;
        else ++result.fill_placed;
      } else if (!timing) {
        ++result.fill_rejected;
      }
      if (timing && front.timed) {
        // Latency is measured from the FIRST send, so retried requests
        // report the true end-to-end cost including backoff.
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - front.sent);
        g_churn_latency_ns.record(static_cast<std::uint64_t>(ns.count()));
      }
    }
    return accepted ? 1 : 0;
  };

  // Fill phase: each chunk places kFillChunk VMs, pipelined, and settles
  // every one of them (retries included) before it is reported.
  for (std::size_t chunk = 0; fill.next(chunk); ++chunk) {
    std::size_t sent = 0;
    std::size_t placed = 0;
    while (sent < kFillChunk || !inflight.empty() || !resend.empty()) {
      while (sent < kFillChunk && inflight.size() < options.pipeline) {
        Inflight request;
        request.is_place = true;
        request.vm = next_vm++;
        request.type = draw_type();
        request.sent = Clock::now();
        client.send_place(request.vm, request.type);
        inflight.push_back(request);
        ++sent;
      }
      flush_resends(inflight.empty());
      if (!inflight.empty() && settle_one(false) == 1) ++placed;
    }
    fill.finish(placed);
  }

  // Churn phase: release one, place one; only place latencies are timed.
  // `settled` counts final resolutions only, so every request is eventually
  // accepted, finally rejected, or dropped after kMaxAttempts.
  const auto churn_start = Clock::now();
  std::size_t sent_pairs = 0;
  std::size_t settled = 0;
  while (settled < 2 * churn_ops) {
    flush_resends(false);
    while (sent_pairs < churn_ops && inflight.size() + 2 <= options.pipeline && !live.empty()) {
      const std::size_t pick = rng.uniform_index(live.size());
      const std::uint64_t victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      client.send_release(victim);
      inflight.push_back(Inflight{Clock::now(), false, false, victim, 0, 0});

      Inflight request;
      request.is_place = true;
      request.timed = true;
      request.vm = next_vm++;
      request.type = draw_type();
      request.sent = Clock::now();
      client.send_place(request.vm, request.type);
      inflight.push_back(request);
      ++sent_pairs;
    }
    if (inflight.empty()) {
      if (resend.empty()) break;  // ran out of live VMs (tiny fleet)
      flush_resends(true);
      continue;
    }
    if (settle_one(true) != 2) ++settled;
  }
  while (!inflight.empty() || !resend.empty()) {
    flush_resends(true);
    if (!inflight.empty()) settle_one(true);
  }
  result.churn_seconds = std::chrono::duration<double>(Clock::now() - churn_start).count();

  // Drain: release this connection's surviving VMs (untimed) so the next
  // sweep round fills from the same empty operating point — a worker can
  // only churn VMs it placed itself, so inheriting a saturated fleet would
  // starve every round after the first.
  while (!live.empty() || !inflight.empty() || !resend.empty()) {
    flush_resends(true);
    while (!live.empty() && inflight.size() < options.pipeline) {
      const std::uint64_t victim = live.back();
      live.pop_back();
      client.send_release(victim);
      inflight.push_back(Inflight{Clock::now(), false, false, victim, 0, 0});
    }
    if (!inflight.empty()) settle_one(false);
  }
}

/// Samples recorded between two snapshots of the same histogram (the global
/// latency histogram accumulates across sweep rounds; quantiles per round
/// need the delta).
obs::HistogramSnapshot snapshot_delta(const obs::HistogramSnapshot& now,
                                      const obs::HistogramSnapshot& prev) {
  obs::HistogramSnapshot delta = now;
  for (std::size_t i = 0; i < delta.counts.size() && i < prev.counts.size(); ++i) {
    delta.counts[i] -= prev.counts[i];
  }
  delta.count -= prev.count;
  delta.sum -= prev.sum;
  return delta;
}

/// One fill+churn round at a given connection count. Each round fills from
/// an empty fleet (workers release their VMs when a round ends), so rounds
/// are directly comparable.
struct RoundResult {
  std::size_t connections = 0;
  std::size_t fill_placed = 0;
  std::size_t churn_places = 0;
  std::size_t retries = 0;
  double fill_seconds = 0.0;
  double churn_seconds = 0.0;  ///< coordinator wall clock, first send -> last join
  std::size_t used_pms = 0;  ///< the operating point: used PMs where the fill ended
  obs::HistogramSnapshot latency;     ///< this round's place latencies only
  std::vector<double> per_conn_pps;   ///< per-connection churn placement rates
  /// Per-target sums of the per-connection rates (index = endpoint index);
  /// their sum is the aggregate rate the multi-cell bench gates on.
  std::vector<double> per_endpoint_pps;
};

RoundResult run_round(const Options& options, const std::vector<double>& mix,
                      std::size_t connections) {
  RoundResult round;
  round.connections = connections;
  const obs::HistogramSnapshot before = g_churn_latency_ns.snapshot();

  FillGate fill(connections);
  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> workers;
  const std::size_t ops_per_conn = (options.churn_ops + connections - 1) / connections;

  const auto fill_start = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    workers.emplace_back(
        [&, c] { run_worker(options, mix, c, ops_per_conn, fill, results[c]); });
  }

  // Coordinator: one chunk per connection at a time until the fill target
  // is reached, or until a chunk places nothing (the fleet is full). The
  // operating point is where the fill ended: the last read, taken while
  // every worker waits between chunks, so it depends on the placements
  // alone (a read during churn would depend on its timing).
  round.used_pms = total_used_pms(options);
  if (options.fill_pms > 0) {
    while (round.used_pms < options.fill_pms && fill.run_chunk() > 0) {
      round.used_pms = total_used_pms(options);
    }
    round.fill_seconds = std::chrono::duration<double>(Clock::now() - fill_start).count();
  }
  fill.end();
  for (auto& worker : workers) worker.join();

  round.per_endpoint_pps.assign(options.endpoints.size(), 0.0);
  for (std::size_t c = 0; c < results.size(); ++c) {
    const WorkerResult& r = results[c];
    round.fill_placed += r.fill_placed;
    round.churn_places += r.churn_places;
    round.retries += r.retries;
    const double pps = r.churn_seconds > 0 ? r.churn_places / r.churn_seconds : 0.0;
    round.per_conn_pps.push_back(pps);
    round.per_endpoint_pps[c % options.endpoints.size()] += pps;
    // Slowest connection's own churn window: excludes the untimed drain,
    // which the coordinator's join-to-join wall clock would fold in.
    round.churn_seconds = std::max(round.churn_seconds, r.churn_seconds);
  }
  round.latency = snapshot_delta(g_churn_latency_ns.snapshot(), before);
  return round;
}

/// Collector-agent mode: feed per-VM utilization samples, skewed so one PM
/// reads hot. Every round re-looks-up vm -> pm, so once the rebalancer moves
/// a VM off the hot PM the feed reports it cool at its new home — the
/// hotspot drains for real instead of chasing stale assignments.
int run_util_feed(const Options& options) {
  Client client(options.endpoints.front(), options.binary);

  // Pipelined lookup of VMs 1..N; unplaced ids are simply skipped.
  const auto lookup_all = [&] {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> placed;  // vm, pm
    std::deque<std::uint64_t> inflight;
    std::uint64_t next = 1;
    while (next <= options.util_feed || !inflight.empty()) {
      while (next <= options.util_feed && inflight.size() < options.pipeline) {
        client.send_lookup(next);
        inflight.push_back(next);
        ++next;
      }
      const Response reply = client.recv_response();
      const std::uint64_t vm = inflight.front();
      inflight.pop_front();
      if (reply.ok) placed.emplace_back(vm, reply.pm.value_or(0));
    }
    return placed;
  };

  auto placed = lookup_all();
  if (placed.empty()) {
    std::cerr << "prvm_loadgen: --util-feed found no placed VMs in 1.."
              << options.util_feed << "\n";
    return 1;
  }
  // Hot PM defaults to the fullest one: the densest target is the one a
  // skewed feed can most plausibly push over the threshold.
  std::uint64_t hot_pm = 0;
  if (options.hot_pm.has_value()) {
    hot_pm = *options.hot_pm;
  } else {
    std::unordered_map<std::uint64_t, std::size_t> residents;
    for (const auto& [vm, pm] : placed) ++residents[pm];
    std::size_t best = 0;
    for (const auto& [pm, count] : residents) {
      if (count > best || (count == best && pm < hot_pm)) {
        best = count;
        hot_pm = pm;
      }
    }
  }

  std::size_t samples = 0;
  for (std::size_t round = 0; round < options.util_rounds; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options.util_interval_ms));
      placed = lookup_all();
    }
    std::size_t hot_residents = 0;
    std::deque<bool> inflight;  // pipelined util acks (content ignored)
    for (const auto& [vm, pm] : placed) {
      const bool hot = pm == hot_pm;
      hot_residents += hot ? 1 : 0;
      client.send_util(vm, hot ? options.util_hot : options.util_cool);
      inflight.push_back(true);
      ++samples;
      while (inflight.size() >= options.pipeline) {
        client.recv_response();
        inflight.pop_front();
      }
    }
    while (!inflight.empty()) {
      client.recv_response();
      inflight.pop_front();
    }
    std::printf("util-feed[%zu]: hot_pm=%llu residents=%zu vms=%zu\n", round,
                static_cast<unsigned long long>(hot_pm), hot_residents, placed.size());
    std::fflush(stdout);
  }
  std::printf("util-feed: %zu samples over %zu rounds\n", samples, options.util_rounds);
  return 0;
}

void print_stats_line(const JsonValue& doc) {
  // Re-encode the interesting fields verbatim for shell tooling.
  std::cout << "used_pms=" << static_cast<std::uint64_t>(field_number(doc, "used_pms"))
            << " vm_count=" << static_cast<std::uint64_t>(field_number(doc, "vm_count"))
            << " placed=" << static_cast<std::uint64_t>(field_number(doc, "placed"))
            << " op_seq=" << static_cast<std::uint64_t>(field_number(doc, "op_seq"));
  const JsonValue* digest = doc.find("state_digest");
  if (digest != nullptr && digest->kind == JsonValue::Kind::kString) {
    std::cout << " state_digest=" << digest->string;
  }
  const JsonValue* recovered = doc.find("recovered");
  if (recovered != nullptr && recovered->kind == JsonValue::Kind::kBool) {
    std::cout << " recovered=" << (recovered->boolean ? "true" : "false");
  }
  // A router's merged stats lead with the cell count; single-cell daemons
  // have no such member and keep the historical line shape.
  const JsonValue* cells = doc.find("cells");
  if (cells != nullptr && cells->kind == JsonValue::Kind::kNumber) {
    std::cout << " cells=" << static_cast<std::uint64_t>(cells->number);
  }
  std::cout << "\n";
}

}  // namespace
}  // namespace prvm

int main(int argc, char** argv) {
  using namespace prvm;

  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = value();
    } else if (arg == "--port") {
      options.port = std::stoi(value());
    } else if (arg == "--endpoint") {
      // unix:PATH or tcp:PORT; repeat to drive several daemons (or routers)
      // from one run, connections dealt round-robin across them.
      options.endpoints.push_back(value());
      if (!parse_endpoint(options.endpoints.back()).has_value()) {
        std::cerr << "bad --endpoint '" << options.endpoints.back()
                  << "' (want unix:PATH or tcp:PORT)\n";
        return 2;
      }
    } else if (arg == "--connections") {
      options.connections = std::stoull(value());
    } else if (arg == "--sweep") {
      // Comma-separated connection counts, e.g. --sweep 1,2,4,8.
      std::string list = value();
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string item = list.substr(pos, comma - pos);
        if (!item.empty()) options.sweep.push_back(std::stoull(item));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--pipeline") {
      options.pipeline = std::max<std::size_t>(4, std::stoull(value()));
    } else if (arg == "--fill-pms") {
      options.fill_pms = std::stoull(value());
    } else if (arg == "--ops") {
      options.churn_ops = std::stoull(value());
    } else if (arg == "--place") {
      options.place_exact = std::stoull(value());
    } else if (arg == "--stats") {
      options.stats_only = true;
    } else if (arg == "--metrics") {
      options.metrics_only = true;
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--util-feed") {
      options.util_feed = std::stoull(value());
    } else if (arg == "--util-rounds") {
      options.util_rounds = std::stoull(value());
    } else if (arg == "--util-interval-ms") {
      options.util_interval_ms = std::stod(value());
    } else if (arg == "--util-hot") {
      options.util_hot = std::stod(value());
    } else if (arg == "--util-cool") {
      options.util_cool = std::stod(value());
    } else if (arg == "--hot-pm") {
      options.hot_pm = std::stoull(value());
    } else if (arg == "--binary") {
      options.binary = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--socket PATH | --port N | --endpoint SPEC ...] [--binary]\n"
                << "       [--connections C | --sweep C1,C2,..]\n"
                << "       [--pipeline W] [--fill-pms N --ops M [--json PATH]] | [--place N]\n"
                << "       | [--stats] | [--metrics]\n"
                << "       | [--util-feed N [--util-rounds R] [--util-interval-ms F]\n"
                << "          [--util-hot F] [--util-cool F] [--hot-pm P]]\n";
      return 2;
    }
  }
  if (options.endpoints.empty()) {
    options.endpoints.push_back(options.port >= 0 ? "tcp:" + std::to_string(options.port)
                                                  : "unix:" + options.socket_path);
  }

  try {
    if (options.stats_only) {
      for (const std::string& endpoint : options.endpoints) {
        print_stats_line(query_stats(endpoint));
      }
      return 0;
    }
    if (options.metrics_only) {
      // Raw scrape of the daemon's in-band metrics op: one JSON line with
      // every counter, gauge and histogram summary in the registry.
      for (const std::string& endpoint : options.endpoints) {
        Client client(endpoint);
        client.send_line("{\"op\":\"metrics\"}\n");
        std::cout << client.recv_line() << "\n";
      }
      return 0;
    }

    if (options.util_feed > 0) {
      return run_util_feed(options);
    }

    const Catalog catalog = ec2_sim_catalog();
    const std::vector<double> mix = default_vm_mix(catalog);

    if (options.place_exact > 0) {
      // Exact-count placement for the crash-recovery smoke test: every
      // acknowledged placement is crash-durable by the daemon's contract.
      // Transient rejections (queue_full, degraded_storage) are retried with
      // the server's backoff hint; a retried place answered duplicate_vm was
      // actually applied by an earlier attempt and counts as placed.
      Client client(options.endpoints.front(), options.binary);
      Rng rng(0x91aceull);  // fixed seed: the smoke test replays this exact stream
      std::size_t placed = 0;
      std::size_t retries = 0;
      std::uint64_t next_vm = 1;
      while (placed < options.place_exact) {
        const std::uint64_t vm = next_vm++;
        const std::size_t type = rng.weighted_index(mix);
        for (std::uint32_t attempt = 0;; ++attempt) {
          client.send_place(vm, type);
          const Response reply = client.recv_response();
          if (reply.ok) {
            ++placed;
            break;
          }
          if (attempt > 0 && reply.error == "duplicate_vm") {
            ++placed;
            break;
          }
          if ((reply.error == "queue_full" || reply.error == "degraded_storage") &&
              attempt < 2 * kMaxAttempts) {
            ++retries;
            const double delay =
                retry_delay_ms(reply.retry_after_ms.value_or(0.0), attempt, rng);
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
            continue;
          }
          break;  // hard rejection (no_capacity, ...): move on to the next VM
        }
      }
      if (retries > 0) std::printf("retries: %zu\n", retries);
      print_stats_line(query_stats(options.endpoints.front()));
      return 0;
    }

    // Throughput scenario: fill to --fill-pms used PMs, then churn --ops
    // pairs — once at --connections, or once per point of the --sweep (the
    // fleet is filled by the first round and stays at the operating point;
    // later rounds measure pure churn at their connection count).
    std::vector<std::size_t> counts =
        options.sweep.empty() ? std::vector<std::size_t>{options.connections} : options.sweep;
    std::vector<RoundResult> rounds;
    for (const std::size_t connections : counts) {
      rounds.push_back(run_round(options, mix, connections));
      const RoundResult& round = rounds.back();
      const double churn_pps =
          round.churn_seconds > 0 ? round.churn_places / round.churn_seconds : 0.0;
      if (round.fill_placed > 0) {
        std::printf("fill:  %zu placements in %.2fs (%.0f pl/s)\n", round.fill_placed,
                    round.fill_seconds,
                    round.fill_seconds > 0 ? round.fill_placed / round.fill_seconds : 0.0);
      }
      std::printf(
          "churn[c=%zu]: %zu placements in %.2fs   %8.0f pl/s   p50 %8.2f us   "
          "p99 %8.2f us   p999 %8.2f us\n",
          round.connections, round.churn_places, round.churn_seconds, churn_pps,
          round.latency.quantile(0.50) / 1000.0, round.latency.quantile(0.99) / 1000.0,
          round.latency.quantile(0.999) / 1000.0);
      std::printf("  per-connection pl/s:");
      for (const double pps : round.per_conn_pps) std::printf(" %.0f", pps);
      std::printf("   (%zu used PMs, pipeline %zu, %zu retries)\n", round.used_pms,
                  options.pipeline, round.retries);
      if (options.endpoints.size() > 1) {
        double aggregate = 0.0;
        for (std::size_t e = 0; e < options.endpoints.size(); ++e) {
          std::printf("  target %-24s %8.0f pl/s\n", options.endpoints[e].c_str(),
                      round.per_endpoint_pps[e]);
          aggregate += round.per_endpoint_pps[e];
        }
        std::printf("  aggregate across %zu targets: %8.0f pl/s\n",
                    options.endpoints.size(), aggregate);
      }
    }

    if (!options.json_path.empty()) {
      std::ofstream os(options.json_path, std::ios::trunc);
      if (!os.is_open()) {
        std::cerr << "cannot write " << options.json_path << "\n";
        return 1;
      }
      // Headline numbers come from the last round (the sweep's final — and
      // typically largest — connection count); every round is in "sweep".
      const RoundResult& last = rounds.back();
      const double fill_pps =
          last.fill_seconds > 0 ? last.fill_placed / last.fill_seconds : 0.0;
      const auto round_json = [&os, &options](const RoundResult& round) {
        const double pps =
            round.churn_seconds > 0 ? round.churn_places / round.churn_seconds : 0.0;
        double aggregate = 0.0;
        for (const double target_pps : round.per_endpoint_pps) aggregate += target_pps;
        os << "{\"connections\": " << round.connections
           << ", \"churn_placements_per_sec\": " << pps
           << ", \"aggregate_placements_per_sec\": " << aggregate
           << ", \"churn_ops\": " << round.churn_places
           << ", \"retries\": " << round.retries
           << ", \"p50_us\": " << round.latency.quantile(0.50) / 1000.0
           << ", \"p99_us\": " << round.latency.quantile(0.99) / 1000.0
           << ", \"p999_us\": " << round.latency.quantile(0.999) / 1000.0
           << ", \"per_connection_placements_per_sec\": [";
        for (std::size_t i = 0; i < round.per_conn_pps.size(); ++i) {
          os << (i > 0 ? ", " : "") << round.per_conn_pps[i];
        }
        os << "], \"endpoints\": [";
        for (std::size_t e = 0; e < round.per_endpoint_pps.size(); ++e) {
          os << (e > 0 ? ", " : "") << "{\"endpoint\": "
             << json_quote(options.endpoints[e])
             << ", \"churn_placements_per_sec\": " << round.per_endpoint_pps[e] << "}";
        }
        os << "]}";
      };
      os << "{\n  \"benchmark\": \"service_throughput\",\n  \"catalog\": \"ec2_sim\",\n"
         << "  \"protocol\": \"" << (options.binary ? "binary" : "json") << "\",\n"
         << "  \"churn_ops\": " << last.churn_places << ",\n  \"connections\": "
         << last.connections << ",\n  \"pipeline\": " << options.pipeline << ",\n"
         << "  \"sweep\": [\n";
      for (std::size_t i = 0; i < rounds.size(); ++i) {
        os << "    ";
        round_json(rounds[i]);
        os << (i + 1 < rounds.size() ? ",\n" : "\n");
      }
      os << "  ],\n"
         << "  \"fleets\": [\n    {\"pms\": " << options.fill_pms
         << ", \"used_pms\": " << last.used_pms << ",\n      \"service\": {"
         << "\"fill_placements_per_sec\": " << fill_pps
         << ", \"fill_placements\": " << last.fill_placed
         << ", \"churn_placements_per_sec\": "
         << (last.churn_seconds > 0 ? last.churn_places / last.churn_seconds : 0.0)
         << ", \"churn_ops\": " << last.churn_places << ", \"retries\": " << last.retries
         << ", \"p50_us\": " << last.latency.quantile(0.50) / 1000.0
         << ", \"p99_us\": " << last.latency.quantile(0.99) / 1000.0
         << ", \"p999_us\": " << last.latency.quantile(0.999) / 1000.0
         << ",\n      \"latency_histogram_us\": [";
      // Nonzero buckets as [upper_bound_us, count] pairs, the same log2
      // bucketing the daemon's own histograms use.
      bool first = true;
      for (std::size_t i = 0; i < last.latency.counts.size(); ++i) {
        if (last.latency.counts[i] == 0) continue;
        os << (first ? "" : ", ") << "[" << obs::Histogram::bucket_hi(i) / 1000.0 << ", "
           << last.latency.counts[i] << "]";
        first = false;
      }
      os << "]}}\n  ]\n}\n";
      std::cout << "wrote " << options.json_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "prvm_loadgen: " << e.what() << "\n";
    return 1;
  }
}
