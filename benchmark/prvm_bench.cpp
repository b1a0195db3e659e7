// prvm_bench — the load client and traced replay of the placement-service
// benchmark (benchmark/run.py starts the daemons and calls this).
//
//   prvm_bench --self-test
//   prvm_bench load --endpoint PATH --codec binary|json [options]
//
// `load` drives one deployment from a single process with one thread per
// connection (kConns of them). Phases, in order:
//   fill      places until the deployment reports --fill-pms used PMs
//   warmup    untimed closed-loop churn
//   closed    closed-loop churn: every connection keeps kPipeline requests
//             in flight for a fixed number of units
//   traced    (with --traced-units) the closed loop again with client spans
//   ladder    open loop at fixed placement rates, one step each; latency
//             counts from each unit's *scheduled* send time; the ladder
//             runs through the nominal step, stops after the first step
//             that misses the SLO, then bisects between the last passing
//             and the first failing rate
//   verify    looks up every acked live VM and a sample of released ones
//   replay    (with --replay-requests) a single-threaded in-process replay
//             of the same op stream through every layer, one span per call
//
// A unit is one placement slot of the op stream: [release] place
// [lookup x reads] [util x utils]. Each connection owns its own VM id band
// and live set, so every release or lookup targets a VM whose place went
// out earlier on the same connection; FIFO order per connection makes the
// stream independent of reply timing. At every edge of the closed phase's
// segments the client prints "@sync <point>" and waits for a line on stdin,
// so the caller can sample /proc and the daemons' metrics there.
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cells/embedded.hpp"
#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/pagerank_vm.hpp"
#include "router/router.hpp"
#include "service/binary_protocol.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "sim/simulator.hpp"

namespace prvm::bench {
namespace {

using obs::now_ns;

// ---------------------------------------------------------------------------
// Math shared by the phases (covered by --self-test)

/// Exact q-quantile of `v` by linear interpolation between order statistics
/// (the numpy "linear" rule). Reorders `v`; 0 when empty.
double exact_quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

/// Open-loop schedule: unit k of a connection is due at t0 + k * interval.
struct Schedule {
  std::uint64_t t0_ns = 0;
  double interval_ns = 0.0;
  std::uint64_t due(std::size_t k) const {
    return t0_ns + static_cast<std::uint64_t>(static_cast<double>(k) * interval_ns);
  }
};

/// One traced call. Spans of one request share `req`; `parent` is the span
/// id of the enclosing span (0 = root).
struct Span {
  std::uint32_t name = 0;
  std::uint64_t req = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Span names, indexed by Span::name.
const std::vector<std::string> kSpanNames = {
    "client.request",          "client.encode",
    "client.send",             "client.wait",
    "client.decode",           "replay.op",
    "protocol.parse_request",  "binary_protocol.parse_request",
    "service.execute",         "placement.place",
    "cluster.remove",          "wal.append",
    "wal.flush",               "protocol.encode_response",
    "binary_protocol.encode_response",
};
enum SpanName : std::uint32_t {
  kClientRequest, kClientEncode, kClientSend, kClientWait, kClientDecode,
  kReplayOp, kJsonParse, kBinaryParse, kExecute, kTwinPlace, kTwinRemove,
  kWalAppend, kWalFlush, kJsonEncode, kBinaryEncode,
};

/// Spans in preallocated memory: add() never allocates, and spans past the
/// capacity are counted, not stored.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }
  void add(std::uint32_t name, std::uint64_t req, std::uint64_t parent, std::uint64_t start,
           std::uint64_t end) {
    add_with_id(++next_id_, name, req, parent, start, end);
  }
  /// Reserves an id for a parent span recorded after its children.
  std::uint64_t reserve_id() { return ++next_id_; }
  void add_with_id(std::uint64_t id, std::uint32_t name, std::uint64_t req,
                   std::uint64_t parent, std::uint64_t start, std::uint64_t end) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(Span{name, req, id, parent, start, end});
    } else {
      ++dropped_;
    }
  }
  void set_id_base(std::uint64_t base) { next_id_ = base; }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
  std::size_t dropped_ = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span. Same order as `spans`.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) children[it->second].emplace_back(s.start, s.end);
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::clamp(lo, s.start, s.end);
      hi = std::clamp(hi, s.start, s.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    const std::uint64_t dur = s.end > s.start ? s.end - s.start : 0;
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The op stream

struct Traffic {
  double group_share = 0.0;  ///< share of places that join a group
  int reads = 0;             ///< lookups per unit
  int utils = 0;             ///< util samples per unit
};

constexpr int kMaxReads = 8;
constexpr int kMaxUtils = 4;

struct Unit {
  std::uint64_t release = 0;  ///< 0 = no release in this unit
  std::uint64_t place = 0;
  std::size_t type = 0;
  std::string group;
  std::array<std::uint64_t, kMaxReads> lookups{};
  int n_lookups = 0;
  std::array<std::uint64_t, kMaxUtils> utils{};
  std::array<double, kMaxUtils> cpu{};
  int n_utils = 0;
  std::size_t requests() const {
    return (release != 0 ? 1 : 0) + 1 + static_cast<std::size_t>(n_lookups + n_utils);
  }
};

/// One connection's seeded op stream. Deterministic in (seed, connection):
/// the live set is updated when a request is *sent*, not when it is acked.
class OpStream {
 public:
  OpStream(std::uint64_t seed, std::size_t conn, std::vector<double> mix, Traffic traffic)
      : rng_(Rng(seed).fork(conn + 1)),
        mix_(std::move(mix)),
        traffic_(traffic),
        conn_(conn),
        next_vm_((static_cast<std::uint64_t>(conn) + 1) << 24) {}

  Unit next(bool churn) {
    Unit u;
    if (churn && !live_.empty()) {
      const std::size_t i = rng_.uniform_index(live_.size());
      u.release = live_[i];
      live_[i] = live_.back();
      live_.pop_back();
    }
    u.place = next_vm_++;
    u.type = rng_.weighted_index(mix_);
    if (traffic_.group_share > 0.0 && rng_.chance(traffic_.group_share)) {
      if (group_members_ == 0 || group_members_ == 3) {
        ++group_seq_;
        group_members_ = 0;
      }
      ++group_members_;
      u.group = "g" + std::to_string(conn_) + "." + std::to_string(group_seq_);
    }
    live_.push_back(u.place);
    u.n_lookups = std::min(traffic_.reads, kMaxReads);
    for (int i = 0; i < u.n_lookups; ++i) u.lookups[i] = live_[rng_.uniform_index(live_.size())];
    u.n_utils = std::min(traffic_.utils, kMaxUtils);
    for (int i = 0; i < u.n_utils; ++i) {
      u.utils[i] = live_[rng_.uniform_index(live_.size())];
      u.cpu[i] = rng_.uniform(0.05, 0.6);
    }
    return u;
  }

  /// Drops a VM whose place was rejected, so no later op targets it.
  void forget(std::uint64_t vm) {
    const auto it = std::find(live_.begin(), live_.end(), vm);
    if (it == live_.end()) return;
    *it = live_.back();
    live_.pop_back();
  }

  const std::vector<std::uint64_t>& live() const { return live_; }

 private:
  Rng rng_;
  std::vector<double> mix_;
  Traffic traffic_;
  std::size_t conn_;
  std::uint64_t next_vm_;
  std::vector<std::uint64_t> live_;
  std::uint64_t group_seq_ = 0;
  int group_members_ = 0;
};

/// The requests of one unit, in wire order.
template <typename F>
void for_each_request(const Unit& u, F&& f) {
  Request r;
  if (u.release != 0) {
    r.op = RequestOp::kRelease;
    r.vm_id = u.release;
    f(r);
  }
  r = Request{};
  r.op = RequestOp::kPlace;
  r.vm_id = u.place;
  r.vm_type_index = u.type;
  r.group = u.group;
  f(r);
  for (int i = 0; i < u.n_lookups; ++i) {
    r = Request{};
    r.op = RequestOp::kLookup;
    r.vm_id = u.lookups[i];
    f(r);
  }
  for (int i = 0; i < u.n_utils; ++i) {
    r = Request{};
    r.op = RequestOp::kUtil;
    r.vm_id = u.utils[i];
    r.cpu = u.cpu[i];
    f(r);
  }
}

// ---------------------------------------------------------------------------
// Client connection

/// A non-blocking Unix-socket client in either wire codec. Encodes into one
/// reused buffer; decodes responses straight out of its read buffer.
class Conn {
 public:
  Conn(const std::string& path, bool binary) : binary_(binary) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " + why);
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    if (binary_) out_.assign(kBinaryPreamble, sizeof(kBinaryPreamble));
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void encode(const Request& r) {
    if (binary_) {
      if (!encode_binary_request_into(r, out_)) throw std::runtime_error("unencodable request");
    } else {
      encode_request_into(r, out_);
    }
  }

  /// Sends as much buffered output as the socket takes right now.
  void flush() {
    while (out_off_ < out_.size()) {
      const ::ssize_t n =
          ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    out_off_ = 0;
  }
  bool out_pending() const { return out_off_ < out_.size(); }

  /// Reads whatever is readable; false when nothing was.
  bool read_some() {
    bool any = false;
    while (true) {
      char buf[64 * 1024];
      const ::ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        any = true;
        if (binary_) {
          frames_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        } else {
          if (in_off_ > 0 && in_off_ * 2 > in_.size()) {
            in_.erase(0, in_off_);
            in_off_ = 0;
          }
          in_.append(buf, static_cast<std::size_t>(n));
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
        continue;
      }
      if (n == 0) throw std::runtime_error("connection closed by server");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return any;
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv failed: ") + std::strerror(errno));
    }
  }

  /// Next complete response already read, if any.
  std::optional<Response> next_response() {
    std::string error;
    if (binary_) {
      const auto frame = frames_.next();
      if (!frame.has_value()) return std::nullopt;
      if (frame->status != BinaryFrameBuffer::Status::kOk ||
          frame->kind != BinaryFrameKind::kResponse) {
        throw std::runtime_error("corrupt binary response stream");
      }
      auto r = parse_binary_response(frame->payload, &error);
      if (!r.has_value()) throw std::runtime_error("bad response: " + error);
      return r;
    }
    const std::size_t nl = in_.find('\n', in_off_);
    if (nl == std::string::npos) return std::nullopt;
    auto r = parse_response(std::string_view(in_).substr(in_off_, nl - in_off_), &error);
    in_off_ = nl + 1;
    if (!r.has_value()) throw std::runtime_error("bad response: " + error);
    return r;
  }

  /// Waits until readable (or writable while output is pending), or until
  /// `deadline` (absolute now_ns; 0 = at most 50 ms).
  void wait(std::uint64_t deadline) {
    pollfd p{fd_, static_cast<short>(POLLIN | (out_pending() ? POLLOUT : 0)), 0};
    const std::uint64_t now = now_ns();
    std::uint64_t wait_ns = 50'000'000;
    if (deadline != 0) wait_ns = deadline > now ? std::min(deadline - now, wait_ns) : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(&p, 1, &ts, nullptr);
  }

  /// Blocking request/response (control traffic only, nothing in flight).
  Response call(const Request& r) {
    encode(r);
    while (true) {
      flush();
      if (auto resp = next_response()) return std::move(*resp);
      if (!read_some()) wait(0);
    }
  }

 private:
  int fd_ = -1;
  bool binary_;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
  BinaryFrameBuffer frames_{kMaxBinaryResponseBytes};
};

/// A numeric member of a response's `extra` (stats counters, the router's
/// "cell"), or `fallback` when absent or not a number.
double extra_number(const Response& r, std::string_view key, double fallback = 0.0) {
  for (const auto& [k, v] : r.extra) {
    if (k != key) continue;
    try {
      return std::stod(v);
    } catch (const std::exception&) {
      return fallback;
    }
  }
  return fallback;
}

// ---------------------------------------------------------------------------
// One connection's load state

enum class Kind : std::uint8_t { kPlace, kRelease, kLookup, kUtil, kVerifyLive, kVerifyGone };

struct Inflight {
  std::uint64_t sched = 0;  ///< due time (open loop) or send time (closed loop)
  std::uint64_t vm = 0;
  Kind kind = Kind::kPlace;
  std::uint64_t enc_start = 0, enc_end = 0, send_start = 0, send_end = 0;  ///< traced only
};

struct Where {
  std::uint64_t pm = 0;
  std::int64_t cell = -1;  ///< -1 = no router annotation
};

/// What a phase records. Cleared per phase; merged across connections.
struct PhaseRec {
  std::vector<std::uint64_t> place_ns, read_ns, late_ns;
  std::size_t places_ok = 0;
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::uint64_t last_reply_ns = 0;
  void merge(const PhaseRec& o) {
    place_ns.insert(place_ns.end(), o.place_ns.begin(), o.place_ns.end());
    read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
    late_ns.insert(late_ns.end(), o.late_ns.begin(), o.late_ns.end());
    places_ok += o.places_ok;
    requests += o.requests;
    failed += o.failed;
    last_reply_ns = std::max(last_reply_ns, o.last_reply_ns);
  }
};

struct VerifyRow {
  std::uint64_t vm = 0;
  bool live = false;
  Where acked;
  bool ok = false;
  Where got;
  std::string error;
  std::string group;
};

struct ConnState {
  ConnState(const std::string& path, bool binary, OpStream s, std::uint64_t seed)
      : conn(path, binary), stream(std::move(s)), sample_rng(Rng(seed).fork(0xd00d)) {}

  Conn conn;
  OpStream stream;
  std::deque<Inflight> inflight;
  std::unordered_map<std::uint64_t, Where> acked;
  std::unordered_map<std::uint64_t, std::string> group_of;  ///< live grouped VMs
  std::vector<std::uint64_t> released_sample;              ///< reservoir
  std::size_t released_seen = 0;
  std::size_t released_cap = 0;
  Rng sample_rng;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t check_failures = 0;
  std::map<std::string, std::size_t> errors;
  PhaseRec rec;
  std::vector<VerifyRow> verify;
  SpanBuffer* spans = nullptr;  ///< client spans (traced phase only)
  std::string error;            ///< thread failure, reported by the coordinator
};

Request make_lookup(std::uint64_t vm) {
  Request r;
  r.op = RequestOp::kLookup;
  r.vm_id = vm;
  return r;
}

void settle(ConnState& cs, const Inflight& f, const Response& r, std::uint64_t t_recv,
            bool record) {
  const auto where = [&r] {
    return Where{r.pm.value_or(0), static_cast<std::int64_t>(extra_number(r, "cell", -1.0))};
  };
  if (f.kind == Kind::kVerifyLive || f.kind == Kind::kVerifyGone) {
    VerifyRow row;
    row.vm = f.vm;
    row.live = f.kind == Kind::kVerifyLive;
    if (const auto it = cs.acked.find(f.vm); it != cs.acked.end()) row.acked = it->second;
    if (const auto it = cs.group_of.find(f.vm); it != cs.group_of.end()) row.group = it->second;
    row.ok = r.ok;
    if (r.ok) row.got = where();
    row.error = r.error;
    cs.verify.push_back(std::move(row));
    return;
  }
  ++cs.rec.requests;
  cs.rec.last_reply_ns = t_recv;
  if (!r.ok) {
    ++cs.failed;
    ++cs.rec.failed;
    ++cs.errors[r.error.empty() ? std::string("unknown") : r.error];
    if (f.kind == Kind::kPlace) cs.stream.forget(f.vm);
    return;
  }
  const std::uint64_t lat = t_recv > f.sched ? t_recv - f.sched : 0;
  switch (f.kind) {
    case Kind::kPlace:
      cs.acked[f.vm] = where();
      ++cs.rec.places_ok;
      if (record) cs.rec.place_ns.push_back(lat);
      break;
    case Kind::kRelease:
      cs.acked.erase(f.vm);
      cs.group_of.erase(f.vm);
      ++cs.released_seen;
      if (cs.released_sample.size() < cs.released_cap) {
        cs.released_sample.push_back(f.vm);
      } else if (cs.released_cap > 0) {
        const std::size_t j = cs.sample_rng.uniform_index(cs.released_seen);
        if (j < cs.released_cap) cs.released_sample[j] = f.vm;
      }
      break;
    case Kind::kLookup: {
      const auto it = cs.acked.find(f.vm);
      const Where got = where();
      if (it == cs.acked.end() || it->second.pm != got.pm || it->second.cell != got.cell) {
        ++cs.check_failures;
      }
      if (record) cs.rec.read_ns.push_back(lat);
      break;
    }
    default:
      break;
  }
}

/// Decodes every buffered response; returns how many settled.
std::size_t drain_replies(ConnState& cs, bool record) {
  std::size_t n = 0;
  const std::uint64_t t_recv = now_ns();
  while (auto r = cs.conn.next_response()) {
    if (cs.inflight.empty()) throw std::runtime_error("response without a request");
    const Inflight f = cs.inflight.front();
    cs.inflight.pop_front();
    if (cs.spans != nullptr) {
      const std::uint64_t t_dec = now_ns();
      const std::uint64_t parent = cs.spans->reserve_id();
      const std::uint64_t req = parent;
      cs.spans->add(kClientEncode, req, parent, f.enc_start, f.enc_end);
      cs.spans->add(kClientSend, req, parent, f.send_start, f.send_end);
      cs.spans->add(kClientWait, req, parent, f.send_end, t_recv);
      cs.spans->add(kClientDecode, req, parent, t_recv, t_dec);
      cs.spans->add_with_id(parent, kClientRequest, req, 0, f.enc_start, t_dec);
    }
    settle(cs, f, *r, t_recv, record);
    ++n;
  }
  return n;
}

void encode_unit(ConnState& cs, const Unit& u, std::uint64_t sched) {
  for_each_request(u, [&](const Request& r) {
    Inflight f;
    f.sched = sched;
    f.vm = r.vm_id;
    switch (r.op) {
      case RequestOp::kPlace: f.kind = Kind::kPlace; break;
      case RequestOp::kRelease: f.kind = Kind::kRelease; break;
      case RequestOp::kLookup: f.kind = Kind::kLookup; break;
      default: f.kind = Kind::kUtil; break;
    }
    if (cs.spans != nullptr) f.enc_start = now_ns();
    cs.conn.encode(r);
    if (cs.spans != nullptr) f.enc_end = now_ns();
    if (!r.group.empty()) cs.group_of[r.vm_id] = r.group;
    cs.inflight.push_back(f);
    ++cs.attempted;
  });
}

void flush_traced(ConnState& cs, std::size_t first_unsent) {
  if (cs.spans == nullptr) {
    cs.conn.flush();
    return;
  }
  const std::uint64_t t0 = now_ns();
  cs.conn.flush();
  const std::uint64_t t1 = now_ns();
  for (std::size_t i = first_unsent; i < cs.inflight.size(); ++i) {
    cs.inflight[i].send_start = t0;
    cs.inflight[i].send_end = t1;
  }
}

struct PhaseSpec {
  bool open = false;
  bool churn = true;
  bool record = false;
  std::size_t units = 0;   ///< units this connection sends
  std::size_t window = 64; ///< max requests in flight
  Schedule schedule;       ///< open loop only
};

/// Runs one phase on one connection (its own thread).
void run_phase(ConnState& cs, const PhaseSpec& spec) {
  std::size_t sent = 0;
  std::optional<Unit> pending;
  while (true) {
    const std::uint64_t now = now_ns();
    const std::size_t first_unsent = cs.inflight.size();
    while (sent < spec.units) {
      if (!pending.has_value()) pending = cs.stream.next(spec.churn);
      if (cs.inflight.size() + pending->requests() > spec.window && !cs.inflight.empty()) break;
      std::uint64_t sched = now;
      if (spec.open) {
        sched = spec.schedule.due(sent);
        if (sched > now) break;
        if (spec.record) cs.rec.late_ns.push_back(now - sched);
      }
      encode_unit(cs, *pending, sched);
      pending.reset();
      ++sent;
    }
    flush_traced(cs, first_unsent);
    cs.conn.read_some();
    const std::size_t settled = drain_replies(cs, spec.record);
    if (sent == spec.units && cs.inflight.empty() && !cs.conn.out_pending()) return;
    // Settled replies may have opened the window: send before sleeping.
    if (settled > 0) continue;
    // Sleep until the next unit is due, unless the window is what holds it.
    std::uint64_t deadline = 0;
    if (spec.open && sent < spec.units &&
        (!pending.has_value() || cs.inflight.size() + pending->requests() <= spec.window)) {
      deadline = spec.schedule.due(sent);
      if (deadline <= now_ns()) continue;
    }
    cs.conn.wait(deadline);
  }
}

/// Verify phase on one connection: look up every live VM and the sample of
/// released ones, pipelined.
void run_verify(ConnState& cs, std::size_t window) {
  std::vector<Inflight> todo;
  for (const std::uint64_t vm : cs.stream.live()) todo.push_back(Inflight{0, vm, Kind::kVerifyLive});
  for (const std::uint64_t vm : cs.released_sample) todo.push_back(Inflight{0, vm, Kind::kVerifyGone});
  std::size_t next = 0;
  while (next < todo.size() || !cs.inflight.empty()) {
    while (next < todo.size() && cs.inflight.size() < window) {
      cs.conn.encode(make_lookup(todo[next].vm));
      cs.inflight.push_back(todo[next]);
      ++next;
    }
    cs.conn.flush();
    if (!cs.conn.read_some()) {
      if (drain_replies(cs, false) == 0) cs.conn.wait(0);
      continue;
    }
    drain_replies(cs, false);
  }
}

// ---------------------------------------------------------------------------
// JSON output helpers

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct Json {
  std::ostringstream os;
  bool first = true;
  Json() { os << "{"; }
  Json& raw(const std::string& key, const std::string& value) {
    os << (first ? "" : ",") << json_quote(key) << ":" << value;
    first = false;
    return *this;
  }
  Json& n(const std::string& key, double v) { return raw(key, num(v)); }
  std::string str() { return os.str() + "}"; }
};

// ---------------------------------------------------------------------------
// load

/// Connections, one thread each: 2 stays below nproc on a 4-thread host.
constexpr std::size_t kConns = 2;
/// Requests in flight per connection in the closed-loop phases.
constexpr std::size_t kPipeline = 64;
/// Units per connection between two used-PM checks of the fill.
constexpr std::size_t kFillChunk = 1000;
/// Open-loop requests in flight per connection. Two connections stay under
/// the daemon's 4096-slot queue, so overload shows as generator lateness
/// (counted in latency) instead of queue_full failures.
constexpr std::size_t kInflightCap = 2000;
/// Ladder step whose latencies are the headline ones (about half of the
/// recorded capacity); the ladder always runs up to it.
constexpr std::size_t kNominalStep = 1;
/// Probes between the last passing and the first failing ladder rate.
constexpr std::size_t kBisectProbes = 2;
/// A ladder step meets the SLO when no request fails and place p99 stays
/// at or under this.
constexpr double kSloP99Us = 50000.0;
/// Spans the client records per request: client.request and its four
/// children.
constexpr std::size_t kClientSpansPerRequest = 5;
/// Spans the replay records per request at most: replay.op, encode, parse,
/// execute, place/remove, WAL append, response encode, decode, and a WAL
/// flush every 64 records.
constexpr std::size_t kReplaySpansPerRequest = 9;
/// Released VMs the verify phase looks up (a reservoir sample).
constexpr std::size_t kReleasedSample = 2000;

struct LoadOptions {
  std::string endpoint;
  bool binary = true;
  std::uint64_t seed = 1;
  std::size_t fill_pms = 5000;
  std::size_t warmup_units = 0;
  std::size_t closed_units = 0;
  /// The closed phase runs as this many equal segments; run.py reports
  /// medians over them.
  std::size_t closed_segments = 1;
  std::size_t traced_units = 0;
  std::vector<double> ladder;
  double step_s = 1.0;
  /// With nominal_units set, the nominal step sends exactly that many units
  /// instead of step_s worth.
  std::size_t nominal_units = 0;
  Traffic traffic;
  std::string out;
  std::string verify_out;
  std::string trace_out;
  // replay
  std::size_t replay_requests = 0;
  std::size_t replay_fleet = 10000;
  bool replay_fsync = false;
};

void sync_point(const std::string& name) {
  std::cout << "@sync " << name << std::endl;
  std::string line;
  if (!std::getline(std::cin, line)) throw std::runtime_error("sync channel closed");
}

/// Runs `spec(c)` on every connection in parallel; returns wall seconds.
double parallel_phase(std::vector<std::unique_ptr<ConnState>>& cs,
                      const std::function<PhaseSpec(std::size_t)>& spec,
                      const std::function<void(ConnState&, const PhaseSpec&)>& body = run_phase) {
  const std::uint64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < cs.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        body(*cs[c], spec(c));
      } catch (const std::exception& e) {
        cs[c]->error = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& c : cs) {
    if (!c->error.empty()) throw std::runtime_error(c->error);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The memory probe: a fixed pointer chase through one random cycle over a
/// table about the size of a daemon's hot data. It runs no code of the
/// service, so its time moves only with the host: on a shared host the
/// memory latency swings with the neighbours' load, and the daemons' CPU
/// cost per request swings with it.
class MemoryProbe {
 public:
  static constexpr std::size_t kSlots = std::size_t{1} << 23;  // 32 MiB of u32
  static constexpr std::size_t kSteps = 150000;

  /// Sattolo's shuffle of the identity: one cycle through every slot.
  MemoryProbe() : next_(kSlots) {
    for (std::size_t i = 0; i < kSlots; ++i) next_[i] = static_cast<std::uint32_t>(i);
    Rng rng(0x9e3779b97f4a7c15ULL);
    for (std::size_t i = kSlots - 1; i > 0; --i) std::swap(next_[i], next_[rng.uniform_index(i)]);
  }

  /// On-CPU time of one chase of kSteps dependent loads, in ms. Thread CPU
  /// time, like the daemons' schedstat time it scales, leaves out the time
  /// a busy host keeps the vCPU descheduled.
  double run_ms() {
    const std::uint64_t t0 = thread_cpu_ns();
    std::uint32_t at = at_;
    for (std::size_t i = 0; i < kSteps; ++i) at = next_[at];
    at_ = at;  // a volatile store: the chase cannot be elided
    return static_cast<double>(thread_cpu_ns() - t0) / 1e6;
  }

 private:
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t at_ = 0;
};

PhaseRec take_rec(std::vector<std::unique_ptr<ConnState>>& cs) {
  PhaseRec all;
  for (auto& c : cs) {
    all.merge(c->rec);
    c->rec = PhaseRec{};
  }
  return all;
}

std::string latency_json(PhaseRec& rec, double seconds, Json j = {}) {
  j.n("seconds", seconds)
      .n("requests", static_cast<double>(rec.requests))
      .n("places_ok", static_cast<double>(rec.places_ok))
      .n("failed", static_cast<double>(rec.failed))
      .n("place_per_s", seconds > 0 ? rec.places_ok / seconds : 0.0)
      .n("place_samples", static_cast<double>(rec.place_ns.size()))
      .n("place_p50_us", exact_quantile(rec.place_ns, 0.50) / 1e3)
      .n("place_p99_us", exact_quantile(rec.place_ns, 0.99) / 1e3)
      .n("place_p999_us", exact_quantile(rec.place_ns, 0.999) / 1e3)
      .n("read_samples", static_cast<double>(rec.read_ns.size()))
      .n("read_p999_us", exact_quantile(rec.read_ns, 0.999) / 1e3)
      .n("late_p99_us", exact_quantile(rec.late_ns, 0.99) / 1e3);
  return j.str();
}

void write_trace(const std::string& path, const std::vector<const SpanBuffer*>& buffers,
                 std::size_t dropped) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::uint64_t base = ~std::uint64_t{0};
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) base = std::min(base, s.start);
  }
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" << dropped
     << "},\"traceEvents\":[";
  bool first = true;
  char line[320];
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    for (const Span& s : buffers[t]->spans()) {
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"req\":%llu,\"id\":%llu,\"parent\":%llu}}",
                    first ? "" : ",", kSpanNames[s.name].c_str(), t,
                    static_cast<double>(s.start - base) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3,
                    static_cast<unsigned long long>(s.req),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      os << line;
      first = false;
    }
  }
  os << "\n]}\n";
}

/// Sum (ns) and count of span self times, per span name.
std::map<std::uint32_t, std::pair<double, std::size_t>> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::uint32_t, std::pair<double, std::size_t>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [sum, count] = out[spans[i].name];
    sum += static_cast<double>(self[i]);
    ++count;
  }
  return out;
}

// ---------------------------------------------------------------------------
// replay

/// Feeds `units` of `stream` through `sink` with up to `window` requests in
/// flight; returns per-request submit-to-resolve times in ns. Any non-ok
/// reply aborts: the replayed stream is built so that none fails.
std::vector<std::uint64_t> submit_window(RequestSink& sink, OpStream& stream, std::size_t units,
                                         bool churn, std::size_t window) {
  struct Pending {
    std::future<Response> f;
    std::uint64_t t0;
    RequestOp op;
  };
  std::deque<Pending> q;
  std::vector<std::uint64_t> rtt;
  const auto settle_front = [&] {
    Pending p = std::move(q.front());
    q.pop_front();
    const Response r = p.f.get();
    rtt.push_back(now_ns() - p.t0);
    if (!r.ok) {
      throw std::runtime_error(std::string("in-process ") + to_string(p.op) +
                               " failed: " + r.error);
    }
  };
  for (std::size_t i = 0; i < units; ++i) {
    for_each_request(stream.next(churn), [&](const Request& r) {
      if (q.size() >= window) settle_front();
      const std::uint64_t t0 = now_ns();
      q.push_back(Pending{sink.submit(r), t0, r.op});
    });
  }
  while (!q.empty()) settle_front();
  return rtt;
}

/// Places through `sink` until it reports `target` used PMs.
void fill_sink(RequestSink& sink, OpStream& stream, std::size_t target) {
  while (true) {
    Request stats;
    stats.op = RequestOp::kStats;
    if (extra_number(sink.submit(stats).get(), "used_pms") >= static_cast<double>(target)) return;
    submit_window(sink, stream, 1000, false, 64);
  }
}

/// Median submit-to-resolve time of `units` churn units through `sink`
/// after filling it to the operating point, in us.
double submit_rtt_us(RequestSink& sink, const LoadOptions& o, const std::vector<double>& mix,
                     const Traffic& traffic, std::size_t units) {
  OpStream stream(o.seed, 0, mix, traffic);
  fill_sink(sink, stream, o.fill_pms);
  std::vector<std::uint64_t> rtt = submit_window(sink, stream, units, true, 64);
  return exact_quantile(rtt, 0.5) / 1e3;
}

/// The traced in-process replay: fills an ephemeral service to the socket
/// run's operating point, then sends `o.replay_requests` requests of the
/// same op stream through every layer in wire order, one span per call.
std::string run_replay(const LoadOptions& o, SpanBuffer& spans) {
  const Catalog catalog = ec2_sim_catalog();
  const std::vector<double> mix = default_vm_mix(catalog);
  const std::vector<std::size_t> fleet = mixed_pm_fleet(catalog, o.replay_fleet);

  std::uint64_t t = now_ns();
  const auto tables =
      std::make_shared<const ScoreTableSet>(build_score_tables(catalog, {}, std::nullopt));
  const double build_ms = static_cast<double>(now_ns() - t) / 1e6;

  ServiceConfig config;
  config.metrics = std::make_shared<obs::Registry>();
  PlacementService service(catalog, fleet, tables, config);
  // The twin ledger repeats each accepted place/release on a bare
  // Datacenter + engine, splitting execute() into its engine and ledger parts.
  Datacenter twin(catalog, fleet);
  obs::Registry twin_registry;
  PageRankVmOptions engine_options;
  engine_options.metrics = &twin_registry;
  PageRankVm engine(tables, engine_options);

  const std::filesystem::path wal_path = "replay.wal";
  std::filesystem::remove(wal_path);
  WalWriter wal(wal_path, o.replay_fsync);
  std::uint64_t op_seq = 0;

  const auto apply = [&](const Request& r, const Response& resp, bool traced, std::uint64_t req,
                         std::uint64_t parent) {
    if (!resp.ok || (r.op != RequestOp::kPlace && r.op != RequestOp::kRelease)) return;
    const auto vm = static_cast<VmId>(r.vm_id);
    std::uint64_t a = now_ns();
    if (r.op == RequestOp::kPlace) {
      engine.place(twin, Vm{vm, *r.vm_type_index});
      if (traced) spans.add(kTwinPlace, req, parent, a, now_ns());
    } else {
      twin.remove(vm);
      if (traced) spans.add(kTwinRemove, req, parent, a, now_ns());
    }
    WalRecord rec;
    rec.op_seq = ++op_seq;
    rec.vm = r.vm_id;
    rec.pm = resp.pm.value_or(0);
    if (r.op == RequestOp::kPlace) {
      rec.type = WalRecord::Type::kPlace;
      rec.vm_type = *r.vm_type_index;
      rec.group = r.group;
      rec.assignments = service.datacenter().pm(rec.pm).vms.back().assignments;
    } else {
      rec.type = WalRecord::Type::kRelease;
    }
    a = now_ns();
    wal.append(rec);
    if (traced) spans.add(kWalAppend, req, parent, a, now_ns());
    // One flush per 64 records: the service's default batch.
    if (op_seq % 64 == 0) {
      a = now_ns();
      if (!wal.flush().ok()) throw std::runtime_error("replay WAL flush failed");
      if (traced) spans.add(kWalFlush, req, parent, a, now_ns());
    }
  };

  OpStream stream(o.seed, 0, mix, o.traffic);
  while (service.datacenter().used_count() < o.fill_pms) {
    for_each_request(stream.next(false), [&](const Request& r) {
      const Response resp = service.execute(r);
      if (!resp.ok) throw std::runtime_error("replay fill failed: " + resp.error);
      apply(r, resp, false, 0, 0);
    });
  }

  std::string wire;
  std::string reply;
  BinaryStringTable strings;
  BinaryFrameBuffer request_frames;
  LineBuffer request_lines;
  BinaryFrameBuffer response_frames(kMaxBinaryResponseBytes);
  std::vector<Request> requests;
  std::vector<Response> responses;
  requests.reserve(o.replay_requests + kMaxReads + kMaxUtils + 2);
  responses.reserve(requests.capacity());
  const std::uint32_t parse_span = o.binary ? kBinaryParse : kJsonParse;
  const std::uint32_t encode_span = o.binary ? kBinaryEncode : kJsonEncode;
  while (requests.size() < o.replay_requests) {
    for_each_request(stream.next(true), [&](const Request& r) {
      const std::uint64_t req = requests.size() + 1;
      const std::uint64_t parent = spans.reserve_id();
      const std::uint64_t op_start = now_ns();

      std::uint64_t a = now_ns();
      wire.clear();
      if (o.binary) {
        encode_binary_request_into(r, wire);
      } else {
        encode_request_into(r, wire);
      }
      spans.add(kClientEncode, req, parent, a, now_ns());

      a = now_ns();
      std::variant<Request, ProtocolError> parsed;
      if (o.binary) {
        request_frames.feed(wire);
        parsed = parse_binary_request(request_frames.next()->payload, strings);
      } else {
        request_lines.feed(wire);
        parsed = parse_request(request_lines.next()->line);
      }
      spans.add(parse_span, req, parent, a, now_ns());
      if (!std::holds_alternative<Request>(parsed)) {
        throw std::runtime_error("replay decode failed: " + std::get<ProtocolError>(parsed).code);
      }

      a = now_ns();
      const Response resp = service.execute(std::get<Request>(parsed));
      spans.add(kExecute, req, parent, a, now_ns());
      if (!resp.ok) {
        throw std::runtime_error(std::string("replay ") + to_string(r.op) +
                                 " failed: " + resp.error);
      }
      apply(r, resp, true, req, parent);

      a = now_ns();
      reply.clear();
      if (o.binary) {
        encode_binary_response_into(resp, reply);
      } else {
        encode_response_into(resp, reply);
      }
      spans.add(encode_span, req, parent, a, now_ns());

      a = now_ns();
      std::string error;
      bool decoded = false;
      if (o.binary) {
        response_frames.feed(reply);
        decoded = parse_binary_response(response_frames.next()->payload, &error).has_value();
      } else {
        decoded = parse_response(std::string_view(reply).substr(0, reply.size() - 1), &error)
                      .has_value();
      }
      spans.add(kClientDecode, req, parent, a, now_ns());
      if (!decoded) throw std::runtime_error("replay response decode failed: " + error);
      spans.add_with_id(parent, kReplayOp, req, 0, op_start, now_ns());
      requests.push_back(r);
      responses.push_back(resp);
    });
  }
  if (!wal.flush().ok()) throw std::runtime_error("replay WAL flush failed");

  // The codec this workload does not speak, on the same requests, outside
  // the per-op chain so the chain's attribution stays the workload's own.
  const double n_req = static_cast<double>(requests.size());
  t = now_ns();
  for (const Request& r : requests) {
    wire.clear();
    if (o.binary) {
      encode_request_into(r, wire);
      wire.pop_back();
      (void)parse_request(wire);
    } else {
      encode_binary_request_into(r, wire);
      (void)parse_binary_request(std::string_view(wire).substr(kBinaryHeaderBytes), strings);
    }
  }
  const double other_parse_ns = static_cast<double>(now_ns() - t) / n_req;
  t = now_ns();
  for (const Response& r : responses) {
    reply.clear();
    if (o.binary) {
      encode_response_into(r, reply);
    } else {
      encode_binary_response_into(r, reply);
    }
  }
  const double other_encode_ns = static_cast<double>(now_ns() - t) / n_req;

  t = now_ns();
  const WalReadResult replayed = read_wal_ex(wal_path);
  const double read_rate =
      static_cast<double>(replayed.records.size()) / (static_cast<double>(now_ns() - t) / 1e9);
  if (replayed.records.size() != op_seq) throw std::runtime_error("replay WAL lost records");

  const auto self = self_time_by_name(spans.spans());
  const auto total_self = [&self](std::uint32_t name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.first;
  };
  const auto mean_self = [&self](std::uint32_t name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.second == 0 ? 0.0
                                                      : it->second.first / it->second.second;
  };
  const double server_self_ns = (total_self(parse_span) + total_self(kExecute) +
                                 total_self(kWalAppend) + total_self(kWalFlush) +
                                 total_self(encode_span)) / n_req;

  // No-socket references: a started service, and a router over two
  // embedded cells, each fed through submit() with 64 requests in flight.
  const std::size_t submit_units = std::max<std::size_t>(1, o.replay_requests / 4);
  double service_rtt = 0.0;
  {
    ServiceConfig live_config;
    live_config.metrics = std::make_shared<obs::Registry>();
    PlacementService live(catalog, fleet, tables, live_config);
    live.start();
    service_rtt = submit_rtt_us(live, o, mix, o.traffic, submit_units);
    live.drain();
  }
  double router_rtt = 0.0;
  {
    EmbeddedCells cells(catalog, fleet, tables, EmbeddedCellsConfig{});
    cells.start();
    Router router(cells.sinks());
    // The router answers a util for a VM whose place is still in flight
    // with unknown_vm, so its stream leaves the util samples out.
    Traffic traffic = o.traffic;
    traffic.utils = 0;
    router_rtt = submit_rtt_us(router, o, mix, traffic, submit_units);
    cells.drain();
  }

  Json j;
  j.n("requests", n_req)
      .n("core.score_table_build_ms", build_ms)
      .n("placement.place_ns", mean_self(kTwinPlace))
      .n("cluster.remove_ns", mean_self(kTwinRemove))
      .n("service.execute_ns", mean_self(kExecute))
      .n("service.submit_rtt_us", service_rtt)
      .n("router.submit_rtt_us", router_rtt)
      .n("protocol.parse_request_ns", o.binary ? other_parse_ns : mean_self(kJsonParse))
      .n("protocol.encode_response_ns", o.binary ? other_encode_ns : mean_self(kJsonEncode))
      .n("binary_protocol.parse_request_ns", o.binary ? mean_self(kBinaryParse) : other_parse_ns)
      .n("binary_protocol.encode_response_ns",
         o.binary ? mean_self(kBinaryEncode) : other_encode_ns)
      .n("wal.append_ns", mean_self(kWalAppend))
      .n("wal.flush_batch_us", mean_self(kWalFlush) / 1e3)
      .n("wal.replay_records_per_s", read_rate)
      .n("replay.harness_ns", mean_self(kReplayOp))
      .n("server_self_ns_per_op", server_self_ns);
  return j.str();
}

int run_load(const LoadOptions& o) {
  // Wake-ups from ppoll land within a few microseconds of the schedule.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const Catalog catalog = ec2_sim_catalog();
  const std::vector<double> mix = default_vm_mix(catalog);
  std::map<std::string, double> phase_s;
  std::ostringstream phases;

  std::vector<std::unique_ptr<ConnState>> cs;
  for (std::size_t c = 0; c < kConns; ++c) {
    cs.push_back(std::make_unique<ConnState>(o.endpoint, o.binary,
                                             OpStream(o.seed, c, mix, o.traffic), o.seed + c));
    cs.back()->released_cap = kReleasedSample / kConns;
  }
  Conn control(o.endpoint, false);
  const auto stats = [&control] {
    Request r;
    r.op = RequestOp::kStats;
    Response s = control.call(r);
    if (!s.ok) throw std::runtime_error("stats failed: " + s.error);
    return s;
  };

  // fill
  std::uint64_t t = now_ns();
  std::size_t used = 0;
  while ((used = static_cast<std::size_t>(extra_number(stats(), "used_pms"))) < o.fill_pms) {
    parallel_phase(cs, [&](std::size_t) {
      PhaseSpec s;
      s.churn = false;
      s.units = kFillChunk;
      s.window = kPipeline;
      return s;
    });
  }
  take_rec(cs);
  phase_s["fill"] = static_cast<double>(now_ns() - t) / 1e9;
  const std::size_t fill_used = used;

  // warmup
  t = now_ns();
  parallel_phase(cs, [&](std::size_t) {
    PhaseSpec s;
    s.units = o.warmup_units / kConns;
    s.window = kPipeline;
    return s;
  });
  take_rec(cs);
  phase_s["warmup"] = static_cast<double>(now_ns() - t) / 1e9;

  // closed: segments back to back; the caller samples /proc at every edge.
  // The packing (live VMs, used PMs) is read after every segment.
  const auto closed_spec = [](std::size_t units) {
    return [units](std::size_t) {
      PhaseSpec s;
      s.units = units / kConns;
      s.window = kPipeline;
      s.record = true;
      return s;
    };
  };
  // The memory probe runs after every segment, while the deployment is idle;
  // run.py scales each segment's rate by it.
  MemoryProbe probe;
  probe.run_ms();
  sync_point("closed-begin");
  PhaseRec closed;
  std::ostringstream segments;
  double closed_s = 0.0;
  for (std::size_t k = 0; k < o.closed_segments; ++k) {
    const double secs = parallel_phase(cs, closed_spec(o.closed_units / o.closed_segments));
    PhaseRec seg = take_rec(cs);
    const double probe_ms = probe.run_ms();
    sync_point(k + 1 < o.closed_segments ? "closed-segment" : "closed-end");
    const Response packing = stats();
    Json j;
    j.n("seconds", secs)
        .n("probe_ms", probe_ms)
        .n("places_ok", static_cast<double>(seg.places_ok))
        .n("requests", static_cast<double>(seg.requests))
        .n("place_per_s", seg.places_ok / secs)
        .n("vm_count", extra_number(packing, "vm_count"))
        .n("used_pms", extra_number(packing, "used_pms"));
    segments << (k > 0 ? "," : "") << j.str();
    closed.merge(seg);
    closed_s += secs;
  }
  phase_s["closed"] = closed_s;
  Json closed_extra;
  closed_extra.raw("segments", "[" + segments.str() + "]");
  const std::string closed_json = latency_json(closed, closed_s, std::move(closed_extra));

  // traced closed loop: every span of it is kept.
  std::vector<std::unique_ptr<SpanBuffer>> client_spans;
  std::string traced_json = "null";
  if (o.traced_units > 0) {
    const std::size_t per_unit = 2 + static_cast<std::size_t>(std::min(o.traffic.reads, kMaxReads) +
                                                              std::min(o.traffic.utils, kMaxUtils));
    for (std::size_t c = 0; c < kConns; ++c) {
      client_spans.push_back(std::make_unique<SpanBuffer>(
          o.traced_units / kConns * per_unit * kClientSpansPerRequest));
      client_spans.back()->set_id_base((static_cast<std::uint64_t>(c) + 1) << 40);
      cs[c]->spans = client_spans.back().get();
    }
    const double secs = parallel_phase(cs, closed_spec(o.traced_units));
    for (auto& c : cs) c->spans = nullptr;
    PhaseRec traced = take_rec(cs);
    phase_s["traced"] = secs;
    traced_json = latency_json(traced, secs);
  }

  // ladder: one open-loop step per rate, then kBisectProbes probes between
  // the last passing and the first failing rate to narrow the SLO knee.
  t = now_ns();
  std::ostringstream ladder;
  ladder << "[";
  std::size_t steps_run = 0;
  // A step sends units_per_conn units per connection at `rate` in total.
  const auto run_step = [&](double rate, std::size_t units_per_conn, bool nominal, bool probe) {
    const double per_conn = rate / static_cast<double>(kConns);
    const std::uint64_t t0 = now_ns() + 2'000'000;
    const double secs = parallel_phase(cs, [&](std::size_t c) {
      PhaseSpec s;
      s.open = true;
      s.record = true;
      s.units = units_per_conn;
      s.window = kInflightCap;
      s.schedule.interval_ns = 1e9 / per_conn;
      // Connections interleave their slots evenly.
      s.schedule.t0_ns = t0 + static_cast<std::uint64_t>(s.schedule.interval_ns *
                                                         static_cast<double>(c) /
                                                         static_cast<double>(kConns));
      return s;
    });
    PhaseRec rec = take_rec(cs);
    const double active_s = rec.last_reply_ns > t0 ? (rec.last_reply_ns - t0) / 1e9 : secs;
    const double p99 = exact_quantile(rec.place_ns, 0.99) / 1e3;
    const bool pass = rec.failed == 0 && p99 <= kSloP99Us;
    Json j;
    j.n("rate", rate)
        .raw("pass", pass ? "true" : "false")
        .raw("nominal", nominal ? "true" : "false")
        .raw("probe", probe ? "true" : "false");
    ladder << (steps_run++ > 0 ? "," : "") << latency_json(rec, active_s, std::move(j));
    return pass;
  };
  const auto step_units = [&](double rate) {
    return static_cast<std::size_t>(rate / static_cast<double>(kConns) * o.step_s);
  };
  std::optional<std::size_t> first_fail;
  for (std::size_t step = 0; step < o.ladder.size(); ++step) {
    const bool nominal = step == kNominalStep;
    const std::size_t units = nominal && o.nominal_units > 0 ? o.nominal_units / kConns
                                                             : step_units(o.ladder[step]);
    if (!run_step(o.ladder[step], units, nominal, false) && !first_fail) {
      first_fail = step;
    }
    if (first_fail && step >= kNominalStep) break;
  }
  if (first_fail && *first_fail > 0) {
    double lo = o.ladder[*first_fail - 1];
    double hi = o.ladder[*first_fail];
    for (std::size_t i = 0; i < kBisectProbes; ++i) {
      const double mid = (lo + hi) / 2.0;
      (run_step(mid, step_units(mid), false, true) ? lo : hi) = mid;
    }
  }
  ladder << "]";
  phase_s["ladder"] = static_cast<double>(now_ns() - t) / 1e9;

  // verify
  t = now_ns();
  parallel_phase(
      cs, [](std::size_t) { PhaseSpec s; s.window = kPipeline; return s; },
      [](ConnState& c, const PhaseSpec& s) { run_verify(c, s.window); });
  if (!o.verify_out.empty()) {
    std::ofstream vf(o.verify_out, std::ios::trunc);
    for (const auto& c : cs) {
      for (const VerifyRow& row : c->verify) {
        vf << (row.live ? "L " : "R ") << row.vm << " " << row.acked.pm << " " << row.acked.cell
           << " " << (row.ok ? 1 : 0) << " " << row.got.pm << " " << row.got.cell << " "
           << (row.error.empty() ? "-" : row.error) << " " << (row.group.empty() ? "-" : row.group)
           << "\n";
      }
    }
  }
  phase_s["verify"] = static_cast<double>(now_ns() - t) / 1e9;

  // replay
  std::string replay_json = "null";
  // The replay stops after the unit that reaches replay_requests, so it
  // may run one unit's requests over.
  SpanBuffer replay_spans((o.replay_requests + kMaxReads + kMaxUtils + 2) *
                          kReplaySpansPerRequest);
  replay_spans.set_id_base(std::uint64_t{1} << 60);
  if (o.replay_requests > 0) {
    t = now_ns();
    replay_json = run_replay(o, replay_spans);
    phase_s["replay"] = static_cast<double>(now_ns() - t) / 1e9;
  }
  std::size_t dropped_spans = replay_spans.dropped();
  for (const auto& b : client_spans) dropped_spans += b->dropped();
  if (!o.trace_out.empty() && (o.traced_units > 0 || o.replay_requests > 0)) {
    std::vector<const SpanBuffer*> buffers;
    for (const auto& b : client_spans) buffers.push_back(b.get());
    buffers.push_back(&replay_spans);
    write_trace(o.trace_out, buffers, dropped_spans);
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t check_failures = 0;
  std::map<std::string, std::size_t> errors;
  for (const auto& c : cs) {
    attempted += c->attempted;
    failed += c->failed;
    check_failures += c->check_failures;
    for (const auto& [k, v] : c->errors) errors[k] += v;
  }
  Json err;
  for (const auto& [k, v] : errors) err.n(k, static_cast<double>(v));
  Json ph;
  for (const auto& [k, v] : phase_s) ph.n(k, v);
  Json out;
  out.n("fill_used_pms", static_cast<double>(fill_used))
      .n("slo_p99_us", kSloP99Us)
      .raw("closed", closed_json)
      .raw("traced", traced_json)
      .raw("ladder", ladder.str())
      .raw("replay", replay_json)
      .n("attempted", static_cast<double>(attempted))
      .n("failed", static_cast<double>(failed))
      .n("check_failures", static_cast<double>(check_failures))
      .n("dropped_spans", static_cast<double>(dropped_spans))
      .raw("errors", err.str())
      .raw("phase_s", ph.str());
  std::ofstream os(o.out, std::ios::trunc);
  os << out.str() << "\n";
  if (!os) throw std::runtime_error("cannot write " + o.out);
  return 0;
}

// ---------------------------------------------------------------------------
// self-test

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cerr << "FAIL: " << what << "\n";
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Quantiles: 1..100 shuffled; linear interpolation between order stats.
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);
  expect(near(exact_quantile(v, 0.5), 50.5), "median of 1..100 is 50.5");
  expect(near(exact_quantile(v, 0.99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(exact_quantile(v, 0.0), 1.0), "p0 is the minimum");
  expect(near(exact_quantile(v, 1.0), 100.0), "p100 is the maximum");
  std::vector<std::uint64_t> one{7};
  expect(near(exact_quantile(one, 0.99), 7.0), "single sample");
  std::vector<std::uint64_t> none;
  expect(exact_quantile(none, 0.5) == 0.0, "empty is 0");

  // Self time: parent [0,100) with nested and overlapping children.
  //   a [10,30), b [20,50) overlaps a, c [60,70), d [65,200) runs past the
  //   parent and is clipped; e [12,18) is a grandchild under a.
  std::vector<Span> spans = {
      {0, 1, 1, 0, 0, 100}, {0, 1, 2, 1, 10, 30}, {0, 1, 3, 1, 20, 50},
      {0, 1, 4, 1, 60, 70}, {0, 1, 5, 1, 65, 200}, {0, 1, 6, 2, 12, 18},
  };
  const auto self = self_times(spans);
  expect(self[0] == 100 - (40 + 40), "parent self = 100 - |[10,50) u [60,100)|");
  expect(self[1] == 20 - 6, "child self excludes its grandchild");
  expect(self[2] == 30 && self[3] == 10 && self[4] == 135 && self[5] == 6, "leaf self = dur");

  // Open loop: latency counts from the scheduled time, so a generator
  // stall delays (and charges) every unit due during it.
  Schedule sch{1'000'000, 100'000.0};  // a unit every 100 us from t=1 ms
  const std::uint64_t stall_until = sch.due(5) + 1'000'000;  // 1 ms stall at unit 5
  const std::uint64_t service_ns = 20'000;
  std::vector<std::uint64_t> lat;
  std::vector<std::uint64_t> late;
  for (std::size_t k = 0; k < 20; ++k) {
    const std::uint64_t due = sch.due(k);
    const std::uint64_t sent = (due >= sch.due(5) && due < stall_until) ? stall_until : due;
    late.push_back(sent - due);
    lat.push_back(sent + service_ns - due);
  }
  expect(lat[4] == service_ns, "on-time unit costs only service time");
  expect(lat[5] == 1'000'000 + service_ns, "stalled unit is charged the whole stall");
  expect(lat[14] == 100'000 + service_ns, "last unit due in the stall is charged its wait");
  expect(lat[15] == service_ns, "units due after the stall are on time");
  expect(near(exact_quantile(late, 1.0), 1e6), "generator lateness reports the stall");

  // Op stream: deterministic per (seed, connection), releases only live VMs.
  const Catalog catalog = ec2_sim_catalog();
  Traffic tr{0.25, 4, 2};
  OpStream a(7, 1, default_vm_mix(catalog), tr);
  OpStream b(7, 1, default_vm_mix(catalog), tr);
  bool same = true;
  bool release_live = true;
  std::unordered_map<std::uint64_t, bool> live;
  for (int i = 0; i < 500; ++i) {
    const Unit x = a.next(i >= 50);
    const Unit y = b.next(i >= 50);
    same = same && x.release == y.release && x.place == y.place && x.type == y.type &&
           x.group == y.group && x.lookups == y.lookups;
    if (x.release != 0) {
      release_live = release_live && live.count(x.release) > 0;
      live.erase(x.release);
    }
    live[x.place] = true;
  }
  expect(same, "same seed gives the same op stream");
  expect(release_live, "releases target live VMs only");

  std::cout << (failures == 0 ? "self-test ok\n" : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

}  // namespace
}  // namespace prvm::bench

int main(int argc, char** argv) {
  using namespace prvm::bench;
  if (argc >= 2 && std::string(argv[1]) == "--self-test") return self_test();
  if (argc < 2 || std::string(argv[1]) != "load") {
    std::cerr << "usage: prvm_bench --self-test | prvm_bench load --endpoint PATH [options]\n";
    return 2;
  }
  LoadOptions o;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      const auto size = [&] { return static_cast<std::size_t>(std::stoull(value())); };
      if (arg == "--endpoint") o.endpoint = value();
      else if (arg == "--codec") o.binary = value() == "binary";
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--fill-pms") o.fill_pms = size();
      else if (arg == "--warmup-units") o.warmup_units = size();
      else if (arg == "--closed-units") o.closed_units = size();
      else if (arg == "--closed-segments") o.closed_segments = size();
      else if (arg == "--traced-units") o.traced_units = size();
      else if (arg == "--ladder") o.ladder = parse_list(value());
      else if (arg == "--step-s") o.step_s = std::stod(value());
      else if (arg == "--nominal-units") o.nominal_units = size();
      else if (arg == "--group-share") o.traffic.group_share = std::stod(value());
      else if (arg == "--reads") o.traffic.reads = std::stoi(value());
      else if (arg == "--utils") o.traffic.utils = std::stoi(value());
      else if (arg == "--out") o.out = value();
      else if (arg == "--verify-out") o.verify_out = value();
      else if (arg == "--trace-out") o.trace_out = value();
      else if (arg == "--replay-requests") o.replay_requests = size();
      else if (arg == "--replay-fleet") o.replay_fleet = size();
      else if (arg == "--replay-fsync") o.replay_fsync = value() == "1";
      else throw std::runtime_error("unknown option " + arg);
    }
    if (o.endpoint.empty() || o.out.empty()) throw std::runtime_error("--endpoint and --out are required");
    if (o.closed_segments == 0) throw std::runtime_error("bad --closed-segments");
    return run_load(o);
  } catch (const std::exception& e) {
    std::cerr << "prvm_bench: " << e.what() << "\n";
    return 1;
  }
}
