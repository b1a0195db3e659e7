// prvm_chaos — randomized storage-fault and crash harness for prvm_serve.
//
// Drives a live daemon through seeded rounds of place/release traffic while
// injecting storage faults (--fault-schedule), killing it mid-flight
// (SIGKILL) or draining it (SIGTERM), restarting it against the same data
// dir, and differentially verifying at the end — against a fault-free
// boot — that every acknowledged mutation survived. Fully reproducible:
// one --seed fixes the fault schedules, the workload and the kill timing.
//
//   prvm_chaos --serve build/tools/prvm_serve --seed 42 --rounds 3 --ops 250
//
// Correctness model (DESIGN.md §4d): an acknowledged mutation must be
// durable across kill -9. A request answered queue_full/degraded_storage is
// retried until the outcome is definitive — a *retried* place answered
// duplicate_vm was applied by an earlier attempt, a retried release
// answered unknown_vm likewise. Requests whose connection died mid-flight
// or that exhausted retries while degraded are "limbo": the daemon may or
// may not have applied them, so verification accepts either state for them.
//
// --replicated switches to the failover model (DESIGN.md §8): each round
// runs a leader with --replica --ack-replicas 1 streaming to a live
// follower, churns grouped and ungrouped traffic, SIGKILLs the leader
// mid-flight, promotes the follower over a raw socket, and verifies that
// every *acked* op is present and IDENTICAL (same PM) on the promoted
// follower, that anti-collocation groups stay pairwise-distinct, and that
// leader/follower state digests matched at the pre-kill quiesce point.
// Rounds swap roles: the promoted follower's data dir becomes the next
// leader's, the old leader's dir is wiped so the fresh follower exercises
// snapshot catch-up. In this mode a retried mutation answered
// duplicate_vm/unknown_vm is LIMBO, not applied: the earlier attempt
// reached the leader but its replication is unknown, and the leader is
// about to die.
//
// --rebalance switches to the online-rebalancer model (DESIGN.md §9): each
// round boots the daemon with the background migration planner enabled at
// an aggressive interval, packs a small fleet with grouped and ungrouped
// VMs, feeds a skewed utilization picture (one PM driven hot, the rest
// cool) so the planner migrates continuously, and SIGKILLs the daemon
// mid-migration on alternating rounds. Verified differentially: every
// acked placement survives (planner moves relocate VMs, never lose them),
// no anti-collocation group is ever collocated — live or recovered — and
// two consecutive fault-free boots of the final state report identical
// state digests, so every migration that reached the ledger was
// WAL-durable rather than an in-memory side effect.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "service/protocol.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string serve_binary;
  std::uint64_t seed = 42;
  std::size_t rounds = 3;
  std::size_t ops_per_round = 250;
  /// 0 = auto: 400 for the storage/replicated modes, 24 for --rebalance
  /// (a hotspot needs a fleet small enough for placements to pack).
  std::size_t fleet = 0;
  std::string data_dir;  ///< defaults to a fresh directory under /tmp
  /// Extra flags appended verbatim to every prvm_serve invocation
  /// (--serve-arg, repeatable) — e.g. --batch 64 to chaos-test larger flush
  /// groups under the same fault schedules. Every daemon runs --fsync, so
  /// its WAL flushes ride the flusher thread.
  std::vector<std::string> serve_args;
  /// Leader/follower failover mode: ack_after_replicated churn with a
  /// mid-round leader SIGKILL and promotion of the follower.
  bool replicated = false;
  /// Online-rebalancer mode: planner-driven migrations under a skewed
  /// utilization feed with mid-migration SIGKILLs.
  bool rebalance = false;
};

// ---------------------------------------------------------------------------
// Synchronous JSON-lines client. Connection loss throws; the caller decides
// whether that was an expected kill or a daemon crash.

class Client {
 public:
  ~Client() { disconnect(); }

  bool connect_to(const std::string& path) {
    disconnect();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      disconnect();
      return false;
    }
    return true;
  }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    frames_ = LineBuffer();
  }

  bool connected() const { return fd_ >= 0; }

  JsonValue request(const std::string& line) {
    std::size_t written = 0;
    while (written < line.size()) {
      const ::ssize_t n = ::send(fd_, line.data() + written, line.size() - written, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("connection lost while sending");
      written += static_cast<std::size_t>(n);
    }
    while (true) {
      if (const auto frame = frames_.next()) {
        if (frame->oversized) continue;
        std::string error;
        auto doc = parse_json(frame->line, &error);
        if (!doc.has_value()) throw std::runtime_error("bad response: " + error);
        return std::move(*doc);
      }
      char buf[16 * 1024];
      const ::ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw std::runtime_error("connection closed by daemon");
      frames_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  LineBuffer frames_;
};

double field_number(const JsonValue& doc, const char* key) {
  const JsonValue* value = doc.find(key);
  return value != nullptr && value->kind == JsonValue::Kind::kNumber ? value->number : 0.0;
}

std::string field_string(const JsonValue& doc, const char* key) {
  const JsonValue* value = doc.find(key);
  return value != nullptr && value->kind == JsonValue::Kind::kString ? value->string : "";
}

bool field_ok(const JsonValue& doc) {
  const JsonValue* ok = doc.find("ok");
  return ok != nullptr && ok->kind == JsonValue::Kind::kBool && ok->boolean;
}

// ---------------------------------------------------------------------------
// Daemon process control.

pid_t spawn(const std::vector<std::string>& args, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Non-blocking-poll wait with a deadline; nullopt = still running.
std::optional<int> wait_exit(pid_t pid, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return std::nullopt;  // already reaped / no such child
    if (Clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool still_running(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == 0;
}

/// Waits until the daemon accepts connections (score-table build on a cold
/// cache can take a while on first boot) or the process exits early.
bool wait_ready(Client& client, const std::string& socket_path, pid_t pid, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (client.connect_to(socket_path)) return true;
    if (!still_running(pid)) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fault-schedule themes. All error rules are count-limited so every round's
// fault eventually clears and the daemon can recover while traffic retries.

/// A round's fault schedule plus what it predicts: once the daemon has made
/// `fire_threshold` calls to `op_name`, the injector MUST have fired at
/// least once. Observed call counts come from the prvm_io_<op>_ns
/// histograms, which sit outside the injector, so they never overcount its
/// per-op call sequence.
struct FaultPlan {
  std::string spec;              ///< --fault-schedule value; empty = fault-free
  std::string op_name;           ///< instrumented op the trigger watches
  std::uint64_t fire_threshold;  ///< calls after which injected >= 1 must hold
};

FaultPlan schedule_for_round(std::size_t round, Rng& rng) {
  const std::uint64_t seed = rng.uniform_int(1, 1 << 30);
  const std::string tail = ";seed=" + std::to_string(seed);
  switch (round % 6) {
    case 0:
      return {"", "", 0};  // baseline: crash/drain behaviour without storage faults
    case 1: {  // disk fills up mid-run, then frees
      const std::uint64_t after = rng.uniform_int(5, 12);
      return {"write:after=" + std::to_string(after) +
                  ":errno=ENOSPC:count=" + std::to_string(rng.uniform_int(4, 10)) + tail,
              "write", after + 1};
    }
    case 2: {  // flaky fsync
      const std::uint64_t every = rng.uniform_int(2, 5);
      return {"fsync:every=" + std::to_string(every) +
                  ":errno=EIO:count=" + std::to_string(rng.uniform_int(3, 8)) + tail,
              "fsync", every};
    }
    case 3:  // torn/short writes plus an EINTR storm
      return {"write:every=3:short=0.5:count=25;write:every=2:errno=EINTR:count=40" + tail,
              "write", 2};
    case 4:  // snapshot rename fails a few times
      return {"rename:nth=1:errno=EACCES:count=" + std::to_string(rng.uniform_int(1, 3)) + tail,
              "rename", 1};
    default: {  // slow storage: fsync latency, no errors
      const std::uint64_t every = 2;
      return {"fsync:every=" + std::to_string(every) +
                  ":delay_ms=" + std::to_string(rng.uniform_int(5, 20)) + ":count=30" + tail,
              "fsync", every};
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics cross-check: after each surviving round, scrape the in-band
// `metrics` op and assert the observability counters are consistent with
// the fault schedule the round actually applied.

double metric_number(const JsonValue& metrics, const char* group, const std::string& name,
                     const char* field = nullptr) {
  const JsonValue* g = metrics.find(group);
  const JsonValue* m = g != nullptr ? g->find(name) : nullptr;
  if (m == nullptr) return 0.0;
  if (field != nullptr) m = m->find(field);
  return m != nullptr && m->kind == JsonValue::Kind::kNumber ? m->number : 0.0;
}

std::size_t check_round_metrics(Client& client, const FaultPlan& plan, std::size_t round) {
  std::size_t mismatches = 0;
  const JsonValue doc = client.request("{\"op\":\"metrics\"}\n");
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::kObject) {
    std::cerr << "prvm_chaos: METRICS FAIL: metrics op returned no metrics object (round "
              << round + 1 << ")\n";
    return 1;
  }
  const double injected = metric_number(*metrics, "counters", "prvm_io_injected_faults_total");
  const double transitions =
      metric_number(*metrics, "counters", "prvm_degraded_transitions_total");

  // The health response predates the registry; its degraded_entries counter
  // was migrated onto prvm_degraded_transitions_total and must stay equal.
  const JsonValue health = client.request("{\"op\":\"health\"}\n");
  const double entries = field_number(health, "degraded_entries");
  if (entries != transitions) {
    std::cerr << "prvm_chaos: METRICS FAIL: health degraded_entries=" << entries
              << " != prvm_degraded_transitions_total=" << transitions << " (round "
              << round + 1 << ")\n";
    ++mismatches;
  }

  if (plan.spec.empty()) {
    if (injected != 0) {
      std::cerr << "prvm_chaos: METRICS FAIL: " << injected
                << " injected faults reported in a fault-free round " << round + 1 << "\n";
      ++mismatches;
    }
  } else {
    const double calls =
        metric_number(*metrics, "histograms", "prvm_io_" + plan.op_name + "_ns", "count");
    if (calls >= static_cast<double>(plan.fire_threshold) && injected < 1) {
      std::cerr << "prvm_chaos: METRICS FAIL: " << calls << " " << plan.op_name
                << " calls observed (trigger at " << plan.fire_threshold
                << ") but prvm_io_injected_faults_total=0 (round " << round + 1 << ")\n";
      ++mismatches;
    }
    const double by_op =
        metric_number(*metrics, "counters", "prvm_io_injected_" + plan.op_name + "_total");
    if (by_op > injected) {
      std::cerr << "prvm_chaos: METRICS FAIL: per-op injected count " << by_op
                << " exceeds total " << injected << " (round " << round + 1 << ")\n";
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Harness state: what the daemon acknowledged, and what is in limbo.

struct Ledger {
  std::unordered_set<std::uint64_t> present;   ///< acked placed, not released
  std::unordered_set<std::uint64_t> released;  ///< acked released
  std::unordered_set<std::uint64_t> limbo;     ///< outcome unknown (either state ok)
  std::size_t retries = 0;
  std::size_t rejected = 0;

  void mark_limbo(std::uint64_t vm) {
    present.erase(vm);
    released.erase(vm);
    limbo.insert(vm);
  }
};

enum class OpResult { kApplied, kRejected, kLimbo };

/// One mutating request, retried until definitive. Throws on connection
/// loss (the caller marks the vm limbo). In `replicated` mode an op applied
/// by an earlier, un-acked attempt is limbo, not applied: it reached the
/// leader but its replication state is unknown and the leader will die.
/// `pm_out`, when non-null, receives the acked placement's PM index.
OpResult run_op(Client& client, const std::string& line, bool is_place, Rng& rng,
                Ledger& ledger, bool replicated = false, double* pm_out = nullptr) {
  for (std::uint32_t attempt = 0; attempt < 15; ++attempt) {
    const JsonValue doc = client.request(line);
    if (field_ok(doc)) {
      if (pm_out != nullptr) *pm_out = field_number(doc, "pm");
      return OpResult::kApplied;
    }
    const std::string reason = field_string(doc, "error");
    if (attempt > 0 && ((is_place && reason == "duplicate_vm") ||
                        (!is_place && reason == "unknown_vm"))) {
      // An earlier attempt was actually applied.
      return replicated ? OpResult::kLimbo : OpResult::kApplied;
    }
    if (replicated && reason == "not_replicated") {
      // Applied + durable on the leader, quorum not met: unknowable on the
      // follower that is about to be promoted.
      return OpResult::kLimbo;
    }
    if (reason == "queue_full" || reason == "degraded_storage") {
      ++ledger.retries;
      double delay = std::max(field_number(doc, "retry_after_ms"), 1.0) *
                     static_cast<double>(1u << std::min(attempt, 6u));
      delay = std::min(delay, 500.0) * rng.uniform(0.75, 1.25);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
      continue;
    }
    return OpResult::kRejected;
  }
  return OpResult::kLimbo;  // still degraded after all retries: unknowable
}

std::string place_line(std::uint64_t vm, std::size_t type, const std::string& group = "") {
  std::string line = "{\"op\":\"place\",\"vm\":" + std::to_string(vm) +
                     ",\"type\":" + std::to_string(type);
  if (!group.empty()) line += ",\"group\":\"" + group + "\"";
  return line + "}\n";
}

std::string release_line(std::uint64_t vm) {
  return "{\"op\":\"release\",\"vm\":" + std::to_string(vm) + "}\n";
}

std::string lookup_line(std::uint64_t vm) {
  return "{\"op\":\"lookup\",\"vm\":" + std::to_string(vm) + "}\n";
}

/// Differential check against a (fault-free) daemon: every acked placement
/// resolves, every acked release does not, limbo VMs may be either.
std::size_t verify_ledger(Client& client, const Ledger& ledger) {
  std::size_t mismatches = 0;
  for (const std::uint64_t vm : ledger.present) {
    const JsonValue doc = client.request(lookup_line(vm));
    if (!field_ok(doc)) {
      std::cerr << "prvm_chaos: VERIFY FAIL: acked placement of vm " << vm
                << " missing after recovery\n";
      ++mismatches;
    }
  }
  for (const std::uint64_t vm : ledger.released) {
    const JsonValue doc = client.request(lookup_line(vm));
    if (field_ok(doc)) {
      std::cerr << "prvm_chaos: VERIFY FAIL: acked release of vm " << vm
                << " resurfaced after recovery\n";
      ++mismatches;
    }
  }
  return mismatches;
}

void dump_log_tail(const std::string& log_path) {
  std::cerr << "--- daemon log tail (" << log_path << ") ---\n";
  // Best effort: print the last ~2KB.
  const int fd = ::open(log_path.c_str(), O_RDONLY);
  if (fd < 0) return;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  const off_t start = size > 2048 ? size - 2048 : 0;
  ::lseek(fd, start, SEEK_SET);
  char buf[2049];
  const ::ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n > 0) {
    buf[n] = '\0';
    std::cerr << buf << "\n";
  }
}

int run(const Options& options) {
  namespace fs = std::filesystem;
  Rng rng(options.seed);

  fs::path dir = options.data_dir.empty()
                     ? fs::temp_directory_path() / ("prvm-chaos-" + std::to_string(options.seed) +
                                                    "-" + std::to_string(::getpid()))
                     : fs::path(options.data_dir);
  fs::create_directories(dir);
  const std::string socket_path = (dir / "chaos.sock").string();
  const std::string log_path = (dir / "daemon.log").string();

  const Catalog catalog = ec2_sim_catalog();
  const std::vector<double> mix = default_vm_mix(catalog);

  Ledger ledger;
  std::uint64_t next_vm = 1;
  bool saw_degraded = false;
  bool saw_recovery = false;
  std::size_t crashes_injected = 0;
  std::size_t metric_mismatches = 0;
  std::size_t metric_rounds_checked = 0;

  const auto daemon_args = [&](const std::string& schedule) {
    std::vector<std::string> args = {
        options.serve_binary, "--socket", socket_path, "--data-dir", dir.string(),
        "--fleet", std::to_string(options.fleet), "--fsync", "--snapshot-every", "200",
        "--batch", "16", "--probe-initial-ms", "50", "--probe-max-ms", "400"};
    args.insert(args.end(), options.serve_args.begin(), options.serve_args.end());
    if (!schedule.empty()) {
      args.push_back("--fault-schedule");
      args.push_back(schedule);
    }
    return args;
  };

  for (std::size_t round = 0; round < options.rounds; ++round) {
    const FaultPlan plan = schedule_for_round(round, rng);
    const std::string& schedule = plan.spec;
    const bool hard_kill = (round % 2) == 1;
    std::cout << "prvm_chaos: round " << (round + 1) << "/" << options.rounds
              << (hard_kill ? " [SIGKILL]" : " [SIGTERM]")
              << (schedule.empty() ? "" : " faults=" + schedule) << "\n";

    const pid_t pid = spawn(daemon_args(schedule), log_path);
    Client client;
    if (!wait_ready(client, socket_path, pid, 300'000)) {
      std::cerr << "prvm_chaos: daemon did not come up (round " << round + 1 << ")\n";
      dump_log_tail(log_path);
      ::kill(pid, SIGKILL);
      wait_exit(pid, 5'000);
      return 1;
    }

    // Spot-check recovery of earlier rounds' state before adding load.
    {
      std::size_t sampled = 0;
      for (const std::uint64_t vm : ledger.present) {
        if (++sampled > 50) break;
        if (!field_ok(client.request(lookup_line(vm)))) {
          std::cerr << "prvm_chaos: VERIFY FAIL: vm " << vm << " lost across restart (round "
                    << round + 1 << ")\n";
          dump_log_tail(log_path);
          ::kill(pid, SIGKILL);
          wait_exit(pid, 5'000);
          return 1;
        }
      }
    }

    // Mid-round killer: fires while requests are in flight.
    std::atomic<bool> kill_sent{false};
    std::thread killer;
    if (hard_kill) {
      const int delay_ms = rng.uniform_int(50, 400);
      killer = std::thread([pid, delay_ms, &kill_sent] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        kill_sent.store(true);
        ::kill(pid, SIGKILL);
      });
      ++crashes_injected;
    }

    // Traffic. Any connection loss here is only acceptable if WE killed it.
    bool connection_lost = false;
    std::vector<std::uint64_t> live(ledger.present.begin(), ledger.present.end());
    for (std::size_t op = 0; op < options.ops_per_round; ++op) {
      const bool do_place = live.empty() || rng.chance(0.6);
      const std::uint64_t vm = do_place ? next_vm++ : [&] {
        const std::size_t pick = rng.uniform_index(live.size());
        const std::uint64_t victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        return victim;
      }();
      const std::string line =
          do_place ? place_line(vm, rng.weighted_index(mix)) : release_line(vm);
      try {
        switch (run_op(client, line, do_place, rng, ledger)) {
          case OpResult::kApplied:
            if (do_place) {
              ledger.present.insert(vm);
              live.push_back(vm);
            } else {
              ledger.present.erase(vm);
              ledger.released.insert(vm);
            }
            break;
          case OpResult::kRejected:
            ++ledger.rejected;
            if (!do_place) live.push_back(vm);  // release refused; still placed
            break;
          case OpResult::kLimbo:
            ledger.mark_limbo(vm);
            break;
        }
        if (op % 25 == 24) {
          const JsonValue health = client.request("{\"op\":\"health\"}\n");
          const std::string mode = field_string(health, "mode");
          if (mode == "degraded") saw_degraded = true;
          else if (saw_degraded && mode == "ok") saw_recovery = true;
        }
      } catch (const std::exception&) {
        ledger.mark_limbo(vm);
        connection_lost = true;
        break;
      }
    }

    // Metrics cross-check while the round's daemon is still up. In a
    // hard-kill round the SIGKILL can race the scrape, so connection loss
    // there is expected; un-killed it is the same protocol violation the
    // drain path reports below.
    if (!connection_lost && client.connected()) {
      try {
        metric_mismatches += check_round_metrics(client, plan, round);
        ++metric_rounds_checked;
      } catch (const std::exception&) {
        if (!hard_kill) connection_lost = true;
      }
    }
    client.disconnect();

    if (hard_kill) {
      killer.join();
      const auto status = wait_exit(pid, 30'000);
      if (!status.has_value()) {
        std::cerr << "prvm_chaos: daemon survived SIGKILL?!\n";
        return 1;
      }
    } else {
      if (connection_lost && !kill_sent.load()) {
        std::cerr << "prvm_chaos: daemon dropped the connection un-killed (round "
                  << round + 1 << ")\n";
        dump_log_tail(log_path);
        wait_exit(pid, 5'000);
        return 1;
      }
      ::kill(pid, SIGTERM);
      auto status = wait_exit(pid, 120'000);
      if (!status.has_value()) {
        std::cerr << "prvm_chaos: drain timed out; killing\n";
        ::kill(pid, SIGKILL);
        wait_exit(pid, 5'000);
        ++crashes_injected;
      } else if (!WIFEXITED(*status) || WEXITSTATUS(*status) != 0) {
        // Storage faults must degrade the daemon, never make the drain fail.
        std::cerr << "prvm_chaos: daemon exited " << *status << " on SIGTERM drain\n";
        dump_log_tail(log_path);
        return 1;
      }
    }
  }

  // Final differential verification against a fault-free boot.
  std::cout << "prvm_chaos: verifying " << ledger.present.size() << " placements, "
            << ledger.released.size() << " releases (" << ledger.limbo.size()
            << " limbo ignored)\n";
  const pid_t pid = spawn(daemon_args(""), log_path);
  Client client;
  if (!wait_ready(client, socket_path, pid, 300'000)) {
    std::cerr << "prvm_chaos: verification daemon did not come up\n";
    dump_log_tail(log_path);
    ::kill(pid, SIGKILL);
    wait_exit(pid, 5'000);
    return 1;
  }
  std::size_t mismatches = 0;
  try {
    const JsonValue health = client.request("{\"op\":\"health\"}\n");
    if (field_string(health, "mode") != "ok") {
      std::cerr << "prvm_chaos: VERIFY FAIL: fault-free boot reports mode="
                << field_string(health, "mode") << "\n";
      ++mismatches;
    }
    mismatches += verify_ledger(client, ledger);
    // The fault-free boot must report a clean registry: no injected faults.
    mismatches += check_round_metrics(client, FaultPlan{"", "", 0}, options.rounds);
  } catch (const std::exception& e) {
    std::cerr << "prvm_chaos: verification connection failed: " << e.what() << "\n";
    ++mismatches;
  }
  client.disconnect();
  ::kill(pid, SIGTERM);
  const auto status = wait_exit(pid, 120'000);
  if (!status.has_value() || !WIFEXITED(*status) || WEXITSTATUS(*status) != 0) {
    std::cerr << "prvm_chaos: verification daemon failed to drain cleanly\n";
    if (!status.has_value()) ::kill(pid, SIGKILL);
    ++mismatches;
  }

  mismatches += metric_mismatches;
  std::cout << "prvm_chaos: " << (mismatches == 0 ? "PASS" : "FAIL") << " seed="
            << options.seed << " rounds=" << options.rounds << " placed="
            << ledger.present.size() << " released=" << ledger.released.size()
            << " limbo=" << ledger.limbo.size() << " retries=" << ledger.retries
            << " rejected=" << ledger.rejected << " crashes=" << crashes_injected
            << " degraded_seen=" << (saw_degraded ? "yes" : "no")
            << " recovered_seen=" << (saw_recovery ? "yes" : "no")
            << " metric_checks=" << metric_rounds_checked
            << " metric_mismatches=" << metric_mismatches << "\n";
  if (mismatches == 0 && options.data_dir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  } else if (mismatches != 0) {
    std::cerr << "prvm_chaos: state kept in " << dir << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Replicated failover rounds: leader + live follower, ack_after_replicated,
// mid-round leader SIGKILL, follower promotion, differential verification.

int run_replicated(const Options& options) {
  namespace fs = std::filesystem;
  Rng rng(options.seed);

  fs::path dir = options.data_dir.empty()
                     ? fs::temp_directory_path() /
                           ("prvm-chaos-repl-" + std::to_string(options.seed) + "-" +
                            std::to_string(::getpid()))
                     : fs::path(options.data_dir);
  // The two nodes swap roles every round; dirs follow the role swap while
  // the socket paths stay role-bound.
  fs::path leader_dir = dir / "node-a";
  fs::path follower_dir = dir / "node-b";
  fs::create_directories(leader_dir);
  fs::create_directories(follower_dir);
  const std::string leader_sock = (dir / "leader.sock").string();
  const std::string follower_sock = (dir / "follower.sock").string();
  const std::string leader_log = (dir / "leader.log").string();
  const std::string follower_log = (dir / "follower.log").string();

  const Catalog catalog = ec2_sim_catalog();
  const std::vector<double> mix = default_vm_mix(catalog);

  Ledger ledger;
  std::unordered_map<std::uint64_t, std::uint64_t> placed_pm;  ///< acked PM per vm
  std::unordered_map<std::uint64_t, std::string> group_of;     ///< acked group per vm
  std::uint64_t next_vm = 1;
  std::uint64_t next_group = 1;
  std::uint64_t prev_op_seq = 0;  ///< op_seq the previous round drained at
  std::size_t promotions = 0;
  std::size_t catchup_rounds = 0;
  std::size_t mismatches = 0;

  const auto base_args = [&](const fs::path& data_dir, const std::string& sock) {
    std::vector<std::string> args = {
        options.serve_binary, "--socket", sock, "--data-dir", data_dir.string(),
        "--fleet", std::to_string(options.fleet), "--fsync", "--snapshot-every", "200",
        "--batch", "16"};
    args.insert(args.end(), options.serve_args.begin(), options.serve_args.end());
    return args;
  };

  // Churns `ops` requests against `client`; false = the connection died
  // mid-op (the op in flight is limbo). ~15% of iterations place a fresh
  // anti-collocation pair/trio instead of a single op.
  const auto churn = [&](Client& client, std::size_t ops) -> bool {
    std::vector<std::uint64_t> live(ledger.present.begin(), ledger.present.end());
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.chance(0.15)) {
        const std::string group = "cg" + std::to_string(next_group++);
        const std::size_t members = rng.chance(0.3) ? 3 : 2;
        for (std::size_t m = 0; m < members; ++m) {
          const std::uint64_t vm = next_vm++;
          double pm = 0;
          try {
            switch (run_op(client, place_line(vm, rng.weighted_index(mix), group), true,
                           rng, ledger, /*replicated=*/true, &pm)) {
              case OpResult::kApplied:
                ledger.present.insert(vm);
                placed_pm[vm] = static_cast<std::uint64_t>(pm);
                group_of[vm] = group;
                live.push_back(vm);
                break;
              case OpResult::kRejected:
                ++ledger.rejected;
                break;
              case OpResult::kLimbo:
                ledger.mark_limbo(vm);
                break;
            }
          } catch (const std::exception&) {
            ledger.mark_limbo(vm);
            return false;
          }
        }
        continue;
      }
      const bool do_place = live.empty() || rng.chance(0.6);
      const std::uint64_t vm = do_place ? next_vm++ : [&] {
        const std::size_t pick = rng.uniform_index(live.size());
        const std::uint64_t victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        return victim;
      }();
      const std::string line =
          do_place ? place_line(vm, rng.weighted_index(mix)) : release_line(vm);
      double pm = 0;
      try {
        switch (run_op(client, line, do_place, rng, ledger, /*replicated=*/true, &pm)) {
          case OpResult::kApplied:
            if (do_place) {
              ledger.present.insert(vm);
              placed_pm[vm] = static_cast<std::uint64_t>(pm);
              live.push_back(vm);
            } else {
              ledger.present.erase(vm);
              ledger.released.insert(vm);
              placed_pm.erase(vm);
              group_of.erase(vm);
            }
            break;
          case OpResult::kRejected:
            ++ledger.rejected;
            if (!do_place) live.push_back(vm);
            break;
          case OpResult::kLimbo:
            ledger.mark_limbo(vm);
            placed_pm.erase(vm);
            group_of.erase(vm);
            break;
        }
      } catch (const std::exception&) {
        ledger.mark_limbo(vm);
        placed_pm.erase(vm);
        group_of.erase(vm);
        return false;
      }
    }
    return true;
  };

  for (std::size_t round = 0; round < options.rounds; ++round) {
    std::cout << "prvm_chaos: replicated round " << (round + 1) << "/" << options.rounds
              << " [leader SIGKILL]\n";

    // Follower first, so the leader's boot-time handshake finds it.
    auto follower_args = base_args(follower_dir, follower_sock);
    follower_args.push_back("--follower");
    follower_args.push_back("--leader-hint");
    follower_args.push_back("unix:" + leader_sock);
    const pid_t follower_pid = spawn(follower_args, follower_log);
    Client follower;
    if (!wait_ready(follower, follower_sock, follower_pid, 300'000)) {
      std::cerr << "prvm_chaos: follower did not come up (round " << round + 1 << ")\n";
      dump_log_tail(follower_log);
      ::kill(follower_pid, SIGKILL);
      wait_exit(follower_pid, 5'000);
      return 1;
    }

    auto leader_args = base_args(leader_dir, leader_sock);
    leader_args.push_back("--replica");
    leader_args.push_back("unix:" + follower_sock);
    leader_args.push_back("--ack-replicas");
    leader_args.push_back("1");
    leader_args.push_back("--repl-timeout-ms");
    leader_args.push_back("4000");
    const pid_t leader_pid = spawn(leader_args, leader_log);
    Client leader;
    if (!wait_ready(leader, leader_sock, leader_pid, 300'000)) {
      std::cerr << "prvm_chaos: leader did not come up (round " << round + 1 << ")\n";
      dump_log_tail(leader_log);
      ::kill(leader_pid, SIGKILL);
      ::kill(follower_pid, SIGKILL);
      wait_exit(leader_pid, 5'000);
      wait_exit(follower_pid, 5'000);
      return 1;
    }

    // Spot-check survivor state on the new leader (booted from the
    // previously promoted follower's dir): acked ops, identical PMs.
    try {
      std::size_t sampled = 0;
      for (const std::uint64_t vm : ledger.present) {
        if (++sampled > 50) break;
        const JsonValue doc = leader.request(lookup_line(vm));
        if (!field_ok(doc) ||
            static_cast<std::uint64_t>(field_number(doc, "pm")) != placed_pm[vm]) {
          std::cerr << "prvm_chaos: VERIFY FAIL: vm " << vm
                    << " lost or moved across failover round " << round + 1 << "\n";
          ++mismatches;
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "prvm_chaos: spot-check connection failed: " << e.what() << "\n";
      ++mismatches;
    }

    // Phase 1: fault-free churn, then quiesce and require identical state
    // digests at identical op_seq — the follower is a byte-faithful replica.
    bool lost_early = !churn(leader, options.ops_per_round / 2);
    if (lost_early) {
      std::cerr << "prvm_chaos: leader dropped the connection un-killed (round "
                << round + 1 << ")\n";
      dump_log_tail(leader_log);
      ::kill(leader_pid, SIGKILL);
      ::kill(follower_pid, SIGKILL);
      return 1;
    }
    try {
      bool synced = false;
      std::string leader_digest, follower_digest;
      for (int i = 0; i < 100 && !synced; ++i) {
        const JsonValue ls = leader.request("{\"op\":\"stats\"}\n");
        const JsonValue fs2 = follower.request("{\"op\":\"stats\"}\n");
        if (field_number(ls, "op_seq") == field_number(fs2, "op_seq")) {
          leader_digest = field_string(ls, "state_digest");
          follower_digest = field_string(fs2, "state_digest");
          synced = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (!synced || leader_digest.empty() || leader_digest != follower_digest) {
        std::cerr << "prvm_chaos: VERIFY FAIL: digest mismatch at quiesce (round "
                  << round + 1 << "): leader=" << leader_digest
                  << " follower=" << follower_digest
                  << (synced ? "" : " (op_seq never converged)") << "\n";
        ++mismatches;
      }
      // Rounds after the first boot a wiped follower against a non-empty
      // leader: catching up MUST have installed a snapshot.
      if (prev_op_seq > 0) {
        const JsonValue mdoc = follower.request("{\"op\":\"metrics\"}\n");
        const JsonValue* metrics = mdoc.find("metrics");
        const double snaps =
            metrics != nullptr
                ? metric_number(*metrics, "counters", "prvm_repl_snapshots_installed_total")
                : 0.0;
        if (snaps < 1) {
          std::cerr << "prvm_chaos: VERIFY FAIL: wiped follower joined a non-empty "
                       "leader without a snapshot install (round " << round + 1 << ")\n";
          ++mismatches;
        } else {
          ++catchup_rounds;
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "prvm_chaos: quiesce check failed: " << e.what() << "\n";
      ++mismatches;
    }

    // Phase 2: churn with a mid-flight leader SIGKILL. Replicated ops are
    // fast (local sockets), so the delay window is tight to land the kill
    // while requests are actually in flight.
    std::atomic<bool> kill_sent{false};
    const int delay_ms = rng.uniform_int(1, 60);
    std::thread killer([leader_pid, delay_ms, &kill_sent] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      kill_sent.store(true);
      ::kill(leader_pid, SIGKILL);
    });
    const bool survived = churn(leader, options.ops_per_round - options.ops_per_round / 2);
    killer.join();
    if (!survived && !kill_sent.load()) {
      std::cerr << "prvm_chaos: leader dropped the connection un-killed (round "
                << round + 1 << ")\n";
      dump_log_tail(leader_log);
      ::kill(follower_pid, SIGKILL);
      return 1;
    }
    leader.disconnect();
    if (!wait_exit(leader_pid, 30'000).has_value()) {
      std::cerr << "prvm_chaos: leader survived SIGKILL?!\n";
      return 1;
    }

    // Failover: promote the follower and verify the acked ledger on it.
    try {
      const JsonValue promoted = follower.request("{\"op\":\"promote\"}\n");
      if (!field_ok(promoted)) {
        std::cerr << "prvm_chaos: VERIFY FAIL: promote rejected: "
                  << field_string(promoted, "error") << " (round " << round + 1 << ")\n";
        ++mismatches;
      } else {
        ++promotions;
      }
      const JsonValue again = follower.request("{\"op\":\"promote\"}\n");
      if (field_ok(again) || field_string(again, "error") != "not_follower") {
        std::cerr << "prvm_chaos: VERIFY FAIL: double promotion not rejected with "
                     "not_follower (round " << round + 1 << ")\n";
        ++mismatches;
      }
      const JsonValue health = follower.request("{\"op\":\"health\"}\n");
      if (field_string(health, "role") != "leader") {
        std::cerr << "prvm_chaos: VERIFY FAIL: promoted node reports role "
                  << field_string(health, "role") << " (round " << round + 1 << ")\n";
        ++mismatches;
      }
      mismatches += verify_ledger(follower, ledger);
      // Acked placements must sit on the SAME PM the leader acked, and
      // anti-collocation groups must stay pairwise-distinct.
      std::unordered_map<std::string, std::unordered_set<std::uint64_t>> group_pms;
      for (const std::uint64_t vm : ledger.present) {
        const JsonValue doc = follower.request(lookup_line(vm));
        if (!field_ok(doc)) continue;  // verify_ledger already flagged it
        const std::uint64_t pm = static_cast<std::uint64_t>(field_number(doc, "pm"));
        if (pm != placed_pm[vm]) {
          std::cerr << "prvm_chaos: VERIFY FAIL: vm " << vm << " acked on pm "
                    << placed_pm[vm] << " but follower has pm " << pm << "\n";
          ++mismatches;
        }
        const auto group = group_of.find(vm);
        if (group != group_of.end() && !group_pms[group->second].insert(pm).second) {
          std::cerr << "prvm_chaos: VERIFY FAIL: anti-collocation group "
                    << group->second << " has two members on pm " << pm << "\n";
          ++mismatches;
        }
      }
      const JsonValue stats = follower.request("{\"op\":\"stats\"}\n");
      prev_op_seq = static_cast<std::uint64_t>(field_number(stats, "op_seq"));
    } catch (const std::exception& e) {
      std::cerr << "prvm_chaos: failover verification failed: " << e.what() << "\n";
      ++mismatches;
    }
    follower.disconnect();

    ::kill(follower_pid, SIGTERM);
    const auto status = wait_exit(follower_pid, 120'000);
    if (!status.has_value() || !WIFEXITED(*status) || WEXITSTATUS(*status) != 0) {
      std::cerr << "prvm_chaos: promoted follower failed to drain cleanly\n";
      if (!status.has_value()) ::kill(follower_pid, SIGKILL);
      ++mismatches;
    }

    // Role swap: the promoted follower's dir leads the next round; the old
    // leader's dir is wiped so the fresh follower must catch up by snapshot.
    std::swap(leader_dir, follower_dir);
    std::error_code ec;
    fs::remove_all(follower_dir, ec);
    fs::create_directories(follower_dir);
  }

  std::cout << "prvm_chaos: " << (mismatches == 0 ? "PASS" : "FAIL")
            << " mode=replicated seed=" << options.seed << " rounds=" << options.rounds
            << " placed=" << ledger.present.size() << " released="
            << ledger.released.size() << " limbo=" << ledger.limbo.size()
            << " retries=" << ledger.retries << " rejected=" << ledger.rejected
            << " promotions=" << promotions << " catchup_rounds=" << catchup_rounds
            << "\n";
  if (mismatches == 0 && options.data_dir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  } else if (mismatches != 0) {
    std::cerr << "prvm_chaos: state kept in " << dir << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Rebalancer chaos rounds: --rebalance. The daemon runs its background
// migration planner while a skewed utilization feed keeps one PM hot, so
// SIGKILLs land while planner-internal migrates are in the WAL pipeline.

std::string util_vm_line(std::uint64_t vm, double cpu) {
  return "{\"op\":\"util\",\"vm\":" + std::to_string(vm) +
         ",\"cpu\":" + std::to_string(cpu) + "}\n";
}

std::string util_pm_line(std::uint64_t pm, double cpu) {
  return "{\"op\":\"util\",\"pm\":" + std::to_string(pm) +
         ",\"cpu\":" + std::to_string(cpu) + "}\n";
}

int run_rebalance(const Options& options) {
  namespace fs = std::filesystem;
  Rng rng(options.seed);

  fs::path dir = options.data_dir.empty()
                     ? fs::temp_directory_path() /
                           ("prvm-chaos-rebal-" + std::to_string(options.seed) + "-" +
                            std::to_string(::getpid()))
                     : fs::path(options.data_dir);
  fs::create_directories(dir);
  const std::string socket_path = (dir / "chaos.sock").string();
  const std::string log_path = (dir / "daemon.log").string();

  const Catalog catalog = ec2_sim_catalog();
  const std::vector<double> mix = default_vm_mix(catalog);

  Ledger ledger;
  std::unordered_map<std::uint64_t, std::string> group_of;  ///< acked group per vm
  std::uint64_t next_vm = 1;
  std::uint64_t next_group = 1;
  std::uint64_t moves_seen = 0;  ///< planner migrations observed across rounds
  std::size_t crashes_injected = 0;
  std::size_t mismatches = 0;

  const auto daemon_args = [&](bool planner_on) {
    std::vector<std::string> args = {
        options.serve_binary, "--socket", socket_path, "--data-dir", dir.string(),
        "--fleet", std::to_string(options.fleet), "--fsync", "--snapshot-every", "200",
        "--batch", "16"};
    if (planner_on) {
      const std::vector<std::string> flags = {"--rebalance", "--rebalance-interval-ms",
                                             "100", "--rebalance-cooldown-ms", "500",
                                             "--max-moves", "4"};
      args.insert(args.end(), flags.begin(), flags.end());
    }
    args.insert(args.end(), options.serve_args.begin(), options.serve_args.end());
    return args;
  };

  // Every acked-present member of an anti-collocation group must sit on a
  // distinct PM — the planner's migrates go through the same admission as
  // client placements, so a collocation is a correctness bug whenever seen.
  const auto check_groups = [&](Client& client, const std::string& when) {
    std::unordered_map<std::string, std::unordered_map<std::uint64_t, std::uint64_t>> seen;
    for (const std::uint64_t vm : ledger.present) {
      const auto group = group_of.find(vm);
      if (group == group_of.end()) continue;
      const JsonValue doc = client.request(lookup_line(vm));
      if (!field_ok(doc)) continue;  // presence is verified separately
      const std::uint64_t pm = static_cast<std::uint64_t>(field_number(doc, "pm"));
      const auto [it, fresh] = seen[group->second].emplace(pm, vm);
      if (!fresh) {
        std::cerr << "prvm_chaos: VERIFY FAIL: anti-collocation group " << group->second
                  << " has vm " << it->second << " and vm " << vm << " on pm " << pm
                  << " (" << when << ")\n";
        ++mismatches;
      }
    }
  };

  // Mutating churn with ~15% anti-collocation pair/trio placements; false =
  // connection died mid-op (the op in flight is limbo).
  const auto churn = [&](Client& client, std::size_t ops) -> bool {
    std::vector<std::uint64_t> live(ledger.present.begin(), ledger.present.end());
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.chance(0.15)) {
        const std::string group = "rg" + std::to_string(next_group++);
        const std::size_t members = rng.chance(0.3) ? 3 : 2;
        for (std::size_t m = 0; m < members; ++m) {
          const std::uint64_t vm = next_vm++;
          try {
            switch (run_op(client, place_line(vm, rng.weighted_index(mix), group), true,
                           rng, ledger)) {
              case OpResult::kApplied:
                ledger.present.insert(vm);
                group_of[vm] = group;
                live.push_back(vm);
                break;
              case OpResult::kRejected:
                ++ledger.rejected;
                break;
              case OpResult::kLimbo:
                ledger.mark_limbo(vm);
                break;
            }
          } catch (const std::exception&) {
            ledger.mark_limbo(vm);
            return false;
          }
        }
        continue;
      }
      const bool do_place = live.empty() || rng.chance(0.6);
      const std::uint64_t vm = do_place ? next_vm++ : [&] {
        const std::size_t pick = rng.uniform_index(live.size());
        const std::uint64_t victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        return victim;
      }();
      const std::string line =
          do_place ? place_line(vm, rng.weighted_index(mix)) : release_line(vm);
      try {
        switch (run_op(client, line, do_place, rng, ledger)) {
          case OpResult::kApplied:
            if (do_place) {
              ledger.present.insert(vm);
              live.push_back(vm);
            } else {
              ledger.present.erase(vm);
              ledger.released.insert(vm);
              group_of.erase(vm);
            }
            break;
          case OpResult::kRejected:
            ++ledger.rejected;
            if (!do_place) live.push_back(vm);
            break;
          case OpResult::kLimbo:
            ledger.mark_limbo(vm);
            group_of.erase(vm);
            break;
        }
      } catch (const std::exception&) {
        ledger.mark_limbo(vm);
        group_of.erase(vm);
        return false;
      }
    }
    return true;
  };

  // One feed wave: find the fullest PM by resolving live VMs, then report
  // its residents (and the PM itself) bursting hot while everything else
  // idles just above the underload threshold. Throws on connection loss.
  const auto feed_wave = [&](Client& client) {
    std::unordered_map<std::uint64_t, std::uint64_t> vm_pm;
    std::unordered_map<std::uint64_t, std::size_t> residents;
    std::size_t scanned = 0;
    for (const std::uint64_t vm : ledger.present) {
      if (++scanned > 300) break;
      const JsonValue doc = client.request(lookup_line(vm));
      if (!field_ok(doc)) continue;
      const std::uint64_t pm = static_cast<std::uint64_t>(field_number(doc, "pm"));
      vm_pm[vm] = pm;
      ++residents[pm];
    }
    std::uint64_t hot = 0;
    std::size_t hot_count = 0;
    for (const auto& [pm, count] : residents) {
      if (count > hot_count || (count == hot_count && pm < hot)) {
        hot = pm;
        hot_count = count;
      }
    }
    for (const auto& [vm, pm] : vm_pm) {
      client.request(util_vm_line(vm, pm == hot ? 1.3 : 0.05));
    }
    for (std::uint64_t pm = 0; pm < options.fleet; ++pm) {
      client.request(util_pm_line(pm, pm == hot ? 1.3 : 0.3));
    }
  };

  for (std::size_t round = 0; round < options.rounds; ++round) {
    const bool hard_kill = (round % 2) == 1;
    std::cout << "prvm_chaos: rebalance round " << (round + 1) << "/" << options.rounds
              << (hard_kill ? " [SIGKILL]" : " [SIGTERM]") << "\n";

    const pid_t pid = spawn(daemon_args(/*planner_on=*/true), log_path);
    Client client;
    if (!wait_ready(client, socket_path, pid, 300'000)) {
      std::cerr << "prvm_chaos: daemon did not come up (round " << round + 1 << ")\n";
      dump_log_tail(log_path);
      ::kill(pid, SIGKILL);
      wait_exit(pid, 5'000);
      return 1;
    }

    // Spot-check recovery before adding load: acked state survived the
    // previous round's kill, and no group got collocated by it.
    try {
      std::size_t sampled = 0;
      for (const std::uint64_t vm : ledger.present) {
        if (++sampled > 50) break;
        if (!field_ok(client.request(lookup_line(vm)))) {
          std::cerr << "prvm_chaos: VERIFY FAIL: vm " << vm << " lost across restart (round "
                    << round + 1 << ")\n";
          ++mismatches;
        }
      }
      check_groups(client, "across restart, round " + std::to_string(round + 1));
    } catch (const std::exception& e) {
      std::cerr << "prvm_chaos: spot-check connection failed: " << e.what() << "\n";
      dump_log_tail(log_path);
      ::kill(pid, SIGKILL);
      wait_exit(pid, 5'000);
      return 1;
    }

    // Build up load first, un-killed: a crash here is a daemon bug.
    if (!churn(client, options.ops_per_round)) {
      std::cerr << "prvm_chaos: daemon dropped the connection un-killed (round "
                << round + 1 << ")\n";
      dump_log_tail(log_path);
      ::kill(pid, SIGKILL);
      wait_exit(pid, 5'000);
      return 1;
    }

    // Feed phase: skewed samples drive the planner into continuous
    // migration; on kill rounds the SIGKILL lands inside this window.
    std::atomic<bool> kill_sent{false};
    std::thread killer;
    if (hard_kill) {
      const int delay_ms = rng.uniform_int(300, 2000);
      killer = std::thread([pid, delay_ms, &kill_sent] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        kill_sent.store(true);
        ::kill(pid, SIGKILL);
      });
      ++crashes_injected;
    }
    bool connection_lost = false;
    for (std::size_t wave = 0; wave < 10 && !connection_lost; ++wave) {
      try {
        feed_wave(client);
      } catch (const std::exception&) {
        connection_lost = true;
        break;
      }
      // Interleave client mutations so the kill also races planner moves
      // against ordinary traffic in the same WAL.
      if (!churn(client, 5)) {
        connection_lost = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }

    if (hard_kill) {
      killer.join();
      client.disconnect();
      if (!wait_exit(pid, 30'000).has_value()) {
        std::cerr << "prvm_chaos: daemon survived SIGKILL?!\n";
        return 1;
      }
      continue;
    }

    if (connection_lost && !kill_sent.load()) {
      std::cerr << "prvm_chaos: daemon dropped the connection un-killed (round "
                << round + 1 << ")\n";
      dump_log_tail(log_path);
      ::kill(pid, SIGKILL);
      wait_exit(pid, 5'000);
      return 1;
    }

    // Live checks while the planner is still running, then a clean drain.
    try {
      check_groups(client, "live, round " + std::to_string(round + 1));
      const JsonValue health = client.request("{\"op\":\"health\"}\n");
      if (field_string(health, "rebalance").empty()) {
        std::cerr << "prvm_chaos: VERIFY FAIL: health response lacks the rebalance "
                     "state (round " << round + 1 << ")\n";
        ++mismatches;
      }
      const JsonValue mdoc = client.request("{\"op\":\"metrics\"}\n");
      const JsonValue* metrics = mdoc.find("metrics");
      if (metrics != nullptr) {
        moves_seen += static_cast<std::uint64_t>(
            metric_number(*metrics, "counters", "prvm_rebal_moves_total"));
      }
    } catch (const std::exception& e) {
      std::cerr << "prvm_chaos: live check failed: " << e.what() << " (round "
                << round + 1 << ")\n";
      ++mismatches;
    }
    client.disconnect();
    ::kill(pid, SIGTERM);
    const auto status = wait_exit(pid, 120'000);
    if (!status.has_value() || !WIFEXITED(*status) || WEXITSTATUS(*status) != 0) {
      std::cerr << "prvm_chaos: daemon failed to drain cleanly (round " << round + 1
                << ")\n";
      if (!status.has_value()) ::kill(pid, SIGKILL);
      dump_log_tail(log_path);
      return 1;
    }
  }

  // Final differential verification, planner off so the state under
  // inspection cannot shift: acked ledger intact, groups distinct, and two
  // consecutive boots agree byte-for-byte on the state digest — every
  // migration that reached the ledger came back from the WAL.
  std::cout << "prvm_chaos: verifying " << ledger.present.size() << " placements, "
            << ledger.released.size() << " releases (" << ledger.limbo.size()
            << " limbo ignored), planner moves seen=" << moves_seen << "\n";
  std::string digest_first;
  for (int boot = 0; boot < 2; ++boot) {
    const pid_t pid = spawn(daemon_args(/*planner_on=*/false), log_path);
    Client client;
    if (!wait_ready(client, socket_path, pid, 300'000)) {
      std::cerr << "prvm_chaos: verification daemon did not come up (boot " << boot + 1
                << ")\n";
      dump_log_tail(log_path);
      ::kill(pid, SIGKILL);
      wait_exit(pid, 5'000);
      return 1;
    }
    try {
      if (boot == 0) {
        const JsonValue health = client.request("{\"op\":\"health\"}\n");
        if (field_string(health, "mode") != "ok") {
          std::cerr << "prvm_chaos: VERIFY FAIL: fault-free boot reports mode="
                    << field_string(health, "mode") << "\n";
          ++mismatches;
        }
        mismatches += verify_ledger(client, ledger);
        check_groups(client, "after recovery");
      }
      const JsonValue stats = client.request("{\"op\":\"stats\"}\n");
      const std::string digest = field_string(stats, "state_digest");
      if (boot == 0) {
        digest_first = digest;
      } else if (digest.empty() || digest != digest_first) {
        std::cerr << "prvm_chaos: VERIFY FAIL: state digest changed across fault-free "
                     "reboots (" << digest_first << " vs " << digest
                  << ") — an acked migration was not WAL-durable\n";
        ++mismatches;
      }
    } catch (const std::exception& e) {
      std::cerr << "prvm_chaos: verification connection failed: " << e.what() << "\n";
      ++mismatches;
    }
    client.disconnect();
    ::kill(pid, SIGTERM);
    const auto status = wait_exit(pid, 120'000);
    if (!status.has_value() || !WIFEXITED(*status) || WEXITSTATUS(*status) != 0) {
      std::cerr << "prvm_chaos: verification daemon failed to drain cleanly\n";
      if (!status.has_value()) ::kill(pid, SIGKILL);
      ++mismatches;
    }
  }
  if (moves_seen == 0) {
    std::cerr << "prvm_chaos: VERIFY FAIL: the planner never migrated anything — the "
                 "harness exercised nothing\n";
    ++mismatches;
  }

  std::cout << "prvm_chaos: " << (mismatches == 0 ? "PASS" : "FAIL")
            << " mode=rebalance seed=" << options.seed << " rounds=" << options.rounds
            << " placed=" << ledger.present.size() << " released="
            << ledger.released.size() << " limbo=" << ledger.limbo.size()
            << " retries=" << ledger.retries << " rejected=" << ledger.rejected
            << " crashes=" << crashes_injected << " planner_moves=" << moves_seen << "\n";
  if (mismatches == 0 && options.data_dir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  } else if (mismatches != 0) {
    std::cerr << "prvm_chaos: state kept in " << dir << "\n";
  }
  return mismatches == 0 ? 0 : 1;
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
    if (arg == "--serve") {
      options.serve_binary = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--rounds") {
      options.rounds = std::stoull(value());
    } else if (arg == "--ops") {
      options.ops_per_round = std::stoull(value());
    } else if (arg == "--fleet") {
      options.fleet = std::stoull(value());
    } else if (arg == "--data-dir") {
      options.data_dir = value();
    } else if (arg == "--serve-arg") {
      options.serve_args.push_back(value());
    } else if (arg == "--replicated") {
      options.replicated = true;
    } else if (arg == "--rebalance") {
      options.rebalance = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " --serve PATH [--seed N] [--rounds R] [--ops N] [--fleet N]"
                << " [--data-dir PATH] [--serve-arg FLAG]... [--replicated] [--rebalance]\n";
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (options.serve_binary.empty()) {
    std::cerr << "prvm_chaos: --serve PATH is required\n";
    return 2;
  }
  if (options.fleet == 0) options.fleet = options.rebalance ? 24 : 400;
  ::signal(SIGPIPE, SIG_IGN);
  try {
    if (options.rebalance) return run_rebalance(options);
    return options.replicated ? run_replicated(options) : run(options);
  } catch (const std::exception& e) {
    std::cerr << "prvm_chaos: fatal: " << e.what() << "\n";
    return 1;
  }
}
