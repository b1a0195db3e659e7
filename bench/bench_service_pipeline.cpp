// Service-pipeline throughput benchmark.
//
// Measures the PlacementService hot path in-process — submit() through the
// real bounded queue, batch worker, WAL append/flush and ack-after-flush
// promise resolution, on a real data directory — for the worker flushing
// inline after every batch against WAL group commit (a flusher thread makes
// batches durable while the worker computes). This isolates the
// engine/service gap from the socket+JSON tax that
// prvm_loadgen measures separately (see BENCH_service_socket.json). Also
// measures the ack_after_replicated tax: the same group-commit churn with
// every ack gated on a live in-process follower's confirmation.
//
// Usage: bench_service_pipeline [--json PATH]
//   --json PATH   additionally write machine-readable results to PATH
//   PRVM_FAST=1   shrink the fleet and op counts for a smoke run
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "cluster/catalog.hpp"
#include "cluster/datacenter.hpp"
#include "obs/metrics.hpp"
#include "placement/pagerank_vm.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/cell_server.hpp"
#include "sim/simulator.hpp"

namespace prvm {
namespace {

using Clock = std::chrono::steady_clock;

struct ServiceRun {
  std::size_t used_pms = 0;
  std::size_t fill_placements = 0;
  double fill_pps = 0.0;
  std::size_t churn_ops = 0;      ///< acknowledged churn placements
  double churn_pps = 0.0;
  double p50_us = 0.0;            ///< submit -> ack, FIFO-pipelined
  double p99_us = 0.0;
  double compute_mean_us = 0.0;   ///< engine time per placed VM (worker side)
  double flush_mean_us = 0.0;     ///< WAL flush syscall time per flush
  double batch_mean = 0.0;        ///< ops per worker batch
  std::uint64_t flushes = 0;
  std::uint64_t churn_rejects = 0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t i = static_cast<std::size_t>(p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[i];
}

Request place_request(std::uint64_t vm, std::size_t type) {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  return request;
}

Request release_request(std::uint64_t vm) {
  Request request;
  request.op = RequestOp::kRelease;
  request.vm_id = vm;
  return request;
}

/// The single-thread ceiling: the same release+place churn pairs driven
/// straight into the engine (no queue, no WAL, no acks), wall-clock. The
/// service-over-engine overhead factor is headline/THIS, not the engine
/// bench's place-call-only figure (which excludes remove() and rejections).
double engine_pair_ceiling(const Catalog& catalog,
                           const std::shared_ptr<const ScoreTableSet>& tables, std::size_t fleet,
                           std::size_t churn_pairs) {
  Datacenter dc(catalog, mixed_pm_fleet(catalog, fleet));
  PageRankVm engine(tables, {});
  Rng rng(7);
  const std::vector<double> mix = default_vm_mix(catalog);
  std::vector<VmId> live;
  VmId next_id = 1;
  std::size_t streak = 0;
  while (streak < 64) {
    const Vm vm{next_id++, rng.weighted_index(mix)};
    if (engine.place(dc, vm).has_value()) {
      live.push_back(vm.id);
      streak = 0;
    } else {
      ++streak;
    }
  }
  std::size_t ok = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < churn_pairs && !live.empty(); ++i) {
    const std::size_t pick = rng.uniform_index(live.size());
    dc.remove(live[pick]);
    live[pick] = live.back();
    live.pop_back();
    const Vm vm{next_id++, rng.weighted_index(mix)};
    if (engine.place(dc, vm).has_value()) {
      live.push_back(vm.id);
      ++ok;
    }
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return seconds > 0 ? static_cast<double>(ok) / seconds : 0.0;
}

ServiceRun run_service(const Catalog& catalog,
                       const std::shared_ptr<const ScoreTableSet>& tables, std::size_t fleet,
                       std::size_t churn_pairs, ServiceConfig config) {
  // A real data directory: the WAL write path (and its flush cadence) is the
  // very thing under test.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("prvm-bench-svc-" + std::to_string(::getpid()) + "-" +
       std::to_string(config.flush_group_max));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  config.data_dir = dir;
  const auto registry = std::make_shared<obs::Registry>();
  config.metrics = registry;

  ServiceRun run;
  {
    PlacementService service(catalog, mixed_pm_fleet(catalog, fleet), tables, config);
    service.start();

    Rng rng(7);
    const std::vector<double> mix = default_vm_mix(catalog);
    const std::size_t window = 2 * config.batch_size;
    std::vector<VmId> live;
    VmId next_vm = 1;

    // Fill to saturation, FIFO-pipelined `window` deep.
    struct InflightPlace {
      std::future<Response> future;
      VmId vm = 0;
      Clock::time_point sent;
    };
    std::deque<InflightPlace> inflight;
    std::size_t rejected_streak = 0;
    const auto fill_start = Clock::now();
    while (rejected_streak < 64 || !inflight.empty()) {
      while (rejected_streak < 64 && inflight.size() < window) {
        const VmId vm = next_vm++;
        inflight.push_back(
            InflightPlace{service.submit(place_request(vm, rng.weighted_index(mix))), vm, {}});
      }
      while (inflight.size() > window / 2 || (rejected_streak >= 64 && !inflight.empty())) {
        InflightPlace front = std::move(inflight.front());
        inflight.pop_front();
        if (front.future.get().ok) {
          live.push_back(front.vm);
          ++run.fill_placements;
          rejected_streak = 0;
        } else {
          ++rejected_streak;
        }
      }
    }
    const double fill_seconds = std::chrono::duration<double>(Clock::now() - fill_start).count();
    run.fill_pps = fill_seconds > 0 ? static_cast<double>(run.fill_placements) / fill_seconds : 0;
    run.used_pms = service.datacenter().used_count();

    // Sustained churn: release one, place one; only place acks are timed
    // (submit -> future resolution, i.e. including queueing, batching and
    // the covering WAL flush).
    std::vector<double> latencies_us;
    latencies_us.reserve(churn_pairs);
    const obs::Counter* rejected_counter = registry->find_counter("prvm_ops_rejected_total");
    const std::uint64_t rejects_before =
        rejected_counter != nullptr ? rejected_counter->value() : 0;
    std::deque<std::future<Response>> releases;
    std::size_t sent = 0;
    const auto churn_start = Clock::now();
    while (sent < churn_pairs || !inflight.empty() || !releases.empty()) {
      while (sent < churn_pairs && inflight.size() < window && !live.empty()) {
        const std::size_t pick = rng.uniform_index(live.size());
        const VmId victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        releases.push_back(service.submit(release_request(victim)));
        const VmId vm = next_vm++;
        inflight.push_back(InflightPlace{service.submit(place_request(vm, rng.weighted_index(mix))),
                                         vm, Clock::now()});
        ++sent;
      }
      // The worker resolves in FIFO submit order (rel0 pl0 rel1 pl1 ...), so
      // the release paired with the front place is always settled first.
      if (!releases.empty() && (releases.size() > window || inflight.empty())) {
        releases.front().get();
        releases.pop_front();
        continue;
      }
      if (inflight.empty()) {
        if (live.empty()) break;  // every placement failed; avoid spinning
        continue;
      }
      InflightPlace front = std::move(inflight.front());
      inflight.pop_front();
      const Response response = front.future.get();
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - front.sent).count());
      if (response.ok) {
        live.push_back(front.vm);
        ++run.churn_ops;
      }
    }
    const double churn_seconds =
        std::chrono::duration<double>(Clock::now() - churn_start).count();
    run.churn_pps = churn_seconds > 0 ? static_cast<double>(run.churn_ops) / churn_seconds : 0;
    std::sort(latencies_us.begin(), latencies_us.end());
    run.p50_us = percentile(latencies_us, 0.50);
    run.p99_us = percentile(latencies_us, 0.99);
    if (rejected_counter != nullptr) run.churn_rejects = rejected_counter->value() - rejects_before;

    service.stop_now();

    const auto hist_mean_us = [&](const char* name) {
      const obs::Histogram* h = registry->find_histogram(name);
      return h != nullptr ? h->snapshot().mean() / 1000.0 : 0.0;
    };
    run.compute_mean_us = hist_mean_us("prvm_place_compute_ns");
    run.flush_mean_us = hist_mean_us("prvm_wal_flush_ns");
    const obs::Histogram* batches = registry->find_histogram("prvm_batch_size");
    if (batches != nullptr) run.batch_mean = batches->snapshot().mean();
    const obs::Histogram* flushes = registry->find_histogram("prvm_wal_flush_ns");
    if (flushes != nullptr) run.flushes = flushes->snapshot().count;
  }
  std::filesystem::remove_all(dir);
  return run;
}

void print_run(const char* name, const ServiceRun& run) {
  std::printf(
      "  %-8s fill %8.0f pl/s (%zu VMs)   churn %8.0f pl/s   p50 %8.2f us   p99 %8.2f us\n"
      "           [compute %5.1f us/pl, flush %6.1f us x%llu, batch %5.1f ops, "
      "churn rejects %llu]\n",
      name, run.fill_pps, run.fill_placements, run.churn_pps, run.p50_us, run.p99_us,
      run.compute_mean_us, run.flush_mean_us, static_cast<unsigned long long>(run.flushes),
      run.batch_mean, static_cast<unsigned long long>(run.churn_rejects));
}

void json_run(std::ostream& os, const char* name, const ServiceRun& run) {
  os << "      \"" << name << "\": {\"fill_placements_per_sec\": " << run.fill_pps
     << ", \"fill_placements\": " << run.fill_placements
     << ", \"churn_placements_per_sec\": " << run.churn_pps
     << ", \"churn_ops\": " << run.churn_ops << ", \"p50_us\": " << run.p50_us
     << ", \"p99_us\": " << run.p99_us << "}";
}

}  // namespace
}  // namespace prvm

int main(int argc, char** argv) {
  using namespace prvm;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json PATH]\n";
      return 2;
    }
  }

  const bool fast = bench::fast_mode();
  const std::size_t fleet = fast ? 500 : 5000;
  const std::size_t churn_pairs = fast ? 1000 : 50000;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::cout << "==== PlacementService pipeline: inline flush vs WAL group commit ====\n"
            << "(EC2 catalog, " << fleet << " PMs, in-process submit(), real WAL, "
            << churn_pairs << " release+place churn pairs, " << cores
            << " hardware threads; PRVM_FAST=1 shrinks)\n\n";

  const Catalog catalog = ec2_sim_catalog();
  const auto tables = std::make_shared<const ScoreTableSet>(build_score_tables(catalog));

  ServiceConfig serial;
  serial.batch_size = 256;
  serial.queue_capacity = 8192;

  // Group commit: the flusher thread makes batches durable while the
  // worker computes the next one.
  ServiceConfig group_commit = serial;
  group_commit.flush_group_max = 2048;

  // ack_after_replicated on top of group commit: a live in-process follower
  // behind a unix socket, and every client ack additionally waits for the
  // follower's confirmation of the covering frame batch. Measures the cost
  // of the durability upgrade, not a headline candidate.
  const std::filesystem::path repl_dir =
      std::filesystem::temp_directory_path() /
      ("prvm-bench-repl-" + std::to_string(::getpid()));
  std::filesystem::remove_all(repl_dir);
  std::filesystem::create_directories(repl_dir / "follower");
  ServiceConfig follower_config;
  follower_config.data_dir = repl_dir / "follower";
  follower_config.repl.follower = true;
  PlacementService follower(catalog, mixed_pm_fleet(catalog, fleet), tables, follower_config);
  follower.start();
  SocketServerConfig follower_socket;
  follower_socket.unix_path = (repl_dir / "follower.sock").string();
  follower_socket.max_frame = kMaxReplFrameBytes;
  CellServer follower_server(follower, follower_socket);
  follower_server.start();

  ServiceConfig replicated = group_commit;
  replicated.repl.replicas = {"unix:" + follower_socket.unix_path};
  replicated.repl.ack_replicas = 1;
  // Smaller flush groups when ack-gating on a follower: the client ack
  // waits for the follower to apply the whole covering group, so group size
  // bounds ack latency — and with a finite submit window, ack latency
  // bounds throughput. 256 keeps the round-trip amortized without letting
  // one group stall the window.
  replicated.flush_group_max = 256;

  const double ceiling_pps = engine_pair_ceiling(catalog, tables, fleet, churn_pairs);
  std::printf("  engine ceiling (no service layer): %8.0f pl/s wall\n", ceiling_pps);

  const ServiceRun serial_run = run_service(catalog, tables, fleet, churn_pairs, serial);
  const ServiceRun gc_run = run_service(catalog, tables, fleet, churn_pairs, group_commit);
  const ServiceRun repl_run = run_service(catalog, tables, fleet, churn_pairs, replicated);
  follower_server.stop();
  follower.stop_now();
  std::filesystem::remove_all(repl_dir);

  print_run("serial", serial_run);
  print_run("gc-only", gc_run);
  print_run("gc+repl", repl_run);
  const double repl_retention =
      gc_run.churn_pps > 0 ? repl_run.churn_pps / gc_run.churn_pps : 0.0;
  std::printf("  ack_after_replicated keeps %.0f%% of leader-only group-commit churn\n",
              100.0 * repl_retention);

  // The headline is the best sustained-churn config the operator could pick
  // on this machine; its knob settings are recorded alongside the number.
  struct Candidate {
    const char* name;
    const ServiceRun* run;
    const ServiceConfig* config;
  };
  std::vector<Candidate> candidates{{"serial", &serial_run, &serial},
                                    {"group_commit", &gc_run, &group_commit}};
  const Candidate best = *std::max_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) { return a.run->churn_pps < b.run->churn_pps; });
  const ServiceRun& headline = *best.run;
  const double speedup =
      serial_run.churn_pps > 0 ? headline.churn_pps / serial_run.churn_pps : 0.0;
  std::printf("  -> %zu used PMs, headline %s (%.0f pl/s), %.2fx vs serial worker, "
              "%.0f%% of engine ceiling\n",
              headline.used_pms, best.name, headline.churn_pps, speedup,
              ceiling_pps > 0 ? 100.0 * headline.churn_pps / ceiling_pps : 0.0);

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    if (!os.is_open()) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    // "service" carries the headline numbers in the same shape the loadgen
    // writes, so downstream readers of BENCH_service.json keep working;
    // "service_serial" / "service_group_commit" are the ablations.
    os << "{\n  \"benchmark\": \"service_throughput\",\n  \"catalog\": \"ec2_sim\",\n"
       << "  \"mode\": \"in_process\",\n  \"hardware_threads\": " << cores
       << ",\n  \"churn_ops\": " << headline.churn_ops
       << ",\n  \"batch\": 256,\n  \"headline_config\": \"" << best.name
       << "\",\n  \"flush_group_max\": " << best.config->flush_group_max
       << ",\n  \"engine_ceiling_placements_per_sec\": " << ceiling_pps << ",\n"
       << "  \"fleets\": [\n    {\"pms\": " << fleet
       << ", \"used_pms\": " << headline.used_pms << ",\n";
    json_run(os, "service", headline);
    os << ",\n";
    json_run(os, "service_serial", serial_run);
    os << ",\n";
    json_run(os, "service_group_commit", gc_run);
    os << ",\n";
    json_run(os, "service_ack_after_replicated", repl_run);
    os << ",\n      \"replication_churn_retention\": " << repl_retention
       << ",\n      \"pipeline_speedup\": " << speedup << "}\n  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
