// prvm_serve — the online placement daemon.
//
// Owns one Datacenter + score-table set and serves place/release/migrate
// requests over a JSON-lines socket protocol (Unix-domain or loopback
// TCP), with write-ahead logging and snapshots for crash recovery. One loop
// thread serves the socket and runs the engine (CellServer on the
// PlacementService loop). See src/service/ for the moving parts and
// DESIGN.md §4 for the architecture.
//
//   prvm_serve --socket /tmp/prvm.sock --fleet 10000 --data-dir /var/lib/prvm
//
// Signals: SIGTERM/SIGINT trigger a graceful drain (stop accepting, flush
// the queue, final snapshot, exit 0). kill -9 is recovered on next start
// from snapshot + WAL replay. SIGUSR1 dumps the Prometheus exposition to
// stdout (poor-man's scrape without the HTTP listener).
//
// Observability (DESIGN.md §5): every service/engine/IO metric lives in the
// process-global registry. Scrape it three ways: the in-band `metrics`
// protocol op, the `--metrics-port` Prometheus HTTP listener, or SIGUSR1.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/allocator.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "service/io_env.hpp"
#include "service/service.hpp"
#include "service/cell_server.hpp"
#include "sim/simulator.hpp"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_dump_metrics = 0;

void handle_signal(int) { g_shutdown = 1; }

void handle_usr1(int) { g_dump_metrics = 1; }

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --socket PATH        listen on a Unix-domain socket (default /tmp/prvm.sock)\n"
      << "  --port N             listen on loopback TCP instead (0 = ephemeral)\n"
      << "  --fleet N            PM fleet size, alternating EC2 M3/C3 (default 10000)\n"
      << "  --data-dir PATH      WAL + snapshot directory; omit for an ephemeral daemon\n"
      << "  --batch K            max requests per loop pass (default 64)\n"
      << "  --snapshot-every N   snapshot after N mutating ops (default 100000; 0 = drain only)\n"
      << "  --fsync              fsync the WAL every batch (power-loss durability). A cell\n"
      << "                       with --data-dir and --fsync or --replica flushes on a\n"
      << "                       flusher thread while its loop computes the next pass\n"
      << "  --fault-schedule S   inject IO faults per the schedule spec (see io_env.hpp);\n"
      << "                       defaults to $PRVM_FAULT_SCHEDULE when set\n"
      << "  --probe-initial-ms N initial storage-probe backoff while degraded (default 100)\n"
      << "  --probe-max-ms N     max storage-probe backoff while degraded (default 5000)\n"
      << "  --metrics-port N     serve Prometheus text exposition on 127.0.0.1:N\n"
      << "                       (0 = ephemeral; the bound port is printed at startup)\n"
      << "  --score-image DIR    serve score tables from read-only mmap images under DIR\n"
      << "                       (default $PRVM_CACHE_DIR or .prvm-cache; built and written\n"
      << "                       on first use, ~0.35 s on 4 CPUs); N cell daemons of one\n"
      << "                       host then share a single physical copy of each table\n"
      << "  --cell-id N          identity within a multi-cell deployment: health reports\n"
      << "                       cell_id N with role \"cell\" (omit for a standalone daemon)\n"
      << "  --replica SPEC       stream the WAL to a follower at unix:PATH or tcp:PORT\n"
      << "                       (repeat once per follower; this daemon becomes a leader)\n"
      << "  --ack-replicas N     hold client acks until N followers confirmed the frames\n"
      << "                       (ack_after_replicated durability; default 0 = best effort)\n"
      << "  --repl-timeout-ms N  follower ack wait before demoting to not_replicated\n"
      << "                       (default 2000)\n"
      << "  --follower           start as a follower: apply the leader's stream, serve\n"
      << "                       reads, reject mutations with not_leader until promoted\n"
      << "  --leader-hint SPEC   leader endpoint advertised in not_leader rejections\n"
      << "  --rebalance          run the online rebalancer: a background planner drains\n"
      << "                       overloaded PMs via WAL-durable internal migrations,\n"
      << "                       fed by `util` protocol samples (DESIGN.md §9)\n"
      << "  --overload F         hottest-dimension utilization above which a PM is\n"
      << "                       drained, and the cap migration destinations must stay\n"
      << "                       under (default 0.9, the simulator's threshold)\n"
      << "  --underload F        consolidate PMs at or below this away entirely\n"
      << "                       (default 0.2; must stay below --overload)\n"
      << "  --rebalance-interval-ms N  planner round cadence (default 1000)\n"
      << "  --max-moves N        migration budget per planner round (default 8)\n"
      << "  --rebalance-cooldown-ms N  per-VM re-migration cooldown (default 5000)\n";
}

/// A numeric flag whose value std::sto* rejected (not a number, or out of
/// range): report it and fail like any other bad invocation.
int bad_number(const char* argv0, const std::string& flag) {
  std::cerr << argv0 << ": bad numeric value for " << flag << "\n";
  usage(argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prvm;
  pin_allocator_thresholds();

  std::string socket_path = "/tmp/prvm.sock";
  bool use_tcp = false;
  int tcp_port = 0;
  std::size_t fleet = 10000;
  std::optional<int> metrics_port;
  ServiceConfig config;
  config.snapshot_every_ops = 100000;
  std::filesystem::path score_image_dir = default_cache_dir();
  const char* env_schedule = std::getenv("PRVM_FAULT_SCHEDULE");
  std::string fault_schedule = env_schedule != nullptr ? env_schedule : "";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        socket_path = value();
        use_tcp = false;
      } else if (arg == "--port") {
        tcp_port = parse_port(value()).value_or(-1);
        if (tcp_port < 0) return bad_number(argv[0], arg);
        use_tcp = true;
      } else if (arg == "--fleet") {
        fleet = static_cast<std::size_t>(std::stoull(value()));
      } else if (arg == "--data-dir") {
        config.data_dir = value();
      } else if (arg == "--batch") {
        config.batch_size = static_cast<std::size_t>(std::stoull(value()));
      } else if (arg == "--snapshot-every") {
        config.snapshot_every_ops = std::stoull(value());
      } else if (arg == "--fsync") {
        config.fsync_wal = true;
      } else if (arg == "--fault-schedule") {
        fault_schedule = value();
      } else if (arg == "--probe-initial-ms") {
        config.probe_initial_ms = std::stoull(value());
      } else if (arg == "--probe-max-ms") {
        config.probe_max_ms = std::stoull(value());
      } else if (arg == "--score-image") {
        score_image_dir = value();
      } else if (arg == "--cell-id") {
        config.cell_id = std::stoull(value());
      } else if (arg == "--replica") {
        config.repl.replicas.push_back(value());
        if (!parse_endpoint(config.repl.replicas.back()).has_value()) {
          std::cerr << "prvm_serve: bad --replica spec '" << config.repl.replicas.back()
                    << "' (want unix:PATH or tcp:PORT)\n";
          usage(argv[0]);
          return 2;
        }
      } else if (arg == "--ack-replicas") {
        config.repl.ack_replicas = static_cast<std::size_t>(std::stoull(value()));
      } else if (arg == "--repl-timeout-ms") {
        config.repl.ack_timeout_ms = std::stoull(value());
      } else if (arg == "--follower") {
        config.repl.follower = true;
      } else if (arg == "--leader-hint") {
        config.repl.leader_hint = value();
      } else if (arg == "--rebalance") {
        config.rebalance.enabled = true;
      } else if (arg == "--overload") {
        config.rebalance.overload_threshold = std::stod(value());
      } else if (arg == "--underload") {
        config.rebalance.underload_threshold = std::stod(value());
      } else if (arg == "--rebalance-interval-ms") {
        config.rebalance.interval_ms = std::stoull(value());
      } else if (arg == "--max-moves") {
        config.rebalance.max_moves_per_round = static_cast<std::size_t>(std::stoull(value()));
      } else if (arg == "--rebalance-cooldown-ms") {
        config.rebalance.cooldown_ms = std::stoull(value());
      } else if (arg == "--metrics-port") {
        metrics_port = parse_port(value());
        if (!metrics_port.has_value()) return bad_number(argv[0], arg);
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        usage(argv[0]);
        return 2;
      }
    } catch (const std::invalid_argument&) {
      return bad_number(argv[0], arg);
    } catch (const std::out_of_range&) {
      return bad_number(argv[0], arg);
    }
  }

  try {
    // One registry for the whole process: service pipeline, engine,
    // instrumented IO and the score-table loader all report here, and both
    // exposition paths (metrics op, Prometheus listener) render it.
    config.metrics = obs::global_registry_ptr();
    if (!fault_schedule.empty()) {
      config.io_env = io_env_from_spec(fault_schedule);
      std::cout << "prvm_serve: FAULT INJECTION ACTIVE: " << fault_schedule << std::endl;
    }
    const Catalog catalog = ec2_sim_catalog();
    // Score tables are served from mmap-shared read-only images, so a warm
    // directory skips the table build and N cell daemons on one host keep a
    // single physical copy. The default directory is the experiment
    // harness's (see Ec2ExperimentConfig::cache_dir).
    ScoreImageReport report;
    const auto tables = std::make_shared<const ScoreTableSet>(
        build_score_tables(catalog, {}, score_image_dir, &report));
    std::cout << "prvm_serve: score tables from image dir " << score_image_dir << " ("
              << report.mapped << " mapped, " << report.written << " written";
    if (report.fallback > 0) {
      std::cout << ", " << report.fallback << " FELL BACK to private memory";
    }
    std::cout << ")\n";
    // Where a cold start spent its time (nothing when no table was built).
    if (const std::string split = score_table_build_split(); !split.empty()) {
      std::cout << "prvm_serve: score-table build: " << split << "\n";
    }

    PlacementService service(catalog, mixed_pm_fleet(catalog, fleet), tables, config);
    const ServiceStats boot = service.stats();
    if (boot.recovered) {
      std::cout << "prvm_serve: recovered " << service.datacenter().vm_count()
                << " VMs on " << service.datacenter().used_count() << " used PMs ("
                << boot.replayed_records << " WAL records replayed"
                << (boot.wal_torn_tail ? ", torn tail discarded" : "") << ")\n";
    }
    service.start();
    if (config.repl.follower) {
      std::cout << "prvm_serve: FOLLOWER (mutations rejected with not_leader"
                << (config.repl.leader_hint.empty()
                        ? std::string()
                        : ", leader hint " + config.repl.leader_hint)
                << ")\n";
    } else if (!config.repl.replicas.empty()) {
      std::cout << "prvm_serve: LEADER replicating to " << config.repl.replicas.size()
                << " follower(s), ack_replicas=" << config.repl.ack_replicas << "\n";
    }
    if (config.rebalance.enabled) {
      std::cout << "prvm_serve: REBALANCER on (overload "
                << config.rebalance.overload_threshold << ", underload "
                << config.rebalance.underload_threshold << ", every "
                << config.rebalance.interval_ms << " ms, max "
                << config.rebalance.max_moves_per_round << " moves/round)\n";
    }

    SocketServerConfig socket_config;
    if (use_tcp) {
      socket_config.tcp_port = tcp_port;
    } else {
      socket_config.unix_path = socket_path;
    }
    // A follower's inbound stream carries repl_snap / repl_frames frames of
    // up to 1 MiB of raw bytes, far larger than client requests; raise the
    // per-connection frame cap.
    if (config.repl.follower) socket_config.max_frame = kMaxReplFrameBytes;
    CellServer server(service, socket_config);
    server.start();
    if (use_tcp) {
      std::cout << "prvm_serve: listening on 127.0.0.1:" << server.port() << std::endl;
    } else {
      std::cout << "prvm_serve: listening on " << socket_path << std::endl;
    }

    std::unique_ptr<obs::ExpositionServer> exposition;
    if (metrics_port.has_value()) {
      exposition = std::make_unique<obs::ExpositionServer>(
          [&service] {
            service.refresh_memory_gauges();
            return obs::Registry::global().render_prometheus();
          },
          *metrics_port);
      exposition->start();
      std::cout << "prvm_serve: metrics on 127.0.0.1:" << exposition->port() << std::endl;
    }

    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGUSR1, handle_usr1);
    while (g_shutdown == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (g_dump_metrics != 0) {
        g_dump_metrics = 0;
        service.refresh_memory_gauges();
        std::cout << obs::Registry::global().render_prometheus() << std::flush;
      }
    }

    std::cout << "prvm_serve: draining..." << std::endl;
    server.stop();      // no new requests
    service.drain();    // flush the inbox, final snapshot, truncate WAL
    const ServiceStats stats = service.stats();
    std::cout << "prvm_serve: drained at op_seq " << stats.op_seq << " ("
              << stats.placed << " placed, " << stats.released << " released, "
              << stats.migrated << " migrated)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "prvm_serve: fatal: " << e.what() << "\n";
    return 1;
  }
}
