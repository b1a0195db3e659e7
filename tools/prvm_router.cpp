// prvm_router — the routing tier of a sharded placement deployment.
//
// Listens on the same JSON-lines protocol as prvm_serve and fans requests
// out to N placement cells (DESIGN.md §7): hash routing with capacity
// spillover for every placement (each cell's admission enforces
// anti-collocation groups over its own PMs), and fan-out merges for
// stats/health/drain. Clients cannot tell a router from a single-cell
// daemon.
//
// Each cell is a prvm_serve daemon started with --cell-id K, added with
// --cell unix:/path/to/cell.sock or --cell tcp:PORT in cell-id order; the
// router speaks PRVB1 to it.
//
//   prvm_router --socket /tmp/prvm.sock --cell unix:/tmp/c0.sock --cell unix:/tmp/c1.sock
//
// SIGTERM/SIGINT drain: stop accepting and save the vm map. The cells are
// drained by their own daemons.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "router/cell_channel.hpp"
#include "router/router.hpp"
#include "service/socket_server.hpp"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void handle_signal(int) { g_shutdown = 1; }

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --socket PATH        listen on a Unix-domain socket (default /tmp/prvm.sock)\n"
      << "  --port N             listen on loopback TCP instead (0 = ephemeral)\n"
      << "  --cell SPEC          add a remote cell, spoken to in PRVB1: unix:/path.sock or\n"
      << "                       tcp:PORT (repeat once per cell, in cell-id order); a comma-\n"
      << "                       separated list (leader,replica,...) enables failover:\n"
      << "                       on leader loss the next reachable endpoint is promoted.\n"
      << "                       At least one --cell is required\n"
      << "  --metrics-port N     serve the router registry as Prometheus text on 127.0.0.1:N\n"
      << "  --retry-attempts N   re-submits after cell_unreachable (default 2; each retry\n"
      << "                       re-enters the channel, where failover happens)\n"
      << "  --retry-backoff-ms X linear backoff base between retries (default 25)\n"
      << "  --map-file PATH      persist the vm->cell map: loaded and compacted at startup,\n"
      << "                       saved every --map-save-s seconds and on drain; placements\n"
      << "                       that spill off their hash cell are journaled to it as\n"
      << "                       they happen\n"
      << "  --map-save-s N       periodic map save interval (default 30)\n";
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

  std::string socket_path = "/tmp/prvm.sock";
  bool use_tcp = false;
  int tcp_port = 0;
  std::vector<std::vector<std::string>> cells;  ///< per --cell: its endpoints, leader first
  std::optional<int> metrics_port;
  RouterConfig router_config;
  std::optional<std::filesystem::path> map_file;
  unsigned map_save_s = 30;

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
      } else if (arg == "--cell") {
        // "leader,replica,..." lists one cell's failover endpoints.
        const std::string spec = value();
        std::vector<std::string>& endpoints = cells.emplace_back();
        for (std::size_t start = 0; start <= spec.size();) {
          const std::size_t comma = std::min(spec.find(',', start), spec.size());
          endpoints.push_back(spec.substr(start, comma - start));
          if (!parse_endpoint(endpoints.back()).has_value()) {
            std::cerr << "prvm_router: bad --cell spec '" << spec
                      << "' (want unix:PATH or tcp:PORT, comma-separated for failover)\n";
            usage(argv[0]);
            return 2;
          }
          start = comma + 1;
        }
      } else if (arg == "--metrics-port") {
        metrics_port = parse_port(value());
        if (!metrics_port.has_value()) return bad_number(argv[0], arg);
      } else if (arg == "--retry-attempts") {
        router_config.retry_attempts = static_cast<std::size_t>(std::stoull(value()));
      } else if (arg == "--retry-backoff-ms") {
        router_config.retry_backoff_ms = std::stod(value());
      } else if (arg == "--map-file") {
        map_file = value();
      } else if (arg == "--map-save-s") {
        map_save_s = static_cast<unsigned>(std::stoul(value()));
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
  if (cells.empty()) {
    std::cerr << "prvm_router: at least one --cell is required\n";
    usage(argv[0]);
    return 2;
  }

  try {
    std::vector<std::unique_ptr<RequestSink>> channels;
    std::vector<RequestSink*> sinks;
    for (std::vector<std::string>& endpoints : cells) {
      // A failover list builds a failover channel; a single endpoint keeps
      // the plain pipelined channel (no health qualification).
      if (endpoints.size() > 1) {
        FailoverCellChannel::Config failover;
        failover.metrics = &obs::Registry::global();
        failover.endpoints = std::move(endpoints);
        channels.push_back(std::make_unique<FailoverCellChannel>(std::move(failover)));
      } else {
        channels.push_back(std::make_unique<SocketCellChannel>(endpoints.front()));
      }
      sinks.push_back(channels.back().get());
    }
    std::cout << "prvm_router: " << sinks.size() << " remote cells\n";

    router_config.metrics = obs::global_registry_ptr();
    Router router(std::move(sinks), router_config);
    if (map_file.has_value()) {
      if (router.load_vm_map(*map_file)) {
        std::cout << "prvm_router: loaded vm map (" << router.vm_map_size()
                  << " entries) from " << *map_file << "\n";
      }
      // Compacts the loaded journal and starts journaling spills to the file.
      if (!router.save_vm_map(*map_file)) {
        std::cerr << "prvm_router: cannot write vm map " << *map_file << "\n";
        return 1;
      }
    }

    SocketServerConfig socket_config;
    if (use_tcp) {
      socket_config.tcp_port = tcp_port;
    } else {
      socket_config.unix_path = socket_path;
    }
    SocketServer server(router, socket_config);
    server.start();
    if (use_tcp) {
      std::cout << "prvm_router: listening on 127.0.0.1:" << server.port()
                << std::endl;
    } else {
      std::cout << "prvm_router: listening on " << socket_path << std::endl;
    }

    std::unique_ptr<obs::ExpositionServer> exposition;
    if (metrics_port.has_value()) {
      exposition = std::make_unique<obs::ExpositionServer>(
          [] { return obs::Registry::global().render_prometheus(); }, *metrics_port);
      exposition->start();
      std::cout << "prvm_router: metrics on 127.0.0.1:" << exposition->port()
                << std::endl;
    }

    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    auto next_map_save =
        std::chrono::steady_clock::now() + std::chrono::seconds(map_save_s);
    while (g_shutdown == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (map_file.has_value() && map_save_s > 0 &&
          std::chrono::steady_clock::now() >= next_map_save) {
        next_map_save += std::chrono::seconds(map_save_s);
        router.save_vm_map(*map_file);
      }
    }

    std::cout << "prvm_router: draining..." << std::endl;
    server.stop();  // no new client requests
    if (map_file.has_value() && router.save_vm_map(*map_file)) {
      std::cout << "prvm_router: saved vm map (" << router.vm_map_size()
                << " entries) to " << *map_file << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "prvm_router: fatal: " << e.what() << "\n";
    return 1;
  }
}
