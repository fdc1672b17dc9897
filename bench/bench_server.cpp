// Server-core capacity gate: proves the epoll reactor removed the
// thread-per-connection wall.
//
// Phase "baseline" measures HTTP keep-alive latency with as many concurrent
// clients as the worker pool has threads — the old architecture's ceiling,
// where every open socket cost a dedicated thread. Phase "capacity" then
// parks a crowd of idle keep-alive connections on the same server (each
// costs the reactor a few KB, never a thread) and re-measures the active
// clients' latency through the crowd. Phase "mux" drives concurrent RPC
// calls through ONE multiplexed TCP connection.
//
// Gates (exit 1 on violation, --no-gate to just measure):
//   - held open connections >= 10x the worker-pool thread count
//   - active p99 with the idle crowd parked <= max(2x baseline, +5ms)
//
//   bench_server                      # full run (~8k connections)
//   bench_server --conns 512 --requests 200   # ctest smoke tier
//   bench_server --out results.json   # google-benchmark-style JSON for
//                                     # tools/bench_diff.py gating
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "http/http.hpp"
#include "net/worker_pool.hpp"
#include "rpc/rpc.hpp"

namespace {

using namespace ipa;

struct Flags {
  int conns = 8192;     // idle keep-alive crowd (clamped to the fd limit)
  int active = 0;       // active clients; 0 = same as workers
  int workers = 16;     // dispatch pool cap (max_workers) = old per-connection ceiling
  int requests = 2000;  // requests per active client per phase
  int rpc_threads = 8;  // concurrent callers sharing one mux connection
  std::string out_path;
  bool gate = true;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--conns N] [--active N] [--workers N] [--requests N]\n"
               "          [--rpc-threads N] [--out FILE] [--no-gate]\n",
               argv0);
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--no-gate") {
      flags.gate = false;
    } else if (arg == "--conns" && (value = next())) {
      flags.conns = std::atoi(value);
    } else if (arg == "--active" && (value = next())) {
      flags.active = std::atoi(value);
    } else if (arg == "--workers" && (value = next())) {
      flags.workers = std::atoi(value);
    } else if (arg == "--requests" && (value = next())) {
      flags.requests = std::atoi(value);
    } else if (arg == "--rpc-threads" && (value = next())) {
      flags.rpc_threads = std::atoi(value);
    } else if (arg == "--out" && (value = next())) {
      flags.out_path = value;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (flags.conns < 1 || flags.workers < 1 || flags.requests < 1 || flags.rpc_threads < 1) {
    std::fprintf(stderr, "bench_server: counts must be >= 1\n");
    return false;
  }
  if (flags.active <= 0) flags.active = flags.workers;
  return true;
}

/// Raise the fd soft limit to the hard limit and clamp the idle-connection
/// crowd so client+server fd pairs (2 per connection, in one process) plus
/// slack never exhaust it.
int clamp_to_fd_limit(int requested) {
  struct rlimit lim = {};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return std::min(requested, 1024);
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
    (void)::getrlimit(RLIMIT_NOFILE, &lim);
  }
  const long budget = (static_cast<long>(lim.rlim_cur) - 200) / 2;
  return static_cast<int>(std::min<long>(requested, std::max(budget, 1L)));
}

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
  double rps = 0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

/// `active` blocking keep-alive clients each issue `requests` GETs; returns
/// pooled client-observed latency percentiles and aggregate throughput.
LatencyStats run_http_clients(const Uri& bound, int active, int requests, bool& ok) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(active));
  std::atomic<int> failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < active; ++c) {
      threads.emplace_back([&, c] {
        auto client = http::Client::connect(bound.host, bound.port);
        if (!client.is_ok()) {
          failures += requests;
          return;
        }
        auto& samples = lat[static_cast<std::size_t>(c)];
        samples.reserve(static_cast<std::size_t>(requests));
        for (int r = 0; r < requests; ++r) {
          const auto start = std::chrono::steady_clock::now();
          auto resp = client->get("/ping");
          const auto end = std::chrono::steady_clock::now();
          if (!resp.is_ok() || resp->status != 200) {
            ++failures;
            continue;
          }
          samples.push_back(
              std::chrono::duration<double, std::micro>(end - start).count());
        }
      });
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<double> pooled;
  for (auto& samples : lat) pooled.insert(pooled.end(), samples.begin(), samples.end());
  std::sort(pooled.begin(), pooled.end());
  ok = failures.load() == 0 && !pooled.empty();
  LatencyStats stats;
  stats.p50_us = percentile(pooled, 0.50);
  stats.p99_us = percentile(pooled, 0.99);
  stats.rps = wall > 0 ? static_cast<double>(pooled.size()) / wall : 0;
  return stats;
}

struct JsonBench {
  std::string name;
  double items_per_second;
};

void write_json(const std::string& path, const std::vector<JsonBench>& benches) {
  std::ofstream out(path);
  out << "{\n  \"context\": {\"executable\": \"bench_server\"},\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    out << "    {\"name\": \"" << benches[i].name << "\", \"run_type\": \"iteration\", "
        << "\"items_per_second\": " << benches[i].items_per_second << "}"
        << (i + 1 < benches.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) return 2;
  flags.conns = clamp_to_fd_limit(flags.conns);

  net::ServerPoolOptions pool;
  pool.max_workers = static_cast<std::size_t>(flags.workers);
  pool.queue_capacity = static_cast<std::size_t>(flags.workers) * 16;
  http::Server server("127.0.0.1", 0, pool);
  server.route("/ping", [](const http::Request&) { return http::Response::make(200, "pong"); });
  auto bound = server.start();
  if (!bound.is_ok()) {
    std::fprintf(stderr, "bench_server: start: %s\n", bound.status().to_string().c_str());
    return 1;
  }
  std::printf("bench_server: workers=%d active=%d idle-crowd=%d requests=%d\n",
              flags.workers, flags.active, flags.conns, flags.requests);

  // -- Phase 1: baseline -----------------------------------------------------
  // Active clients == worker threads: exactly the load shape the old
  // thread-per-connection server could sustain at its ceiling.
  bool baseline_ok = false;
  const LatencyStats baseline =
      run_http_clients(*bound, flags.active, flags.requests, baseline_ok);
  std::printf("baseline   : p50 %7.0f us  p99 %7.0f us  %8.0f req/s  (%s)\n",
              baseline.p50_us, baseline.p99_us, baseline.rps,
              baseline_ok ? "ok" : "FAILED");

  // -- Phase 2: capacity -----------------------------------------------------
  // Park the idle crowd. Every connection is a live keep-alive socket the
  // server must track; under thread-per-connection this would need
  // `flags.conns` threads and die at pool size.
  std::vector<http::Client> crowd;
  crowd.reserve(static_cast<std::size_t>(flags.conns));
  const auto t_crowd = std::chrono::steady_clock::now();
  for (int i = 0; i < flags.conns; ++i) {
    auto client = http::Client::connect(bound->host, bound->port);
    if (!client.is_ok()) break;
    crowd.push_back(std::move(*client));
    // One request proves each connection is established end-to-end (not a
    // SYN parked in the backlog) before it goes idle.
    if (i < flags.active) {
      if (!crowd.back().get("/ping").is_ok()) break;
    }
  }
  const double crowd_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_crowd).count();
  // Let the accept loop drain the tail of the backlog before counting.
  const auto count_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t held = 0;
  while (std::chrono::steady_clock::now() < count_deadline) {
    held = server.open_connections();
    if (held >= crowd.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("capacity   : %zu connections held open (opened in %.1fs, %.0f conn/s)\n",
              held, crowd_s, crowd_s > 0 ? static_cast<double>(crowd.size()) / crowd_s : 0);

  bool loaded_ok = false;
  const LatencyStats loaded =
      run_http_clients(*bound, flags.active, flags.requests, loaded_ok);
  std::printf("with-crowd : p50 %7.0f us  p99 %7.0f us  %8.0f req/s  (%s)\n",
              loaded.p50_us, loaded.p99_us, loaded.rps, loaded_ok ? "ok" : "FAILED");
  crowd.clear();

  // -- Phase 3: RPC mux ------------------------------------------------------
  // Concurrent callers share one TCP connection; throughput proves frame
  // interleaving works, the connection count proves it really is one stream.
  Uri rpc_endpoint;
  rpc_endpoint.scheme = "tcp";
  rpc_endpoint.host = "127.0.0.1";
  rpc_endpoint.port = 0;
  rpc::RpcServer rpc_server(rpc_endpoint, pool);
  auto service = std::make_shared<rpc::Service>("Bench");
  service->register_method(
      "echo",
      [](const rpc::CallContext&, const ser::Bytes& in) { return Result<ser::Bytes>(in); },
      /*idempotent=*/true);
  rpc_server.add_service(service);
  auto rpc_bound = rpc_server.start();
  double mux_cps = 0;
  bool mux_ok = false;
  std::size_t mux_conns = 0;
  if (rpc_bound.is_ok()) {
    auto client = rpc::RpcClient::connect(*rpc_bound);
    if (client.is_ok()) {
      const ser::Bytes payload(128, 0x5a);
      std::atomic<int> mux_failures{0};
      const int per_thread = std::max(flags.requests / 2, 100);
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::vector<std::jthread> threads;
        for (int t = 0; t < flags.rpc_threads; ++t) {
          threads.emplace_back([&] {
            for (int i = 0; i < per_thread; ++i) {
              if (!client->call("Bench", "echo", payload, "", 30.0).is_ok()) ++mux_failures;
            }
          });
        }
      }
      mux_conns = rpc_server.active_connections();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      mux_cps = wall > 0
                    ? static_cast<double>(flags.rpc_threads) * per_thread / wall
                    : 0;
      mux_ok = mux_failures.load() == 0 && mux_conns <= 1;
      std::printf("rpc-mux    : %d callers on %zu connection(s), %8.0f calls/s  (%s)\n",
                  flags.rpc_threads, mux_conns, mux_cps, mux_ok ? "ok" : "FAILED");
    }
  }
  rpc_server.stop();
  server.stop();

  if (!flags.out_path.empty()) {
    write_json(flags.out_path,
               {{"ServerCapacity/open_connections", static_cast<double>(held)},
                {"ServerHttp/keepalive_rps", loaded.rps},
                {"ServerMux/calls_per_second", mux_cps}});
  }

  if (!flags.gate) return 0;
  int violations = 0;
  if (!baseline_ok || !loaded_ok || !mux_ok) {
    std::fprintf(stderr, "bench_server: FAIL: a measurement phase had errors\n");
    ++violations;
  }
  const double capacity_ratio =
      static_cast<double>(held) / static_cast<double>(flags.workers);
  if (capacity_ratio < 10.0) {
    std::fprintf(stderr,
                 "bench_server: FAIL: capacity %zu conns / %d workers = %.1fx < 10x\n",
                 held, flags.workers, capacity_ratio);
    ++violations;
  }
  const double p99_budget_us = std::max(baseline.p99_us * 2.0, baseline.p99_us + 5000.0);
  if (loaded.p99_us > p99_budget_us) {
    std::fprintf(stderr,
                 "bench_server: FAIL: p99 with crowd %.0f us > budget %.0f us "
                 "(baseline %.0f us)\n",
                 loaded.p99_us, p99_budget_us, baseline.p99_us);
    ++violations;
  }
  if (violations == 0) {
    std::printf("bench_server: PASS: %.0fx capacity at p99 %+.0f us vs baseline\n",
                capacity_ratio, loaded.p99_us - baseline.p99_us);
    return 0;
  }
  return 1;
}
