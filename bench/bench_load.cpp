// Multi-user interactive load harness with SLO gating.
//
// Drives N simulated analysts (closed-loop, seeded mixed scenario: browse ->
// session -> stage dataset + PawScript -> run -> live-poll /status ->
// hot-reload -> close) against a real in-process site — the same ManagerNode,
// HTTP/SOAP + RPC servers and analysis engines production code runs — then
// gates the run on bench/slo.json: client-side per-step p50/p95/p99, the
// server's six-phase histograms scraped from GET /metrics, and scenario-level
// failure/degradation rates. Exit code 1 on any violation.
//
// Soak mode (--soak) re-homes the site's RPC fabric onto the chaos transport
// (drop/delay/disconnect faults), turning graceful degradation into a gated
// property via the soak profiles' looser allowances.
//
//   bench_load --users 256 --profile interactive
//   bench_load --users 16 --iterations 1 --profile smoke --seed 2006
//   bench_load --users 12 --soak --profile soak_smoke
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "client/grid_client.hpp"
#include "common/rng.hpp"
#include "http/http.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/promparse.hpp"
#include "loadgen/scenario.hpp"
#include "loadgen/slo.hpp"
#include "physics/event_gen.hpp"
#include "services/manager.hpp"

#ifndef IPA_SLO_DEFAULT
#define IPA_SLO_DEFAULT "bench/slo.json"
#endif

namespace {

using namespace ipa;

struct Flags {
  int users = 256;
  int iterations = 1;
  int drivers = 8;
  int nodes = 1;
  int records = 1500;
  std::uint64_t seed = 2006;
  double duration_s = 600;
  double think_s = 0.05;
  double poll_interval_s = 0.02;
  std::string profile = "interactive";
  std::string slo_path = IPA_SLO_DEFAULT;
  std::string report_path;
  bool soak = false;
  std::string chaos =
      "seed=7&drop=0.02&delay_p=0.05&delay_ms=5&disconnect=0.02&half_open=0.005";
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--users N] [--iterations N] [--drivers N] [--nodes N]\n"
               "          [--records N] [--seed S] [--duration SECONDS]\n"
               "          [--think S] [--poll-interval S]\n"
               "          [--profile NAME] [--slo PATH] [--report PATH]\n"
               "          [--soak] [--chaos QUERY]\n",
               argv0);
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--soak") {
      flags.soak = true;
    } else if (arg == "--users" && (value = next())) {
      flags.users = std::atoi(value);
    } else if (arg == "--iterations" && (value = next())) {
      flags.iterations = std::atoi(value);
    } else if (arg == "--drivers" && (value = next())) {
      flags.drivers = std::atoi(value);
    } else if (arg == "--nodes" && (value = next())) {
      flags.nodes = std::atoi(value);
    } else if (arg == "--records" && (value = next())) {
      flags.records = std::atoi(value);
    } else if (arg == "--seed" && (value = next())) {
      flags.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--duration" && (value = next())) {
      flags.duration_s = std::atof(value);
    } else if (arg == "--think" && (value = next())) {
      flags.think_s = std::atof(value);
    } else if (arg == "--poll-interval" && (value = next())) {
      flags.poll_interval_s = std::atof(value);
    } else if (arg == "--profile" && (value = next())) {
      flags.profile = value;
    } else if (arg == "--slo" && (value = next())) {
      flags.slo_path = value;
    } else if (arg == "--report" && (value = next())) {
      flags.report_path = value;
    } else if (arg == "--chaos" && (value = next())) {
      flags.chaos = value;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (flags.users < 1 || flags.iterations < 1 || flags.drivers < 1 || flags.nodes < 1) {
    std::fprintf(stderr, "bench_load: --users/--iterations/--drivers/--nodes must be >= 1\n");
    return false;
  }
  return true;
}

// The hot-reload target: a cheaper second-pass analysis, as an analyst would
// iterate after a first look at the spectrum.
const char* kReloadScript = R"paw(
func begin(tree) {
  tree.book_h1("/v2/ntrk", 30, 0, 60, "candidate multiplicity v2");
}
func process(event, tree) {
  tree.fill("/v2/ntrk", len(event.get("px")));
}
)paw";

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return not_found("bench_load: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) return 2;

  // Load + parse the SLO profile up front: a typo'd profile name should
  // fail in seconds, not after a multi-minute run.
  auto slo_text = read_file(flags.slo_path);
  if (!slo_text.is_ok()) {
    std::fprintf(stderr, "%s\n", slo_text.status().to_string().c_str());
    return 2;
  }
  auto slo_doc = loadgen::Json::parse(*slo_text);
  if (!slo_doc.is_ok()) {
    std::fprintf(stderr, "bench_load: %s: %s\n", flags.slo_path.c_str(),
                 slo_doc.status().to_string().c_str());
    return 2;
  }
  auto profile = loadgen::parse_profile(*slo_doc, flags.profile);
  if (!profile.is_ok()) {
    std::fprintf(stderr, "bench_load: %s\n", profile.status().to_string().c_str());
    return 2;
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ipa-load-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};

  const std::string dataset_path = (dir / "load.ipd").string();
  auto dataset = physics::generate_dataset(dataset_path, "load",
                                           static_cast<std::uint64_t>(flags.records),
                                           {}, flags.seed);
  if (!dataset.is_ok()) {
    std::fprintf(stderr, "bench_load: dataset: %s\n", dataset.status().to_string().c_str());
    return 2;
  }

  services::ManagerConfig config;
  config.staging_dir = (dir / "staging").string();
  // The HTTP/SOAP side rides the epoll reactor: open keep-alive connections
  // cost no worker, so the pool is a small fixed CPU-bound dispatch crew no
  // matter how many users hold sockets. Only the queue still scales — a
  // poll burst from every user at once must be absorbed, not 503'd.
  config.soap_pool.max_workers = 16;
  config.soap_pool.queue_capacity = static_cast<std::size_t>(flags.users) * 2 + 64;
  // The engine RPC fabric rides a reactor too, so it gets the same fixed
  // crew. Its queue absorbs two calls in flight on every live channel at
  // once: each engine heartbeats and pushes, each user polls.
  config.rpc_pool.max_workers = 16;
  config.rpc_pool.queue_capacity =
      static_cast<std::size_t>(flags.users) * (static_cast<std::size_t>(flags.nodes) + 1) * 2 +
      64;
  // One physical core serves hundreds of threads here: generous liveness
  // windows keep scheduling hiccups from being misread as dead engines.
  config.heartbeat_interval_s = 0.25;
  config.heartbeat_timeout_s = 20.0;
  config.monitor_interval_s = 1.0;
  config.engine_config.snapshot_every = 256;
  if (flags.soak) {
    // Re-home the whole RPC fabric (engine links, heartbeats, result
    // polling) onto the fault-injecting transport. Endpoint construction is
    // all it takes: every dial through this URI gets a seeded fault stream.
    auto chaos = Uri::parse("chaos+inproc://load-soak?" + flags.chaos);
    if (!chaos.is_ok()) {
      std::fprintf(stderr, "bench_load: --chaos: %s\n", chaos.status().to_string().c_str());
      return 2;
    }
    config.rpc_endpoint = *chaos;
  }

  auto manager = services::ManagerNode::start(std::move(config));
  if (!manager.is_ok()) {
    std::fprintf(stderr, "bench_load: manager: %s\n", manager.status().to_string().c_str());
    return 2;
  }
  const Status published = (*manager)->publish_dataset(
      "lc/load", "ds-load", {{"experiment", "LC"}, {"purpose", "load"}}, dataset_path);
  if (!published.is_ok()) {
    std::fprintf(stderr, "bench_load: publish: %s\n", published.to_string().c_str());
    return 2;
  }

  const std::string base = (*manager)->authority().issue("cn=load", {"analysis"}, 7200);
  auto proxy = client::make_proxy((*manager)->authority(), base, 7200);
  if (!proxy.is_ok()) {
    std::fprintf(stderr, "bench_load: proxy: %s\n", proxy.status().to_string().c_str());
    return 2;
  }

  loadgen::ScenarioOptions scenario;
  scenario.catalog_path = "lc";  // folder holding the published lc/load node
  scenario.dataset_id = "ds-load";
  scenario.nodes_per_session = flags.nodes;
  scenario.iterations = flags.iterations;
  scenario.think_time_s = flags.think_s;
  scenario.poll_interval_s = flags.poll_interval_s;
  scenario.script_v1 = physics::higgs_script();
  scenario.script_v2 = kReloadScript;

  Rng seeder(flags.seed);
  std::vector<std::unique_ptr<loadgen::SimulatedUser>> users;
  users.reserve(static_cast<std::size_t>(flags.users));
  for (int i = 0; i < flags.users; ++i) {
    users.push_back(std::make_unique<loadgen::SimulatedUser>(
        i, (*manager)->soap_endpoint(), *proxy, scenario, seeder.next()));
  }

  loadgen::DriverOptions driver_options;
  driver_options.driver_threads = flags.drivers;
  driver_options.max_duration_s = flags.duration_s;
  loadgen::LoadDriver driver(driver_options, std::move(users));

  std::printf("bench_load: %d users x %d iterations, %d driver threads, seed %llu%s\n",
              flags.users, flags.iterations, flags.drivers,
              static_cast<unsigned long long>(flags.seed),
              flags.soak ? " [soak: chaos rpc fabric]" : "");
  const loadgen::LoadReport report = driver.run();

  // Final /metrics scrape: the server-side half of the SLO evidence, plus
  // the contention diagnostics (queue delay, lock waits) for the report.
  loadgen::ServerScrape scrape;
  const Uri soap = (*manager)->soap_endpoint();
  auto scraper = http::Client::connect(soap.host, soap.port, 10.0);
  if (scraper.is_ok()) {
    auto metrics = scraper->get("/metrics", 30.0);
    if (metrics.is_ok() && metrics->status == 200) {
      scrape = loadgen::parse_server_scrape(metrics->body);
    } else {
      std::fprintf(stderr, "bench_load: /metrics scrape failed%s\n",
                   metrics.is_ok() ? (" (status " + std::to_string(metrics->status) + ")").c_str()
                                   : metrics.status().to_string().c_str());
    }
  }

  const loadgen::SloResult verdict = loadgen::evaluate(*profile, report, scrape);
  std::fputs(loadgen::render_report_text(*profile, report, scrape, verdict).c_str(), stdout);

  if (!flags.report_path.empty()) {
    std::ofstream out(flags.report_path, std::ios::binary);
    out << loadgen::render_report_json(*profile, report, scrape, verdict);
    if (!out) {
      std::fprintf(stderr, "bench_load: cannot write %s\n", flags.report_path.c_str());
    }
  }

  (*manager)->stop();
  return verdict.ok() ? 0 : 1;
}
