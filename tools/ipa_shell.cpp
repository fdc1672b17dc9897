// ipa_shell: interactive command-line client for an IPA grid site — the
// terminal counterpart of the paper's Java Analysis Studio plug-ins.
//
//   ipa_shell --connect http://host:port --token <proxy-token> [--script cmds]
//
// Commands (also `help` inside the shell):
//   browse [path]          list a catalog level
//   search <query>         metadata query ("experiment == 'LC' && size_mb > 10")
//   locate <dataset-id>    resolve a dataset's physical location
//   session <nodes>        create + activate an analysis session
//   select <dataset-id>    locate/split/distribute a dataset to the engines
//   load <file.paw>        stage PawScript analysis code from a file
//   plugin <name>          stage a pre-installed native analyzer
//   run | run <n> | pause | stop | rewind
//   status                 per-engine progress
//   watch                  poll until finished, live progress + histogram list
//   show [path]            print a merged histogram (ASCII)
//   svg <path> <file>      export a merged histogram as SVG
//   close | quit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "client/grid_client.hpp"
#include "common/strings.hpp"
#include "http/http.hpp"
#include "perf/scenario.hpp"
#include "viz/render.hpp"

using namespace ipa;

namespace {

struct Shell {
  std::optional<client::GridClient> grid;
  std::optional<client::GridSession> session;
  aida::Tree latest;
  double staged_mb = 0;  // size of the last staged dataset, for `stats`

  bool require_grid() const {
    if (!grid) std::printf("not connected\n");
    return grid.has_value();
  }
  bool require_session() const {
    if (!session) std::printf("no session (use: session <nodes>)\n");
    return session.has_value();
  }

  void cmd_browse(const std::string& path) {
    if (!require_grid()) return;
    auto listing = grid->browse(path);
    if (!listing.is_ok()) {
      std::printf("error: %s\n", listing.status().to_string().c_str());
      return;
    }
    for (const auto& folder : listing->folders) std::printf("  %s/\n", folder.c_str());
    for (const auto& entry : listing->datasets) {
      std::printf("  %-28s id=%s", entry.path.c_str(), entry.id.c_str());
      const auto records = entry.metadata.find("records");
      if (records != entry.metadata.end()) std::printf("  records=%s", records->second.c_str());
      std::printf("\n");
    }
  }

  void cmd_search(const std::string& query) {
    if (!require_grid()) return;
    auto hits = grid->search(query);
    if (!hits.is_ok()) {
      std::printf("error: %s\n", hits.status().to_string().c_str());
      return;
    }
    for (const auto& entry : *hits) {
      std::printf("  %-28s id=%s\n", entry.path.c_str(), entry.id.c_str());
    }
    std::printf("  (%zu match(es))\n", hits->size());
  }

  void cmd_locate(const std::string& id) {
    if (!require_grid()) return;
    auto location = grid->locate(id);
    if (!location.is_ok()) {
      std::printf("error: %s\n", location.status().to_string().c_str());
      return;
    }
    std::printf("  location: %s\n  splitter: %s\n", location->first.c_str(),
                location->second.c_str());
  }

  void cmd_session(int nodes) {
    if (!require_grid()) return;
    if (session) {
      std::printf("close the current session first\n");
      return;
    }
    auto created = grid->create_session(nodes);
    if (!created.is_ok()) {
      std::printf("error: %s\n", created.status().to_string().c_str());
      return;
    }
    if (Status activated = created->activate(); !activated.is_ok()) {
      std::printf("activate failed: %s\n", activated.to_string().c_str());
      (void)created->close();
      return;
    }
    std::printf("session %s: %d engine(s) ready on queue '%s'\n",
                created->info().session_id.c_str(), created->info().granted_nodes,
                created->info().queue.c_str());
    session.emplace(std::move(*created));
  }

  void cmd_select(const std::string& id) {
    if (!require_session()) return;
    auto staged = session->select_dataset(id);
    if (!staged.is_ok()) {
      std::printf("error: %s\n", staged.status().to_string().c_str());
      return;
    }
    std::printf("staged %llu records (%s) as %d part(s)\n",
                static_cast<unsigned long long>(staged->records),
                strings::human_bytes(staged->bytes).c_str(), staged->parts);
    staged_mb = static_cast<double>(staged->bytes) / (1024.0 * 1024.0);
  }

  void cmd_load(const std::string& file) {
    if (!require_session()) return;
    std::ifstream in(file);
    if (!in) {
      std::printf("cannot read %s\n", file.c_str());
      return;
    }
    std::ostringstream source;
    source << in.rdbuf();
    const Status staged = session->stage_script(file, source.str());
    if (!staged.is_ok()) {
      std::printf("stage failed: %s\n", staged.to_string().c_str());
      return;
    }
    std::printf("staged %zu bytes of PawScript to every engine\n", source.str().size());
  }

  void cmd_plugin(const std::string& name) {
    if (!require_session()) return;
    const Status staged = session->stage_plugin(name);
    std::printf("%s\n", staged.is_ok() ? "plugin staged" : staged.to_string().c_str());
  }

  void cmd_control(const std::string& verb, std::uint64_t n) {
    if (!require_session()) return;
    Status status;
    if (verb == "run" && n > 0) status = session->run_records(n);
    else if (verb == "run") status = session->run();
    else if (verb == "pause") status = session->pause();
    else if (verb == "stop") status = session->stop();
    else status = session->rewind();
    std::printf("%s\n", status.is_ok() ? "ok" : status.to_string().c_str());
  }

  void cmd_status() {
    if (!require_session()) return;
    auto update = session->poll();
    if (!update.is_ok()) {
      std::printf("error: %s\n", update.status().to_string().c_str());
      return;
    }
    if (update->changed) latest = std::move(update->merged);
    for (const auto& report : update->engines) {
      std::printf("  %-24s %-9s %s\n", report.engine_id.c_str(),
                  std::string(engine::to_string(report.state)).c_str(),
                  viz::ascii_progress(report.processed, report.total).c_str());
      if (!report.error.empty()) std::printf("    error: %s\n", report.error.c_str());
    }
    if (update->engines.empty()) std::printf("  (no engine reports yet)\n");
  }

  void cmd_watch() {
    if (!require_session()) return;
    const std::size_t expected =
        static_cast<std::size_t>(session->info().granted_nodes);
    while (true) {
      auto update = session->poll();
      if (!update.is_ok()) {
        std::printf("error: %s\n", update.status().to_string().c_str());
        return;
      }
      if (update->changed) latest = std::move(update->merged);
      std::printf("\r  %s", viz::ascii_progress(update->total_processed(),
                                                update->total_records())
                                .c_str());
      std::fflush(stdout);
      if (update->all_engines_done(expected)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("\nmerged objects:\n");
    for (const auto& path : latest.paths()) std::printf("  %s\n", path.c_str());
  }

  void cmd_show(const std::string& path) {
    refresh();
    if (path.empty()) {
      for (const auto& p : latest.paths()) std::printf("  %s\n", p.c_str());
      return;
    }
    auto hist = latest.histogram1d(path);
    if (!hist.is_ok()) {
      std::printf("error: %s\n", hist.status().to_string().c_str());
      return;
    }
    std::printf("%s\n", viz::ascii_histogram(**hist).c_str());
  }

  void cmd_svg(const std::string& path, const std::string& file) {
    refresh();
    auto hist = latest.histogram1d(path);
    if (!hist.is_ok()) {
      std::printf("error: %s\n", hist.status().to_string().c_str());
      return;
    }
    const Status written = viz::write_file(file, viz::svg_histogram(**hist));
    std::printf("%s\n", written.is_ok() ? ("wrote " + file).c_str()
                                        : written.to_string().c_str());
  }

  void cmd_stats() {
    if (!require_session()) return;
    // The site serves live phase timings on the same HTTP listener as its
    // web services.
    const Uri& endpoint = grid->soap_endpoint();
    auto http = http::Client::connect(endpoint.host, endpoint.port);
    if (!http.is_ok()) {
      std::printf("error: %s\n", http.status().to_string().c_str());
      return;
    }
    auto response = http->get("/status?session=" + session->info().session_id);
    if (!response.is_ok() || response->status != 200) {
      std::printf("error: /status %s\n", response.is_ok()
                                             ? std::to_string(response->status).c_str()
                                             : response.status().to_string().c_str());
      return;
    }
    const auto phase_of = [&response](const char* name) {
      const std::string needle = strings::format("\"%s\":", name);
      const std::size_t at = response->body.find(needle);
      return at == std::string::npos
                 ? 0.0
                 : std::strtod(response->body.c_str() + at + needle.size(), nullptr);
    };

    const perf::ScenarioTimings model = perf::ScenarioTimings::paper_prediction(
        staged_mb, session->info().granted_nodes);
    const double model_phases[6] = {model.locate_s, model.split_s,  model.transfer_s,
                                    model.code_stage_s, model.run_s, model.merge_s};
    std::printf("  %-12s %12s %14s\n", "phase", "live (s)", "paper model (s)");
    double live_total = 0;
    for (int i = 0; i < 6; ++i) {
      const double live = phase_of(perf::ScenarioTimings::kPhaseNames[i]);
      live_total += live;
      std::printf("  %-12s %12.4f %14.4f\n", perf::ScenarioTimings::kPhaseNames[i], live,
                  model_phases[i]);
    }
    std::printf("  %-12s %12.4f %14.4f\n", "total", live_total, model.total_s());
    std::printf("  (model: %.1f MB dataset on %d node(s); live merge accrues per poll)\n",
                staged_mb, session->info().granted_nodes);
  }

  void cmd_close() {
    if (!session) return;
    (void)session->close();
    session.reset();
    latest.clear();
    std::printf("session closed\n");
  }

  void refresh() {
    if (!session) return;
    auto update = session->poll();
    if (update.is_ok() && update->changed) latest = std::move(update->merged);
  }
};

const char* kHelp = R"(commands:
  browse [path]       search <query>      locate <id>
  session <nodes>     select <id>         load <file.paw>     plugin <name>
  run | run <n>       pause | stop | rewind
  status | watch      show [path]         svg <path> <file>
  stats               live phase timings vs the paper's cost model
  close               quit
)";

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint_text, token, command_script;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--connect") endpoint_text = next();
    else if (arg == "--token") token = next();
    else if (arg == "--script") command_script = next();
    else {
      std::fprintf(stderr, "unknown flag %s\n%s", arg.c_str(), kHelp);
      return 2;
    }
  }
  if (endpoint_text.empty() || token.empty()) {
    std::fprintf(stderr, "usage: ipa_shell --connect http://host:port --token <proxy>\n");
    return 2;
  }

  auto endpoint = Uri::parse(endpoint_text);
  if (!endpoint.is_ok()) {
    std::fprintf(stderr, "bad endpoint: %s\n", endpoint.status().to_string().c_str());
    return 2;
  }
  Shell shell;
  auto grid = client::GridClient::connect(*endpoint, token);
  if (!grid.is_ok()) {
    std::fprintf(stderr, "connect: %s\n", grid.status().to_string().c_str());
    return 1;
  }
  shell.grid.emplace(std::move(*grid));
  std::printf("connected to %s\n", endpoint_text.c_str());

  std::istringstream scripted(command_script);
  std::istream& input = command_script.empty() ? std::cin : scripted;
  const bool interactive = command_script.empty();

  std::string line;
  while (true) {
    if (interactive) {
      std::printf("ipa> ");
      std::fflush(stdout);
    }
    if (!std::getline(input, line, interactive ? '\n' : ';')) break;
    const auto words = strings::split_trimmed(line, ' ');
    if (words.empty()) continue;
    const std::string& cmd = words[0];
    const std::string arg1 = words.size() > 1 ? words[1] : "";
    const std::string rest =
        words.size() > 1
            ? std::string(strings::trim(line.substr(line.find(words[1], cmd.size()))))
            : "";

    if (cmd == "quit" || cmd == "exit") break;
    else if (cmd == "help") std::printf("%s", kHelp);
    else if (cmd == "browse") shell.cmd_browse(arg1);
    else if (cmd == "search") shell.cmd_search(rest);
    else if (cmd == "locate") shell.cmd_locate(arg1);
    else if (cmd == "session") shell.cmd_session(arg1.empty() ? 4 : std::atoi(arg1.c_str()));
    else if (cmd == "select") shell.cmd_select(arg1);
    else if (cmd == "load") shell.cmd_load(arg1);
    else if (cmd == "plugin") shell.cmd_plugin(arg1);
    else if (cmd == "run") shell.cmd_control("run", arg1.empty() ? 0 : std::strtoull(arg1.c_str(), nullptr, 10));
    else if (cmd == "pause" || cmd == "stop" || cmd == "rewind") shell.cmd_control(cmd, 0);
    else if (cmd == "status") shell.cmd_status();
    else if (cmd == "stats") shell.cmd_stats();
    else if (cmd == "watch") shell.cmd_watch();
    else if (cmd == "show") shell.cmd_show(arg1);
    else if (cmd == "svg") shell.cmd_svg(arg1, words.size() > 2 ? words[2] : "out.svg");
    else if (cmd == "close") shell.cmd_close();
    else std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
  }
  shell.cmd_close();
  return 0;
}
