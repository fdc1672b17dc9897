#include "loadgen/slo.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/strings.hpp"

namespace ipa::loadgen {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string fmt(double v) {
  if (std::isinf(v)) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string fmt_ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%8.2f", seconds * 1e3);
  return buf;
}

void check(SloResult& out, const std::string& gate, double limit, double actual) {
  if (actual > limit) out.violations.push_back({gate, limit, actual});
}

double rate(double part, double whole) { return whole <= 0 ? 0.0 : part / whole; }

std::string json_number(double v) {
  if (std::isinf(v)) return "1e308";  // JSON has no infinity
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

StepSlo::StepSlo() : p50_max_s(kInf), p95_max_s(kInf), p99_max_s(kInf), error_rate_max(1.0) {}
PhaseSlo::PhaseSlo() : p50_max_s(kInf), p95_max_s(kInf) {}
ScenarioSlo::ScenarioSlo() : reject_rate_max(1.0) {}

Result<SloProfile> parse_profile(const Json& document, const std::string& name) {
  const Json* profiles = document.find("profiles");
  if (!profiles || !profiles->is_object()) {
    return invalid_argument("slo: document has no 'profiles' object");
  }
  const Json* profile = profiles->find(name);
  if (!profile || !profile->is_object()) {
    std::string known;
    for (const auto& [key, value] : profiles->members()) {
      (void)value;
      known += known.empty() ? key : ", " + key;
    }
    return not_found("slo: no profile '" + name + "' (have: " + known + ")");
  }

  SloProfile out;
  out.name = name;
  if (const Json* steps = profile->find("steps"); steps && steps->is_object()) {
    for (const auto& [step, bounds] : steps->members()) {
      StepSlo slo;
      slo.p50_max_s = bounds.number_at("p50_max_s", kInf);
      slo.p95_max_s = bounds.number_at("p95_max_s", kInf);
      slo.p99_max_s = bounds.number_at("p99_max_s", kInf);
      slo.error_rate_max = bounds.number_at("error_rate_max", 1.0);
      out.steps.emplace(step, slo);
    }
  }
  if (const Json* phases = profile->find("phases"); phases && phases->is_object()) {
    for (const auto& [phase, bounds] : phases->members()) {
      PhaseSlo slo;
      slo.p50_max_s = bounds.number_at("p50_max_s", kInf);
      slo.p95_max_s = bounds.number_at("p95_max_s", kInf);
      out.phases.emplace(phase, slo);
    }
  }
  if (const Json* scenario = profile->find("scenario"); scenario && scenario->is_object()) {
    out.scenario.failure_rate_max = scenario->number_at("failure_rate_max", 0.0);
    out.scenario.timeout_rate_max = scenario->number_at("timeout_rate_max", 0.0);
    out.scenario.degraded_rate_max = scenario->number_at("degraded_rate_max", 0.0);
    out.scenario.reject_rate_max = scenario->number_at("reject_rate_max", 1.0);
    out.scenario.min_iterations = scenario->number_at("min_iterations", 1.0);
  }
  return out;
}

ServerScrape parse_server_scrape(std::string_view exposition) {
  ServerScrape out;
  out.phases = parse_histogram_family(exposition, "ipa_session_phase_seconds", "phase");
  out.queue_delay =
      parse_histogram_family(exposition, "ipa_server_queue_delay_seconds", "server");
  out.lock_contended = parse_scalar_family(exposition, "ipa_lock_contended_total", "rank");
  out.lock_wait_s = parse_scalar_family(exposition, "ipa_lock_wait_seconds", "rank");
  return out;
}

SloResult evaluate(const SloProfile& profile, const LoadReport& report,
                   const ServerScrape& scrape) {
  const std::map<std::string, HistogramSeries>& phases = scrape.phases;
  SloResult out;

  for (const auto& [step, slo] : profile.steps) {
    const auto it = report.ops.find(step);
    if (it == report.ops.end()) {
      // A gated step that never ran is itself a regression: the scenario
      // mix silently lost an operation.
      out.violations.push_back({"step." + step + ".count", 1, 0});
      continue;
    }
    const Summary& s = it->second;
    check(out, "step." + step + ".p50_s", slo.p50_max_s, s.p50_s);
    check(out, "step." + step + ".p95_s", slo.p95_max_s, s.p95_s);
    check(out, "step." + step + ".p99_s", slo.p99_max_s, s.p99_s);
    const double attempts =
        static_cast<double>(s.count) + static_cast<double>(s.errors + s.rejects);
    check(out, "step." + step + ".error_rate", slo.error_rate_max,
          rate(static_cast<double>(s.errors), attempts));
  }

  for (const auto& [phase, slo] : profile.phases) {
    const auto it = phases.find(phase);
    if (it == phases.end() || it->second.count == 0) {
      out.violations.push_back({"phase." + phase + ".count", 1, 0});
      continue;
    }
    check(out, "phase." + phase + ".p50_s", slo.p50_max_s, it->second.quantile(0.50));
    check(out, "phase." + phase + ".p95_s", slo.p95_max_s, it->second.quantile(0.95));
  }

  const double users = report.users;
  check(out, "scenario.failure_rate", profile.scenario.failure_rate_max,
        rate(report.failed_users, users));
  check(out, "scenario.timeout_rate", profile.scenario.timeout_rate_max,
        rate(report.timed_out_users, users));
  check(out, "scenario.degraded_rate", profile.scenario.degraded_rate_max,
        rate(report.degraded_sessions, report.sessions_run));
  std::uint64_t rejects = 0;
  std::uint64_t attempts = 0;
  for (const auto& [op, summary] : report.ops) {
    (void)op;
    rejects += summary.rejects;
    attempts += summary.count + summary.errors + summary.rejects;
  }
  check(out, "scenario.reject_rate", profile.scenario.reject_rate_max,
        rate(static_cast<double>(rejects), static_cast<double>(attempts)));
  // min_iterations is a floor, not a ceiling: violated when actual < limit.
  if (static_cast<double>(report.iterations_done) < profile.scenario.min_iterations) {
    out.violations.push_back({"scenario.min_iterations", profile.scenario.min_iterations,
                              static_cast<double>(report.iterations_done)});
  }
  return out;
}

std::string render_report_text(const SloProfile& profile, const LoadReport& report,
                               const ServerScrape& scrape, const SloResult& result) {
  const std::map<std::string, HistogramSeries>& phases = scrape.phases;
  std::string out;
  out += "== load report (profile: " + profile.name + ") ==\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "users %d  completed %d  failed %d  timed-out %d  sessions %d  "
                "degraded %d  iterations %ld  steps %ld  wall %.1fs\n",
                report.users, report.completed_users, report.failed_users,
                report.timed_out_users, report.sessions_run, report.degraded_sessions,
                report.iterations_done, report.steps_total, report.wall_s);
  out += line;

  out += "\nclient-side step latency (ms):\n";
  std::snprintf(line, sizeof line, "%-16s %8s %8s %8s %8s %8s %6s %6s\n", "step", "count",
                "p50", "p95", "p99", "max", "err", "rej");
  out += line;
  for (const auto& [op, s] : report.ops) {
    std::snprintf(line, sizeof line, "%-16s %8llu %s %s %s %s %6llu %6llu\n", op.c_str(),
                  static_cast<unsigned long long>(s.count), fmt_ms(s.p50_s).c_str(),
                  fmt_ms(s.p95_s).c_str(), fmt_ms(s.p99_s).c_str(), fmt_ms(s.max_s).c_str(),
                  static_cast<unsigned long long>(s.errors),
                  static_cast<unsigned long long>(s.rejects));
    out += line;
  }

  if (!phases.empty()) {
    out += "\nserver-side session phases (ms, from /metrics):\n";
    std::snprintf(line, sizeof line, "%-16s %8s %8s %8s\n", "phase", "count", "p50", "p95");
    out += line;
    for (const auto& [phase, series] : phases) {
      std::snprintf(line, sizeof line, "%-16s %8llu %s %s\n", phase.c_str(),
                    static_cast<unsigned long long>(series.count),
                    fmt_ms(series.quantile(0.50)).c_str(),
                    fmt_ms(series.quantile(0.95)).c_str());
      out += line;
    }
  }

  if (!scrape.queue_delay.empty()) {
    out += "\nworker-pool queue delay (ms, from /metrics):\n";
    std::snprintf(line, sizeof line, "%-16s %8s %8s %8s\n", "server", "count", "p50", "p95");
    out += line;
    for (const auto& [server, series] : scrape.queue_delay) {
      std::snprintf(line, sizeof line, "%-16s %8llu %s %s\n", server.c_str(),
                    static_cast<unsigned long long>(series.count),
                    fmt_ms(series.quantile(0.50)).c_str(),
                    fmt_ms(series.quantile(0.95)).c_str());
      out += line;
    }
  }

  if (!scrape.lock_contended.empty()) {
    out += "\nlock contention (from /metrics):\n";
    std::snprintf(line, sizeof line, "%-16s %10s %10s\n", "rank", "contended", "wait-ms");
    out += line;
    for (const auto& [rank, contended] : scrape.lock_contended) {
      const auto wait = scrape.lock_wait_s.find(rank);
      const double wait_s = wait == scrape.lock_wait_s.end() ? 0.0 : wait->second;
      std::snprintf(line, sizeof line, "%-16s %10llu %s\n", rank.c_str(),
                    static_cast<unsigned long long>(contended), fmt_ms(wait_s).c_str());
      out += line;
    }
  }

  out += "\n";
  if (result.ok()) {
    out += "SLO gate passed (" + profile.name + ")\n";
  } else {
    out += "SLO gate FAILED (" + profile.name + "):\n";
    for (const SloViolation& v : result.violations) {
      const bool floor_gate = v.gate.find("min_iterations") != std::string::npos ||
                              v.gate.find(".count") != std::string::npos;
      const double delta =
          v.limit != 0 ? (v.actual - v.limit) / std::abs(v.limit) * 100.0 : 0.0;
      std::snprintf(line, sizeof line, "  - %s: %s %s limit %s (%+.0f%%)\n", v.gate.c_str(),
                    fmt(v.actual).c_str(), floor_gate ? "<" : ">", fmt(v.limit).c_str(),
                    delta);
      out += line;
    }
  }
  return out;
}

std::string render_report_json(const SloProfile& profile, const LoadReport& report,
                               const ServerScrape& scrape, const SloResult& result) {
  const std::map<std::string, HistogramSeries>& phases = scrape.phases;
  std::string out = "{\n";
  out += "  \"profile\": \"" + strings::json_escape(profile.name) + "\",\n";
  out += std::string("  \"ok\": ") + (result.ok() ? "true" : "false") + ",\n";

  out += "  \"scenario\": {";
  out += "\"users\": " + std::to_string(report.users);
  out += ", \"completed_users\": " + std::to_string(report.completed_users);
  out += ", \"failed_users\": " + std::to_string(report.failed_users);
  out += ", \"timed_out_users\": " + std::to_string(report.timed_out_users);
  out += ", \"sessions_run\": " + std::to_string(report.sessions_run);
  out += ", \"degraded_sessions\": " + std::to_string(report.degraded_sessions);
  out += ", \"iterations_done\": " + std::to_string(report.iterations_done);
  out += ", \"steps_total\": " + std::to_string(report.steps_total);
  out += ", \"wall_s\": " + json_number(report.wall_s);
  out += "},\n";

  out += "  \"steps\": {";
  bool first = true;
  for (const auto& [op, s] : report.ops) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + strings::json_escape(op) + "\": {";
    out += "\"count\": " + std::to_string(s.count);
    out += ", \"errors\": " + std::to_string(s.errors);
    out += ", \"rejects\": " + std::to_string(s.rejects);
    out += ", \"mean_s\": " + json_number(s.mean_s);
    out += ", \"p50_s\": " + json_number(s.p50_s);
    out += ", \"p95_s\": " + json_number(s.p95_s);
    out += ", \"p99_s\": " + json_number(s.p99_s);
    out += ", \"max_s\": " + json_number(s.max_s);
    out += "}";
  }
  out += "},\n";

  for (const auto& [key, family] : {std::pair{"phases", &phases},
                                     std::pair{"queue_delay", &scrape.queue_delay}}) {
    out += std::string("  \"") + key + "\": {";
    first = true;
    for (const auto& [label, series] : *family) {
      if (!first) out += ", ";
      first = false;
      out += strings::format("\"%s\": {", strings::json_escape(label).c_str());
      out += "\"count\": " + std::to_string(series.count);
      out += ", \"sum_s\": " + json_number(series.sum);
      out += ", \"p50_s\": " + json_number(series.quantile(0.50));
      out += ", \"p95_s\": " + json_number(series.quantile(0.95));
      out += "}";
    }
    out += "},\n";
  }

  out += "  \"locks\": {";
  first = true;
  for (const auto& [rank, contended] : scrape.lock_contended) {
    if (!first) out += ", ";
    first = false;
    const auto wait = scrape.lock_wait_s.find(rank);
    out += strings::format("\"%s\": {", strings::json_escape(rank).c_str());
    out += "\"contended\": " + json_number(contended);
    out += ", \"wait_s\": " +
           json_number(wait == scrape.lock_wait_s.end() ? 0.0 : wait->second);
    out += "}";
  }
  out += "},\n";

  out += "  \"violations\": [";
  first = true;
  for (const SloViolation& v : result.violations) {
    if (!first) out += ", ";
    first = false;
    out += "{\"gate\": \"" + strings::json_escape(v.gate) +
           "\", \"limit\": " + json_number(v.limit) +
           ", \"actual\": " + json_number(v.actual) + "}";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace ipa::loadgen
