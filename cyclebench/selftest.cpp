// Self-test of the benchmark's bookkeeping (ledger.hpp): the percentile and
// tail helper, the /metrics delta arithmetic, the closure arithmetic, the
// server span self-time fold and the reference-tree comparison. Exit code 0
// when every check holds.
//
//   .bench_build/cyclebench/cyclebench_selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "ledger.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double eps = 1e-12) { return std::fabs(a - b) <= eps; }

// The interpolation itself is ipa::loadgen::percentile's, tested with
// loadgen; these pin the wrapper: unsorted input, clamping and the tail.
void percentiles() {
  using cyclebench::percentile;
  EXPECT(near(percentile({3, 1, 2, 4}, 0.5), 2.5));
  EXPECT(near(percentile({5, 4, 3, 2, 1}, 0.9), 4.6));
  EXPECT(percentile({3, 1, 2}, 7) == 3);  // q clamps
  // A long tail moves p99, not p50.
  std::vector<double> tail(99, 1.0);
  tail.push_back(100.0);
  EXPECT(near(cyclebench::median(tail), 1.0));
  EXPECT(percentile(tail, 0.99) > 1.5);
  // The trimmed mean drops the outlier; the plain mean does not.
  using cyclebench::trimmed_mean;
  EXPECT(near(trimmed_mean(tail, 0.0), 1.99));
  EXPECT(near(trimmed_mean(tail, 0.1), 1.0));
  EXPECT(near(trimmed_mean({4, 1, 3, 2, 100, 0, 5, 6, 7, 8}, 0.1), 4.5));  // drops 0 and 100
  EXPECT(near(trimmed_mean({2, 1}, 0.4), 1.5));  // nothing to drop
  EXPECT(trimmed_mean({}, 0.1) == 0);
  // Unlike the median, it moves with the share of slow samples.
  const std::vector<double> quarter_slow = {1, 1, 1, 1, 1, 1, 1.4, 1.4};
  EXPECT(near(cyclebench::median(quarter_slow), 1.0));
  EXPECT(near(trimmed_mean(quarter_slow, 0.0), 1.1));
}

const char* kBefore =
    "# TYPE ipa_rpc_attempts_total counter\n"
    "ipa_rpc_attempts_total{method=\"poll\",service=\"AidaManager\"} 10\n"
    "ipa_rpc_attempts_total{method=\"push\",service=\"AidaManager\"} 5\n"
    "ipa_lock_wait_seconds{rank=\"trace\"} 0.5\n"
    "ipa_q_bucket{server=\"http\",le=\"0.001\"} 4\n"
    "ipa_q_bucket{server=\"http\",le=\"0.01\"} 6\n"
    "ipa_q_bucket{server=\"http\",le=\"+Inf\"} 6\n"
    "ipa_q_sum{server=\"http\"} 0.02\n"
    "ipa_q_count{server=\"http\"} 6\n";

const char* kAfter =
    "ipa_rpc_attempts_total{method=\"poll\",service=\"AidaManager\"} 25\n"
    "ipa_rpc_attempts_total{method=\"push\",service=\"AidaManager\"} 9\n"
    "ipa_rpc_attempts_total{method=\"ready\",service=\"WorkerRegistry\"} 2\n"
    "ipa_lock_wait_seconds{rank=\"trace\"} 0.75\n"
    "ipa_lock_wait_seconds{rank=\"aida\"} 0.125\n"
    "ipa_q_bucket{server=\"http\",le=\"0.001\"} 4\n"
    "ipa_q_bucket{server=\"http\",le=\"0.01\"} 16\n"
    "ipa_q_bucket{server=\"http\",le=\"+Inf\"} 16\n"
    "ipa_q_sum{server=\"http\"} 0.07\n"
    "ipa_q_count{server=\"http\"} 16\n"
    "ipa_q_bucket{server=\"rpc\",le=\"0.001\"} 3\n"
    "ipa_q_bucket{server=\"rpc\",le=\"0.01\"} 3\n"
    "ipa_q_bucket{server=\"rpc\",le=\"+Inf\"} 3\n"
    "ipa_q_sum{server=\"rpc\"} 0.001\n"
    "ipa_q_count{server=\"rpc\"} 3\n";

void deltas() {
  const cyclebench::ScrapeDelta delta(kBefore, kAfter);
  // (25-10) + (9-5) + (2-0): label sets are kept apart, new ones count from 0.
  EXPECT(near(delta.total("ipa_rpc_attempts_total"), 21));
  EXPECT(near(delta.total("ipa_absent_total"), 0));
  const auto waits = delta.by_label("ipa_lock_wait_seconds", "rank");
  EXPECT(near(waits.at("trace"), 0.25));
  EXPECT(near(waits.at("aida"), 0.125));

  const auto hist = delta.histograms("ipa_q", "server");
  const auto& http = hist.at("http");
  EXPECT(http.count == 10);
  EXPECT(http.cumulative.size() == 3 && http.cumulative[0] == 0 && http.cumulative[1] == 10);
  EXPECT(near(http.sum, 0.05));
  // All ten new samples sit in (0.001, 0.01]: the delta's median is inside
  // that bucket, while the raw "after" series would put it lower.
  const double p50 = http.quantile(0.5);
  EXPECT(p50 > 0.001 && p50 <= 0.01);
  EXPECT(hist.at("rpc").count == 3);

  const auto sum = cyclebench::histogram_sum(hist);
  EXPECT(sum.count == 13);
  EXPECT(sum.cumulative[0] == 3);
}

void closures() {
  cyclebench::SpanLog log;
  log.add("cycle", 1, -1, 0.0, 1.0);
  log.add("client.run", 1, 0, 0.0, 0.5);
  log.add("client.poll", 1, 0, 0.5, 0.9);
  log.add("rpc.inner", 1, 2, 0.6, 0.7);  // grandchild: not double counted
  log.add("cycle", 2, -1, 2.0, 4.0);
  log.add("client.run", 2, 4, 2.0, 2.2);
  const cyclebench::Closure c = cyclebench::closure(log.spans(), "cycle");
  EXPECT(c.roots == 2);
  EXPECT(near(c.wall_s, 3.0));
  EXPECT(near(c.covered_s, 1.1));
  EXPECT(near(c.coverage(), 1.1 / 3.0));
  EXPECT(near(c.gap_s(), 1.9));
  EXPECT(near(c.child_s.at("client.run"), 0.7));
  EXPECT(cyclebench::describe_closure(c, 0.9).find("GAP") != std::string::npos);

  cyclebench::SpanLog full;
  full.add("cycle", 1, -1, 0.0, 1.0);
  full.add("client.run", 1, 0, 0.0, 0.95);
  EXPECT(cyclebench::describe_closure(cyclebench::closure(full.spans(), "cycle"), 0.9)
             .find("GAP") == std::string::npos);

  // append() rebases parent indices onto the combined log.
  cyclebench::SpanLog merged;
  merged.append(full);
  merged.append(log);
  EXPECT(merged.spans().size() == 8);
  EXPECT(merged.spans()[3].parent == 2);
  EXPECT(cyclebench::closure(merged.spans(), "cycle").roots == 3);
}

void server_spans() {
  const char* status =
      "{\"sessions\":[{\"id\":\"s\",\"spans\":["
      "{\"name\":\"soap.op\",\"span\":\"a\",\"parent\":\"0\",\"duration\":1.0},"
      "{\"name\":\"split\",\"span\":\"b\",\"parent\":\"a\",\"duration\":0.25},"
      "{\"name\":\"transfer\",\"span\":\"c\",\"parent\":\"a\",\"duration\":0.5},"
      "{\"name\":\"split\",\"span\":\"d\",\"parent\":\"x\",\"duration\":0.125}]}]}";
  const auto self = cyclebench::server_self_time(status);
  EXPECT(near(self.at("soap.op"), 0.25));
  EXPECT(near(self.at("split"), 0.375));
  EXPECT(near(self.at("transfer"), 0.5));
  EXPECT(cyclebench::server_self_time("not json").empty());
}

void trees() {
  using ipa::aida::Histogram1D;
  auto make = [](std::initializer_list<double> xs) {
    Histogram1D h = Histogram1D::create("m", 10, 0, 10).value();
    for (double x : xs) h.fill(x);
    return h;
  };
  ipa::aida::Tree want;
  want.put("/a/m", make({1.5, 2.5, 2.5, 11}));
  ipa::aida::Tree same;
  same.put("/a/m", make({11, 2.5, 1.5, 2.5}));  // other fill order
  EXPECT(cyclebench::compare_trees(want, same).empty());

  ipa::aida::Tree shifted;
  shifted.put("/a/m", make({1.5, 2.5, 3.5, 11}));
  EXPECT(cyclebench::compare_trees(want, shifted).find("bin") != std::string::npos);

  ipa::aida::Tree fewer;
  fewer.put("/a/m", make({1.5, 2.5, 2.5}));
  EXPECT(cyclebench::compare_trees(want, fewer).find("entries") != std::string::npos);

  ipa::aida::Tree renamed;
  renamed.put("/b/m", make({1.5, 2.5, 2.5, 11}));
  EXPECT(cyclebench::compare_trees(want, renamed).find("paths") != std::string::npos);
}

}  // namespace

int main() {
  percentiles();
  deltas();
  closures();
  server_spans();
  trees();
  if (g_failures > 0) {
    std::fprintf(stderr, "cyclebench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("cyclebench_selftest: all checks passed\n");
  return 0;
}
