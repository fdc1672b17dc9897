// End-to-end observability: a real manager + client session, then the
// /metrics and /status endpoints and the global span ring are checked for
// the paper's six phases (locate, split, transfer, code_stage, run, merge)
// with consistent parent/child span links.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "client/grid_client.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "http/http.hpp"
#include "loadgen/promparse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "services/manager.hpp"

namespace ipa {
namespace {

const char* kScript = R"(
func begin(tree) { tree.book_h1("/mass", 50, 0, 200); }
func process(event, tree) { tree.fill("/mass", event.num("mass")); }
)";

/// Crude extractor for `"key":<number>` in the /status JSON body.
double json_number(const std::string& body, const std::string& key, std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle, from);
  if (at == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

class ObsEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-obs-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);

    Rng rng(42);
    std::vector<data::Record> records;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      data::Record record(i);
      record.set("mass", rng.uniform(0.0, 200.0));
      records.push_back(std::move(record));
    }
    const std::string path = (dir_ / "data.ipd").string();
    ASSERT_TRUE(data::write_dataset(path, "data", records).is_ok());

    services::ManagerConfig config;
    config.staging_dir = (dir_ / "staging").string();
    config.engine_config.snapshot_every = 200;
    // Retain every completed span as a "slow op" so GET /debug/slow is
    // deterministically non-empty.
    config.slow_op_threshold_s = 0;
    auto manager = services::ManagerNode::start(std::move(config));
    ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
    manager_ = std::move(*manager);
    ASSERT_TRUE(
        manager_->publish_dataset("obs/2006/data", "ds-obs", {{"experiment", "OBS"}}, path)
            .is_ok());
    const std::string base = manager_->authority().issue("cn=alice", {"analysis"}, 3600);
    auto proxy = client::make_proxy(manager_->authority(), base);
    ASSERT_TRUE(proxy.is_ok());
    proxy_ = *proxy;
  }

  void TearDown() override {
    manager_->stop();
    manager_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Drive a full stage -> run -> merge session; returns its id.
  std::string run_full_session() {
    auto client = client::GridClient::connect(manager_->soap_endpoint(), proxy_);
    EXPECT_TRUE(client.is_ok());
    auto session = client->create_session(2);
    EXPECT_TRUE(session.is_ok()) << session.status().to_string();
    EXPECT_TRUE(session->activate().is_ok());
    EXPECT_TRUE(session->select_dataset("ds-obs").is_ok());
    EXPECT_TRUE(session->stage_script("obs", kScript).is_ok());
    auto tree = session->run_to_completion(60.0);
    EXPECT_TRUE(tree.is_ok()) << tree.status().to_string();
    const std::string id = session->info().session_id;
    // The run phase closes asynchronously when the last terminal push lands;
    // the client's final poll can race ahead of it by a beat.
    wait_for_run_phase(id);
    // Keep the session open: /status only reports live sessions.
    session_ = std::make_unique<client::GridSession>(std::move(*session));
    return id;
  }

  void wait_for_run_phase(const std::string& session_id) {
    for (int i = 0; i < 1000; ++i) {
      const auto spans = obs::SpanRing::global().snapshot_session(session_id);
      for (const auto& span : spans) {
        if (span.name == "run") return;
      }
      // ipa-lint: allow(sleep-sync) -- paces a bounded retry loop; the span-presence predicate decides.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "run phase never completed for " << session_id;
  }

  http::Response get(const std::string& target) {
    const Uri endpoint = manager_->soap_endpoint();
    auto conn = http::Client::connect(endpoint.host, endpoint.port);
    EXPECT_TRUE(conn.is_ok()) << conn.status().to_string();
    auto response = conn->get(target);
    EXPECT_TRUE(response.is_ok()) << response.status().to_string();
    return response.is_ok() ? std::move(*response) : http::Response{};
  }

  static constexpr std::uint64_t kRecords = 1000;
  std::filesystem::path dir_;
  std::unique_ptr<services::ManagerNode> manager_;
  std::unique_ptr<client::GridSession> session_;
  std::string proxy_;
};

/// Provably contend one ranked mutex: a holder thread takes it, signals and
/// keeps it for 10ms while this thread blocks on lock(). Thread fights don't
/// work on a single-core runner (each loop fits in one scheduler quantum),
/// this does. Retries cover the one hole — this thread descheduled for the
/// whole hold window.
void force_lock_contention(LockRank rank, const char* name) {
  const auto contended_for = [rank] {
    std::uint64_t out = 0;
    for (const LockContention& entry : lock_contention_snapshot()) {
      if (entry.rank == rank) out = entry.contended;
    }
    return out;
  };
  const std::uint64_t before = contended_for();
  Mutex mutex(rank, name);
  for (int round = 0; round < 50 && contended_for() == before; ++round) {
    std::atomic<bool> held{false};
    std::thread holder([&] {
      LockGuard lock(mutex);
      held.store(true, std::memory_order_release);
      // Holding across the sleep is the point. ipa-lint: allow(blocking-under-lock)
      // ipa-lint: allow(sleep-sync) -- the sleep is the lock-hold window the contention profiler under
      // test must observe and attribute.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    });
    // ipa-lint: allow(sleep-sync) -- spin until the holder owns the lock; a CondVar here would add a
    // second lock interaction to the very profile being asserted on.
    while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
    { LockGuard lock(mutex); }  // blocks behind the sleeping holder
    holder.join();
  }
  ASSERT_GT(contended_for(), before) << "never managed to contend " << name;
}

constexpr const char* kPhases[6] = {"locate", "split",
                                    "transfer", "code_stage",
                                    "run", "merge"};

TEST_F(ObsEndpointsTest, MetricsEndpointServesAllSixPhases) {
  run_full_session();
  // Deterministic lock contention so the exporter has something to fold in
  // (a session races plenty, but not provably on a fast machine).
  force_lock_contention(LockRank::kLoadStats, "metrics-probe");
  const http::Response response = get("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.header_or("content-type").find("version=0.0.4"), std::string::npos);

  // Every ScenarioTimings phase shows up as a live histogram series with at
  // least one observation.
  for (const char* phase : kPhases) {
    const std::string count_line =
        "ipa_session_phase_seconds_count{phase=\"" + std::string(phase) + "\"}";
    const std::size_t at = response.body.find(count_line);
    ASSERT_NE(at, std::string::npos) << "missing phase series: " << phase;
    const double count =
        std::strtod(response.body.c_str() + at + count_line.size(), nullptr);
    EXPECT_GE(count, 1.0) << phase;
    EXPECT_NE(response.body.find("ipa_session_phase_seconds_bucket{phase=\"" +
                                 std::string(phase) + "\",le=\""),
              std::string::npos)
        << phase;
  }

  // The layers underneath reported too.
  EXPECT_NE(response.body.find("ipa_engine_records_processed_total"), std::string::npos);
  EXPECT_NE(response.body.find("ipa_rpc_attempts_total"), std::string::npos);
  EXPECT_NE(response.body.find("ipa_http_requests_total"), std::string::npos);
  EXPECT_NE(response.body.find("ipa_log_lines_total"), std::string::npos);

  // Bounded-server pool gauges exist per server kind even when nothing ever
  // queued or overflowed (the series are created with the pool).
  EXPECT_NE(response.body.find("ipa_server_accept_queue_depth{server=\"http\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("ipa_server_accept_queue_depth{server=\"rpc\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("ipa_server_overflow_total{server=\"http\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("ipa_server_overflow_total{server=\"rpc\"}"),
            std::string::npos);
  // Queue-delay histograms record every dispatched item.
  EXPECT_NE(response.body.find("ipa_server_queue_delay_seconds_count{server=\"http\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("ipa_server_queue_delay_seconds_count{server=\"rpc\"}"),
            std::string::npos);

  // Build identity: one series, value 1, all three labels (values vary by
  // build, the label set must not).
  const std::size_t build_at = response.body.find("ipa_build_info{");
  ASSERT_NE(build_at, std::string::npos);
  const std::string build_line =
      response.body.substr(build_at, response.body.find('\n', build_at) - build_at);
  EXPECT_NE(build_line.find("build_type=\""), std::string::npos);
  EXPECT_NE(build_line.find("git_sha=\""), std::string::npos);
  EXPECT_NE(build_line.find("version=\""), std::string::npos);
  EXPECT_NE(build_line.find("} 1"), std::string::npos) << build_line;

  // The contention exporter folded lock stats in during this scrape (a full
  // session contends at least something; the families must exist).
  EXPECT_NE(response.body.find("ipa_lock_wait_seconds"), std::string::npos);
}

TEST_F(ObsEndpointsTest, StatusEndpointReportsPhaseBreakdown) {
  const std::string id = run_full_session();
  const http::Response response = get("/status?session=" + id);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.header_or("content-type").find("application/json"), std::string::npos);
  EXPECT_NE(response.body.find("\"id\":\"" + id + "\""), std::string::npos);

  double sum = 0;
  for (const char* phase : kPhases) {
    const double value = json_number(response.body, phase);
    EXPECT_GT(value, 0.0) << "phase " << phase << " has no recorded duration";
    sum += value;
  }
  const double total = json_number(response.body, "total");
  // Each phase (and the total) is rendered with %.6f, so the six rounded
  // addends can drift from the rounded total by up to 3.5e-6.
  EXPECT_NEAR(total, sum, 5e-6);
  // The span dump is inline.
  EXPECT_NE(response.body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"name\":\"run\""), std::string::npos);
}

TEST_F(ObsEndpointsTest, StatusRejectsUnknownSession) {
  EXPECT_EQ(get("/status?session=sess-ghost").status, 404);
}

/// First `"name"` value inside the "spans" array of a /status body.
std::string first_span_name(const std::string& body) {
  const std::size_t spans = body.find("\"spans\":[");
  if (spans == std::string::npos) return "";
  const std::string needle = "\"name\":\"";
  const std::size_t at = body.find(needle, spans);
  if (at == std::string::npos) return "";
  const std::size_t end = body.find('"', at + needle.size());
  return body.substr(at + needle.size(), end - at - needle.size());
}

std::size_t count_occurrences(const std::string& body, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = body.find(needle); at != std::string::npos;
       at = body.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(ObsEndpointsTest, StatusSpanDumpIsBoundedNewestFirst) {
  const std::string id = run_full_session();
  const http::Response full = get("/status?session=" + id);
  ASSERT_EQ(full.status, 200);
  const double total = json_number(full.body, "spans_total");
  ASSERT_GT(total, 2.0) << "session produced too few spans to exercise the cap";

  const http::Response capped = get("/status?session=" + id + "&spans=2");
  ASSERT_EQ(capped.status, 200);
  // Exactly two spans in the dump; the advertised total still counts all.
  EXPECT_EQ(count_occurrences(capped.body, "\"trace\":"), 2u);
  EXPECT_DOUBLE_EQ(json_number(capped.body, "spans_total"), total);
  // Both dumps are newest-first, so the capped dump is a prefix of the full
  // one: their first entries agree.
  EXPECT_EQ(first_span_name(capped.body), first_span_name(full.body));
  EXPECT_LT(count_occurrences(full.body, "\"trace\":"), static_cast<std::size_t>(total) + 1);
}

TEST_F(ObsEndpointsTest, DebugEndpointsServeJournalLocksAndSlowOps) {
  const std::string id = run_full_session();

  // /debug/journal: per-thread flight journals. The in-process engines and
  // the manager both journaled (state transitions, session lifecycle).
  const http::Response journal = get("/debug/journal");
  EXPECT_EQ(journal.status, 200);
  EXPECT_NE(journal.header_or("content-type").find("application/json"), std::string::npos);
  EXPECT_NE(journal.body.find("\"threads\":["), std::string::npos);
  EXPECT_NE(journal.body.find("\"what\":\"engine.state\""), std::string::npos);
  EXPECT_NE(journal.body.find("\"what\":\"session.create\""), std::string::npos);
  EXPECT_NE(journal.body.find(id), std::string::npos) << "session id not journaled";

  // ?limit=1 keeps at most one event per thread.
  const http::Response capped = get("/debug/journal?limit=1");
  EXPECT_EQ(capped.status, 200);
  const std::size_t threads = count_occurrences(capped.body, "\"thread\":\"");
  EXPECT_EQ(count_occurrences(capped.body, "\"what\":\""), threads);

  // /debug/locks: rank-indexed contention counters (contend one explicitly
  // so at least one row is guaranteed).
  force_lock_contention(LockRank::kLoadStats, "debug-locks-probe");
  const http::Response locks = get("/debug/locks");
  EXPECT_EQ(locks.status, 200);
  EXPECT_NE(locks.body.find("\"ranks\":["), std::string::npos);
  EXPECT_NE(locks.body.find("\"contended\":"), std::string::npos);
  EXPECT_NE(locks.body.find("\"wait_s\":"), std::string::npos);

  // /debug/slow: with threshold 0 every completed span is retained, so the
  // session's phase spans are all present with their child trees.
  const http::Response slow = get("/debug/slow");
  EXPECT_EQ(slow.status, 200);
  EXPECT_NE(slow.body.find("\"default_threshold_s\":"), std::string::npos);
  EXPECT_NE(slow.body.find("\"ops\":["), std::string::npos);
  EXPECT_NE(slow.body.find("\"root\":{"), std::string::npos) << "no slow ops retained";
  EXPECT_EQ(json_number(slow.body, "default_threshold_s"), 0.0);
}

// Histogram exposition must stay internally consistent while writers are
// mid-observe: cumulative buckets monotone, `_count` never ahead of the +Inf
// cumulative, and both monotone across scrapes. This pins the acquire/release
// ordering between bucket increments and the sample count.
TEST_F(ObsEndpointsTest, MetricsStayConsistentUnderConcurrentWriters) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  obs::Histogram& histogram = obs::Registry::global().histogram(
      "ipa_test_scrape_consistency_seconds", {{"probe", "writers"}}, {},
      "endpoint consistency probe");
  const std::uint64_t before = histogram.count();

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // ipa-lint: allow(sleep-sync) -- start-line spin keeps the racing writers starting simultaneously;
      // a cv wakeup would serialize them.
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Rng rng(1000 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kPerWriter; ++i) histogram.observe(rng.uniform(0.0, 1.0));
    });
  }
  go.store(true, std::memory_order_release);

  std::uint64_t last_count = before;
  std::uint64_t last_inf = before;
  for (int scrape = 0; scrape < 12; ++scrape) {
    const http::Response response = get("/metrics");
    ASSERT_EQ(response.status, 200);
    const auto family = loadgen::parse_histogram_family(
        response.body, "ipa_test_scrape_consistency_seconds", "probe");
    const auto it = family.find("writers");
    ASSERT_NE(it, family.end());
    const loadgen::HistogramSeries& series = it->second;
    ASSERT_FALSE(series.cumulative.empty());
    // Cumulative buckets are monotone within one scrape...
    for (std::size_t b = 1; b < series.cumulative.size(); ++b) {
      ASSERT_GE(series.cumulative[b], series.cumulative[b - 1])
          << "bucket " << b << " at scrape " << scrape;
    }
    // ...the advertised count never runs ahead of the +Inf bucket...
    const std::uint64_t inf = series.cumulative.back();
    EXPECT_LE(series.count, inf) << "scrape " << scrape;
    // ...values of known magnitude bound the sum...
    EXPECT_GE(series.sum, 0.0);
    EXPECT_LE(series.sum, static_cast<double>(inf) * 1.0 + 1e-9);
    // ...and everything is monotone across scrapes.
    EXPECT_GE(series.count, last_count) << "scrape " << scrape;
    EXPECT_GE(inf, last_inf) << "scrape " << scrape;
    last_count = series.count;
    last_inf = inf;
  }

  for (auto& writer : writers) writer.join();
  const http::Response final_scrape = get("/metrics");
  const auto family = loadgen::parse_histogram_family(
      final_scrape.body, "ipa_test_scrape_consistency_seconds", "probe");
  const auto it = family.find("writers");
  ASSERT_NE(it, family.end());
  EXPECT_EQ(it->second.count,
            before + static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(it->second.cumulative.back(), it->second.count);
}

TEST_F(ObsEndpointsTest, PhaseSpansFormConsistentTraces) {
  const std::string id = run_full_session();
  const auto spans = obs::SpanRing::global().snapshot_session(id);

  for (const char* phase : kPhases) {
    const obs::SpanRecord* record = nullptr;
    for (const auto& span : spans) {
      if (span.name == phase) record = &span;
    }
    ASSERT_NE(record, nullptr) << "no span for phase " << phase;
    EXPECT_GT(record->duration_s(), 0.0) << phase;
    EXPECT_NE(record->trace_id, 0u) << phase;
    EXPECT_NE(record->span_id, 0u) << phase;
    // Every phase span is a child of a server-side operation span (the SOAP
    // op that drove it, or the RPC dispatch for merge/run) that itself was
    // recorded in the ring under the same trace. The parent closes after the
    // phase span — for the final merge, even after the poll response is on
    // the wire — so look in the full ring and give it a moment to land.
    ASSERT_NE(record->parent_id, 0u) << phase;
    bool parent_found = false;
    for (int attempt = 0; attempt < 500 && !parent_found; ++attempt) {
      for (const auto& span : obs::SpanRing::global().snapshot()) {
        if (span.span_id == record->parent_id) {
          parent_found = true;
          EXPECT_EQ(span.trace_id, record->trace_id) << phase;
        }
      }
      // ipa-lint: allow(sleep-sync) -- paces a bounded retry loop; the parent-span predicate decides.
      if (!parent_found) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(parent_found) << "parent span of " << phase << " not in ring";
  }

  // The staging phases share the selectDataset operation span as parent.
  const auto find = [&](const char* name) -> const obs::SpanRecord* {
    for (const auto& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const obs::SpanRecord* locate = find("locate");
  const obs::SpanRecord* split = find("split");
  const obs::SpanRecord* transfer = find("transfer");
  ASSERT_TRUE(locate && split && transfer);
  EXPECT_EQ(locate->parent_id, split->parent_id);
  EXPECT_EQ(split->parent_id, transfer->parent_id);
  EXPECT_EQ(locate->trace_id, transfer->trace_id);
}

}  // namespace
}  // namespace ipa
