// Metrics registry: find-or-create semantics, label canonicalization,
// Prometheus rendering, and hot-path safety under concurrent writers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace ipa::obs {
namespace {

TEST(Metrics, CounterFindOrCreateReturnsSameSeries) {
  Registry registry;
  Counter& a = registry.counter("ipa_test_total", {{"k", "v"}});
  Counter& b = registry.counter("ipa_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  Registry registry;
  Counter& a = registry.counter("ipa_test_total", {{"a", "1"}, {"b", "2"}});
  // The unsorted literal is the point of this test. ipa-lint: allow(metric-name)
  Counter& b = registry.counter("ipa_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, DistinctLabelsAreDistinctSeries) {
  Registry registry;
  Counter& a = registry.counter("ipa_test_total", {{"k", "a"}});
  Counter& b = registry.counter("ipa_test_total", {{"k", "b"}});
  EXPECT_NE(&a, &b);
  a.inc(5);
  const auto families = registry.snapshot();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].series.size(), 2u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry registry;
  Gauge& g = registry.gauge("ipa_test_gauge");
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(-4.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketsAreFixedByFirstCall) {
  Registry registry;
  Histogram& h = registry.histogram("ipa_test_seconds", {}, {0.1, 1.0, 10.0});
  h.observe(0.05);   // bucket 0
  h.observe(0.5);    // bucket 1
  h.observe(5.0);    // bucket 2
  h.observe(50.0);   // +Inf bucket
  h.observe(1.0);    // boundary lands in the le=1.0 bucket (le is inclusive)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.05 + 0.5 + 5.0 + 50.0 + 1.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(Metrics, HistogramBoundsAreSortedAndDeduped) {
  Registry registry;
  Histogram& h = registry.histogram("ipa_test_seconds", {}, {10.0, 1.0, 1.0, 0.1});
  const std::vector<double> expect{0.1, 1.0, 10.0};
  EXPECT_EQ(h.upper_bounds(), expect);
}

TEST(Metrics, ExponentialBounds) {
  const auto bounds = exponential_bounds(1.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 64.0);
}

TEST(Metrics, PrometheusRendering) {
  Registry registry;
  registry.counter("ipa_req_total", {{"code", "200"}}, "Requests.").inc(7);
  registry.gauge("ipa_depth", {}, "Queue depth.").set(3);
  registry.histogram("ipa_lat_seconds", {}, {0.5, 2.0}, "Latency.").observe(1.0);
  const std::string text = registry.render_prometheus();

  EXPECT_NE(text.find("# HELP ipa_req_total Requests."), std::string::npos);
  EXPECT_NE(text.find("# TYPE ipa_req_total counter"), std::string::npos);
  EXPECT_NE(text.find("ipa_req_total{code=\"200\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ipa_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("ipa_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ipa_lat_seconds histogram"), std::string::npos);
  // Cumulative buckets: le="0.5" holds 0, le="2" holds 1, +Inf holds 1.
  EXPECT_NE(text.find("ipa_lat_seconds_bucket{le=\"0.5\"} 0"), std::string::npos);
  EXPECT_NE(text.find("ipa_lat_seconds_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ipa_lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ipa_lat_seconds_count 1"), std::string::npos);
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  Registry registry;
  registry.counter("ipa_esc_total", {{"msg", "a\"b\\c\nd"}}).inc();
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("msg=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// The hot-path contract: concurrent writers on existing handles plus
// concurrent series creation plus a snapshotting reader must neither race
// nor lose counts. Run under TSan via tools/check.sh tier 2.
TEST(Metrics, ConcurrentWritersAndSnapshots) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto families = registry.snapshot();
      (void)registry.render_prometheus();
      for (const auto& family : families) {
        for (const auto& series : family.series) {
          EXPECT_GE(series.value, 0.0);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      // Half the threads hammer a shared series, half create their own —
      // exercising both the lock-free fast path and the creation lock.
      Counter& shared = registry.counter("ipa_conc_total", {{"kind", "shared"}});
      Counter& own =
          registry.counter("ipa_conc_total", {{"kind", strings::format("t%d", t)}});
      Histogram& h = registry.histogram("ipa_conc_seconds", {}, {0.001, 0.1, 10.0});
      for (int i = 0; i < kIncrements; ++i) {
        shared.inc();
        own.inc();
        h.observe(0.01 * (i % 3));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(registry.counter("ipa_conc_total", {{"kind", "shared"}}).value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  Histogram& h = registry.histogram("ipa_conc_seconds", {}, {0.001, 0.1, 10.0});
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

}  // namespace
}  // namespace ipa::obs
