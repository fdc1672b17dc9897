// Slow-op retention in the span ring: threshold-crossing spans are kept with
// their same-trace children in a bounded newest-first list, long after the
// ring of recent spans has moved on.
#include <gtest/gtest.h>

#include <string>

#include "common/strings.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace ipa::obs {
namespace {

SpanRecord make_span(const char* name, double start_s, double end_s,
                     std::uint64_t trace = 1, std::uint64_t span = 0,
                     std::uint64_t parent = 0) {
  SpanRecord record;
  record.name = name;
  record.trace_id = trace;
  record.span_id = span != 0 ? span : new_trace_id();
  record.parent_id = parent;
  record.start_s = start_s;
  record.end_s = end_s;
  record.session = "sess-slow";
  return record;
}

TEST(SpanRingSlowOps, ThresholdGatesRetention) {
  SpanRing ring(64, 8);
  ring.set_slow_threshold(0.5);

  ring.record(make_span("fast", 0.0, 0.1));
  EXPECT_EQ(ring.slow_snapshot().size(), 0u);
  ring.record(make_span("slow", 0.0, 0.8));
  const auto ops = ring.slow_snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].root.name, "slow");
  EXPECT_EQ(ring.slow_total(), 1u);
  // Both spans are in the recent ring either way.
  EXPECT_EQ(ring.snapshot().size(), 2u);
}

TEST(SpanRingSlowOps, RetainsSameTraceChildren) {
  SpanRing ring(64, 8);
  ring.set_slow_threshold(0.5);

  // Children of trace 7 complete first (inner scopes end before outer).
  ring.record(make_span("child-a", 0.0, 0.1, 7, 71, 70));
  ring.record(make_span("child-b", 0.1, 0.2, 7, 72, 70));
  ring.record(make_span("unrelated", 0.0, 0.1, 8, 81));
  ring.record(make_span("root", 0.0, 0.9, 7, 70));

  const auto ops = ring.slow_snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].root.span_id, 70u);
  ASSERT_EQ(ops[0].children.size(), 2u);
  EXPECT_EQ(ops[0].children[0].span_id, 71u);
  EXPECT_EQ(ops[0].children[1].span_id, 72u);
}

// The reason the ring keeps a slow list at all: a busy site cycles the
// recent ring in seconds, and the slow op must still be explainable after.
TEST(SpanRingSlowOps, SlowOpOutlivesTheRing) {
  constexpr std::size_t kCapacity = 4;
  SpanRing ring(kCapacity, 8);
  ring.set_slow_threshold(0.5);

  ring.record(make_span("child-a", 0.0, 0.1, 7, 71, 70));
  ring.record(make_span("child-b", 0.1, 0.2, 7, 72, 70));
  ring.record(make_span("root", 0.0, 0.9, 7, 70));
  for (std::size_t i = 0; i < 3 * kCapacity; ++i) {
    ring.record(make_span("fast", 1.0, 1.01, 100 + i));
  }
  for (const SpanRecord& span : ring.snapshot()) {
    EXPECT_NE(span.trace_id, 7u) << "the recent ring should have evicted trace 7";
  }

  // A span just under the threshold is not kept.
  ring.record(make_span("almost", 2.0, 2.49, 9));

  const auto ops = ring.slow_snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].root.name, "root");
  ASSERT_EQ(ops[0].children.size(), 2u);
  EXPECT_EQ(ops[0].children[0].name, "child-a");
  EXPECT_EQ(ops[0].children[1].name, "child-b");
  EXPECT_EQ(ring.slow_total(), 1u);

  const std::string json = ring.render_slow_json();
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child-b\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"almost\""), std::string::npos);
}

TEST(SpanRingSlowOps, ZeroThresholdRetainsEverything) {
  SpanRing ring(64, 8);
  ring.set_slow_threshold(0);
  ring.record(make_span("instant", 1.0, 1.0));
  EXPECT_EQ(ring.slow_snapshot().size(), 1u);
}

TEST(SpanRingSlowOps, EvictsOldestAndSnapshotsNewestFirst) {
  SpanRing ring(64, 3);
  ring.set_slow_threshold(0);
  for (int i = 0; i < 5; ++i) {
    ring.record(make_span(strings::format("op%d", i).c_str(), 0.0, 1.0));
  }
  const auto ops = ring.slow_snapshot();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].root.name, "op4");
  EXPECT_EQ(ops[1].root.name, "op3");
  EXPECT_EQ(ops[2].root.name, "op2");
  EXPECT_EQ(ring.slow_total(), 5u);

  const auto capped = ring.slow_snapshot(1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].root.name, "op4");
}

TEST(SpanRingSlowOps, RenderJsonCarriesTreeAndTotals) {
  SpanRing ring(64, 8);
  ring.set_slow_threshold(0.25);
  ring.record(make_span("child", 0.0, 0.05, 9, 91, 90));
  ring.record(make_span("merge", 0.0, 0.4, 9, 90));

  const std::string json = ring.render_slow_json();
  EXPECT_NE(json.find("\"default_threshold_s\":0.250000"), std::string::npos);
  EXPECT_NE(json.find("\"total_retained\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"merge\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
  EXPECT_NE(json.find("\"session\":\"sess-slow\""), std::string::npos);
}

TEST(SpanRingSlowOps, GlobalRingKeepsSlowOpsAndJournalsThem) {
  // The global ring is what GET /debug/slow serves: a span far above any
  // configured threshold must be kept there, and its flight event lands in
  // the recording thread's journal.
  const std::uint64_t before = SpanRing::global().slow_total();
  SpanRecord span = make_span("global-slow-probe", 0.0, 100.0);
  span.trace_id = new_trace_id();
  SpanRing::global().record(std::move(span));
  EXPECT_GE(SpanRing::global().slow_total(), before + 1);

  const auto events = FlightRecorder::global().local().snapshot(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightKind::kSlowOp);
  EXPECT_STREQ(events[0].detail, "global-slow-probe");
  EXPECT_EQ(events[0].a, 100000u);
}

}  // namespace
}  // namespace ipa::obs
