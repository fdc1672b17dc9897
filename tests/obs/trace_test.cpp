// Trace spans: parent/child propagation through nested scopes and installed
// wire contexts, ManualClock timing, and ring eviction.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace ipa::obs {
namespace {

TEST(Trace, NewTraceIdsAreUniqueAndNonZero) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = new_trace_id();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(Trace, RootSpanStartsNewTrace) {
  ManualClock clock(10.0);
  SpanRing ring(16);
  EXPECT_FALSE(current_trace().valid());
  {
    ScopedSpan span("root", clock, ring);
    EXPECT_TRUE(current_trace().valid());
    EXPECT_EQ(current_trace().span_id, span.context().span_id);
    clock.advance(2.5);
  }
  EXPECT_FALSE(current_trace().valid());
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_DOUBLE_EQ(spans[0].start_s, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].duration_s(), 2.5);
  EXPECT_TRUE(spans[0].ok);
}

TEST(Trace, NestedScopesFormParentChain) {
  ManualClock clock;
  SpanRing ring(16);
  std::uint64_t outer_span = 0, trace = 0;
  {
    ScopedSpan outer("outer", clock, ring);
    outer_span = outer.context().span_id;
    trace = outer.context().trace_id;
    {
      ScopedSpan inner("inner", clock, ring);
      EXPECT_EQ(inner.context().trace_id, trace);
      EXPECT_NE(inner.context().span_id, outer_span);
    }
    // Inner scope exit restores the outer context.
    EXPECT_EQ(current_trace().span_id, outer_span);
  }
  const auto spans = ring.snapshot();  // inner completes first
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, outer_span);
  EXPECT_EQ(spans[0].trace_id, trace);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(Trace, ContextScopeInstallsWireContext) {
  SpanRing ring(16);
  const TraceContext wire{0xabc, 0xdef};
  {
    TraceContextScope scope(wire);
    ScopedSpan span("handler", WallClock::instance(), ring);
    EXPECT_EQ(span.context().trace_id, 0xabcu);
  }
  EXPECT_FALSE(current_trace().valid());
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0xabcu);
  EXPECT_EQ(spans[0].parent_id, 0xdefu);
}

TEST(Trace, InvalidContextScopeClearsInheritedTrace) {
  SpanRing ring(16);
  ScopedSpan outer("outer", WallClock::instance(), ring);
  {
    TraceContextScope scope(TraceContext{});  // untraced request arrives
    EXPECT_FALSE(current_trace().valid());
    ScopedSpan span("handler", WallClock::instance(), ring);
    EXPECT_NE(span.context().trace_id, outer.context().trace_id);
  }
  EXPECT_EQ(current_trace().span_id, outer.context().span_id);
}

TEST(Trace, StatusMarksSpanFailed) {
  SpanRing ring(4);
  {
    ScopedSpan span("op", WallClock::instance(), ring);
    span.set_status(internal_error("boom"));
  }
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_NE(spans[0].note.find("boom"), std::string::npos);
}

TEST(Trace, RingEvictsOldestAndCountsTotal) {
  SpanRing ring(4);
  for (int i = 0; i < 10; ++i) {
    SpanRecord span;
    span.trace_id = span.span_id = static_cast<std::uint64_t>(i + 1);
    span.name = strings::format("s%d", i);
    ring.record(std::move(span));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: 6,7,8,9 survive.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(Trace, SessionFilter) {
  SpanRing ring(16);
  for (int i = 0; i < 6; ++i) {
    SpanRecord span;
    span.trace_id = span.span_id = static_cast<std::uint64_t>(i + 1);
    span.session = (i % 2 == 0) ? "sess-a" : "sess-b";
    span.name = strings::format("s%d", i);
    ring.record(std::move(span));
  }
  const auto spans = ring.snapshot_session("sess-a");
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) EXPECT_EQ(span.session, "sess-a");
}

TEST(Trace, ContextIsThreadLocal) {
  ScopedSpan span("main-thread", WallClock::instance(), SpanRing::global());
  std::thread other([&] {
    // The worker thread starts untraced; its spans root a fresh trace.
    EXPECT_FALSE(current_trace().valid());
    SpanRing ring(4);
    ScopedSpan worker("worker", WallClock::instance(), ring);
    EXPECT_NE(worker.context().trace_id, span.context().trace_id);
  });
  other.join();
  EXPECT_EQ(current_trace().span_id, span.context().span_id);
}

}  // namespace
}  // namespace ipa::obs
