// Trace spans: 64-bit trace/span ids with parent propagation, a bounded
// ring of completed spans that also keeps the recent slow operations, and
// RAII timing against an ipa::Clock.
//
// The propagation model is deliberately small: a thread-local TraceContext
// names the active span. ScopedSpan pushes itself as current for its
// lifetime (parent = whatever was current), so nested scopes form the span
// tree without any plumbing through call signatures. Cross-process hops
// carry the context in-band — an <ipa:Trace> SOAP header and two trailing
// varints on the binary RPC request frame — and the receiving server
// installs it with TraceContextScope before dispatching, so client call
// spans parent server operation spans.
//
// Timing goes through ipa::Clock: wall-time sites and gridsim virtual-time
// runs (or ManualClock tests) produce spans with the same machinery.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"

namespace ipa::obs {

/// The active span, as carried across call boundaries. trace_id groups one
/// request tree; span_id is the node whose children-to-be will point at it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// The calling thread's current context ({0,0} when none).
TraceContext current_trace();
/// Non-zero process-unique id (counter mixed through splitmix64, so ids
/// from concurrent threads interleave without coordination).
std::uint64_t new_trace_id();

/// One completed span.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;
  std::string session;  // session id label, "" when not session-scoped
  double start_s = 0;   // Clock seconds (wall or virtual)
  double end_s = 0;
  bool ok = true;
  std::string note;  // error text or free-form annotation
  double duration_s() const { return end_s - start_s; }
};

/// One span as a JSON object (the /status and /debug/slow span shape).
std::string span_json(const SpanRecord& span);

/// One retained slow operation: the threshold-crossing span and whatever
/// spans of the same trace were still in the ring when it completed.
struct SlowOp {
  SpanRecord root;
  std::vector<SpanRecord> children;  // same trace_id, oldest first
};

/// The one store of completed spans. It keeps the most recent spans of
/// everything in a bounded ring (newest evicting oldest; GET /status), and
/// a short newest-first list of slow operations (GET /debug/slow): a span
/// at or above the slow threshold is kept with its same-trace children, so
/// an 800 ms outlier can still be explained after healthy traffic has
/// cycled the ring many times. The site keeps one global ring; tests
/// construct their own.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity = 2048, std::size_t slow_capacity = 64);

  void record(SpanRecord span);
  /// Retained spans, oldest first.
  std::vector<SpanRecord> snapshot() const;
  /// Retained spans for one session, oldest first.
  std::vector<SpanRecord> snapshot_session(const std::string& session) const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_recorded() const;

  /// Spans at least this long are kept as slow operations. <= 0 keeps
  /// every span (tests).
  void set_slow_threshold(double seconds);
  /// Slow operations, newest first, at most `max_ops` (0 = all).
  std::vector<SlowOp> slow_snapshot(std::size_t max_ops = 0) const;
  /// Slow operations ever kept, since-evicted ones included.
  std::uint64_t slow_total() const;
  /// JSON document for GET /debug/slow.
  std::string render_slow_json(std::size_t max_ops = 32) const;

  static SpanRing& global();

 private:
  const std::size_t capacity_;
  const std::size_t slow_capacity_;
  mutable Mutex mutex_{LockRank::kTrace, "span-ring"};
  std::vector<SpanRecord> ring_ IPA_GUARDED_BY(mutex_);
  std::size_t next_ IPA_GUARDED_BY(mutex_) = 0;  // ring_ insertion cursor once full
  std::uint64_t total_ IPA_GUARDED_BY(mutex_) = 0;
  double slow_threshold_s_ IPA_GUARDED_BY(mutex_) = 0.25;
  std::deque<SlowOp> slow_ops_ IPA_GUARDED_BY(mutex_);  // newest at front
  std::uint64_t slow_total_ IPA_GUARDED_BY(mutex_) = 0;
};

/// Install a specific context (e.g. decoded from a wire header) as the
/// thread's current trace for the scope's lifetime. An invalid context
/// installs "no trace" — a server thread handling an untraced request must
/// not inherit a context left over from the previous request.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// RAII span: starts on construction, becomes the thread's current context,
/// records into the ring on destruction. Continues the current trace when
/// one is active, otherwise starts a new trace as a root span.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, const Clock& clock = WallClock::instance(),
                      SpanRing& ring = SpanRing::global(), std::string session = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceContext context() const { return {record_.trace_id, record_.span_id}; }
  double elapsed_s() const { return clock_->now() - record_.start_s; }

  void set_session(std::string session) { record_.session = std::move(session); }
  void set_note(std::string note) { record_.note = std::move(note); }
  /// Mark the span failed; a non-ok status also fills the note.
  void set_status(const Status& status);

 private:
  const Clock* clock_;
  SpanRing* ring_;
  SpanRecord record_;
  TraceContext prev_;
};

}  // namespace ipa::obs
