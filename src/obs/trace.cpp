#include "obs/trace.hpp"

#include <atomic>

#include "common/strings.hpp"
#include "obs/flight.hpp"

namespace ipa::obs {
namespace {

thread_local TraceContext t_current{};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void set_current(TraceContext context) { t_current = context; }

}  // namespace

TraceContext current_trace() { return t_current; }

std::uint64_t new_trace_id() {
  static std::atomic<std::uint64_t> counter{1};
  std::uint64_t id = 0;
  while (id == 0) {  // 0 is the "no trace" sentinel
    id = splitmix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

SpanRing::SpanRing(std::size_t capacity, std::size_t slow_capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slow_capacity_(slow_capacity == 0 ? 1 : slow_capacity) {
  ring_.reserve(capacity_);
}

void SpanRing::record(SpanRecord span) {
  const double duration_s = span.duration_s();
  bool slow = false;
  std::string slow_name;
  {
    LockGuard lock(mutex_);
    ++total_;
    slow = duration_s >= slow_threshold_s_;
    if (slow) {
      // The span's children (same trace) finished before it and are still
      // in the ring unless traffic already evicted them.
      SlowOp op{span, {}};
      for (std::size_t i = 0; i < ring_.size(); ++i) {
        const SpanRecord& other = ring_[(next_ + i) % ring_.size()];
        if (other.trace_id == span.trace_id) op.children.push_back(other);
      }
      ++slow_total_;
      slow_ops_.push_front(std::move(op));
      if (slow_ops_.size() > slow_capacity_) slow_ops_.pop_back();
      slow_name = span.name;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(span));
    } else {
      ring_[next_] = std::move(span);
      next_ = (next_ + 1) % capacity_;
    }
  }
  // Cross-reference in the flight journal, outside the ring lock: the slow
  // op shows up in the timeline of whatever else this thread was doing.
  if (slow) {
    flight(FlightKind::kSlowOp, "slow-op", slow_name,
           static_cast<std::uint64_t>(duration_s < 0 ? 0 : duration_s * 1e3));
  }
}

std::vector<SpanRecord> SpanRing::snapshot() const {
  LockGuard lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest first: [next_, end) then [0, next_) once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<SpanRecord> SpanRing::snapshot_session(const std::string& session) const {
  std::vector<SpanRecord> all = snapshot();
  std::vector<SpanRecord> out;
  for (auto& span : all) {
    if (span.session == session) out.push_back(std::move(span));
  }
  return out;
}

std::uint64_t SpanRing::total_recorded() const {
  LockGuard lock(mutex_);
  return total_;
}

void SpanRing::set_slow_threshold(double seconds) {
  LockGuard lock(mutex_);
  slow_threshold_s_ = seconds;
}

std::vector<SlowOp> SpanRing::slow_snapshot(std::size_t max_ops) const {
  LockGuard lock(mutex_);
  const std::size_t want =
      max_ops == 0 || max_ops > slow_ops_.size() ? slow_ops_.size() : max_ops;
  return std::vector<SlowOp>(slow_ops_.begin(),
                             slow_ops_.begin() + static_cast<std::ptrdiff_t>(want));
}

std::uint64_t SpanRing::slow_total() const {
  LockGuard lock(mutex_);
  return slow_total_;
}

std::string SpanRing::render_slow_json(std::size_t max_ops) const {
  double threshold = 0;
  std::uint64_t total = 0;
  {
    LockGuard lock(mutex_);
    threshold = slow_threshold_s_;
    total = slow_total_;
  }
  std::string body = "{\"default_threshold_s\":" + strings::format("%.6f", threshold);
  body += ",\"total_retained\":" + std::to_string(total);
  body += ",\"ops\":[";
  bool first = true;
  for (const SlowOp& op : slow_snapshot(max_ops)) {
    if (!first) body += ',';
    first = false;
    body += "{\"root\":" + span_json(op.root);
    body += ",\"children\":[";
    bool first_child = true;
    for (const SpanRecord& child : op.children) {
      if (!first_child) body += ',';
      first_child = false;
      body += span_json(child);
    }
    body += "]}";
  }
  body += "]}";
  return body;
}

SpanRing& SpanRing::global() {
  static SpanRing* ring = new SpanRing(4096);  // leaked: outlives all users
  return *ring;
}

TraceContextScope::TraceContextScope(TraceContext context) : prev_(current_trace()) {
  set_current(context.valid() ? context : TraceContext{});
}

TraceContextScope::~TraceContextScope() { set_current(prev_); }

ScopedSpan::ScopedSpan(std::string name, const Clock& clock, SpanRing& ring,
                       std::string session)
    : clock_(&clock), ring_(&ring), prev_(current_trace()) {
  record_.name = std::move(name);
  record_.session = std::move(session);
  record_.trace_id = prev_.valid() ? prev_.trace_id : new_trace_id();
  record_.span_id = new_trace_id();
  record_.parent_id = prev_.valid() ? prev_.span_id : 0;
  record_.start_s = clock_->now();
  set_current({record_.trace_id, record_.span_id});
}

ScopedSpan::~ScopedSpan() {
  record_.end_s = clock_->now();
  set_current(prev_);
  ring_->record(std::move(record_));
}

void ScopedSpan::set_status(const Status& status) {
  if (status.is_ok()) return;
  record_.ok = false;
  if (record_.note.empty()) record_.note = status.to_string();
}

std::string span_json(const SpanRecord& span) {
  std::string out = "{\"name\":\"" + strings::json_escape(span.name) + "\"";
  out += ",\"trace\":\"" + strings::format("%016llx", (unsigned long long)span.trace_id) + "\"";
  out += ",\"span\":\"" + strings::format("%016llx", (unsigned long long)span.span_id) + "\"";
  out += ",\"parent\":\"" + strings::format("%016llx", (unsigned long long)span.parent_id) + "\"";
  if (!span.session.empty()) out += ",\"session\":\"" + strings::json_escape(span.session) + "\"";
  out += ",\"start\":" + strings::format("%.6f", span.start_s);
  out += ",\"duration\":" + strings::format("%.6f", span.duration_s());
  out += ",\"ok\":" + std::string(span.ok ? "true" : "false");
  if (!span.note.empty()) out += ",\"note\":\"" + strings::json_escape(span.note) + "\"";
  out += '}';
  return out;
}

}  // namespace ipa::obs
