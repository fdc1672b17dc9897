#include "obs/trace.hpp"

#include <atomic>

#include "common/strings.hpp"
#include "obs/slow.hpp"

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

SpanRing::SpanRing(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SpanRing::record(SpanRecord span) {
  // Threshold check outside the ring lock: threshold_for takes the store's
  // own (lower-ranked) mutex and most spans are fast, so the common path
  // adds one relaxed pointer load.
  SlowOpStore* store = slow_store_.load(std::memory_order_acquire);
  const bool slow =
      store != nullptr && span.duration_s() >= store->threshold_for(span.name);

  LockGuard lock(mutex_);
  ++total_;
  std::vector<SpanRecord> children;
  if (slow) {
    // The completing span's children (same trace) finished before it and
    // are still in the ring unless traffic already evicted them.
    for (const SpanRecord& other : ring_) {
      if (other.trace_id == span.trace_id && other.span_id != span.span_id) {
        children.push_back(other);
      }
    }
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[next_] = span;
    next_ = (next_ + 1) % capacity_;
  }
  // kSlowOps (35) nests under kTrace (40): rank-ordered by design.
  if (slow) store->offer(std::move(span), std::move(children));
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

SpanRing& SpanRing::global() {
  static SpanRing* ring = [] {
    auto* r = new SpanRing(4096);  // leaked: outlives all users
    r->attach_slow_store(&SlowOpStore::global());
    return r;
  }();
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
