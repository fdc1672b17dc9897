#include "obs/slow.hpp"

#include "common/strings.hpp"
#include "obs/flight.hpp"

namespace ipa::obs {

SlowOpStore::SlowOpStore(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void SlowOpStore::set_default_threshold(double seconds) {
  LockGuard lock(mutex_);
  default_threshold_s_ = seconds;
}

void SlowOpStore::set_threshold(std::string op_prefix, double seconds) {
  LockGuard lock(mutex_);
  overrides_[std::move(op_prefix)] = seconds;
}

double SlowOpStore::threshold_for(std::string_view name) const {
  LockGuard lock(mutex_);
  double best = default_threshold_s_;
  std::size_t best_len = 0;
  bool matched = false;
  for (const auto& [prefix, threshold] : overrides_) {
    if ((!matched || prefix.size() >= best_len) &&
        name.substr(0, prefix.size()) == prefix) {
      best = threshold;
      best_len = prefix.size();
      matched = true;
    }
  }
  return best;
}

void SlowOpStore::offer(SpanRecord root, std::vector<SpanRecord> children) {
  const double duration_ms = root.duration_s() * 1e3;
  const std::string name = root.name;
  {
    LockGuard lock(mutex_);
    ++total_;
    ops_.push_front(SlowOp{std::move(root), std::move(children)});
    while (ops_.size() > capacity_) ops_.pop_back();
  }
  // Cross-reference in the flight journal: the slow op shows up in the
  // timeline of whatever else that thread was doing around it.
  flight(FlightKind::kSlowOp, "slow-op", name,
         static_cast<std::uint64_t>(duration_ms < 0 ? 0 : duration_ms));
}

std::vector<SlowOp> SlowOpStore::snapshot(std::size_t max_ops) const {
  LockGuard lock(mutex_);
  std::vector<SlowOp> out;
  const std::size_t want =
      max_ops == 0 || max_ops > ops_.size() ? ops_.size() : max_ops;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) out.push_back(ops_[i]);
  return out;
}

std::uint64_t SlowOpStore::total_retained() const {
  LockGuard lock(mutex_);
  return total_;
}

std::string SlowOpStore::render_json(std::size_t max_ops) const {
  double threshold = 0;
  {
    LockGuard lock(mutex_);
    threshold = default_threshold_s_;
  }
  const std::vector<SlowOp> ops = snapshot(max_ops);
  std::string body = "{\"default_threshold_s\":" + strings::format("%.6f", threshold);
  body += ",\"total_retained\":" + std::to_string(total_retained());
  body += ",\"ops\":[";
  bool first = true;
  for (const SlowOp& op : ops) {
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

SlowOpStore& SlowOpStore::global() {
  static SlowOpStore* store = new SlowOpStore();  // leaked: outlives all users
  return *store;
}

}  // namespace ipa::obs
