#include "net/fault.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace ipa::net {
namespace {

constexpr std::string_view kChaosPrefix = "chaos+";

/// Every acted-on fault is counted, so chaos tests can assert the injection
/// schedule actually fired and /metrics shows what the run endured.
void count_fault(Fault fault, bool is_send) {
  if (fault == Fault::kNone) return;
  obs::Registry::global()
      .counter("ipa_fault_injected_total",
               {{"dir", is_send ? "send" : "receive"},
                {"kind", std::string(to_string(fault))}},
               "Chaos faults injected by the fault transport, by kind and direction.")
      .inc();
}

/// Process-global dial counters: one ordinal sequence per endpoint name, so
/// connection schedules are reproducible run to run.
std::uint64_t next_ordinal(const std::string& key) {
  static Mutex mutex{LockRank::kRegistry, "fault-ordinals"};
  static std::map<std::string, std::uint64_t> counters;
  LockGuard lock(mutex);
  return counters[key]++;
}

/// Deterministic per-connection fault stream shared by send and receive.
class FaultStream {
 public:
  FaultStream(const FaultPolicy& policy, std::uint64_t ordinal)
      : policy_(policy), ordinal_(ordinal),
        rng_(policy.seed ^ (0x9e3779b97f4a7c15ULL * (ordinal + 1))) {}

  /// Draw the fault for the next operation. `is_send` gates the
  /// deterministic fail_first / disconnect_after triggers, which count
  /// frames on the send side only.
  Fault next(bool is_send) {
    LockGuard lock(mutex_);
    if (is_send) {
      if (ordinal_ < static_cast<std::uint64_t>(policy_.fail_first_connections) &&
          sends_ == 0) {
        ++sends_;
        return Fault::kDisconnect;
      }
      ++sends_;
      if (policy_.disconnect_after_frames != 0 && sends_ > policy_.disconnect_after_frames) {
        return Fault::kDisconnect;
      }
      if (policy_.half_open_after_frames != 0 && sends_ > policy_.half_open_after_frames) {
        return Fault::kHalfOpen;
      }
    }
    return draw_locked();
  }

 private:
  Fault draw_locked() IPA_REQUIRES(mutex_) {
    const double u = rng_.uniform();
    double edge = policy_.disconnect_prob;
    if (u < edge) return Fault::kDisconnect;
    edge += policy_.drop_prob;
    if (u < edge) return Fault::kDrop;
    edge += policy_.truncate_prob;
    if (u < edge) return Fault::kTruncate;
    edge += policy_.delay_prob;
    if (u < edge) return Fault::kDelay;
    edge += policy_.half_open_prob;
    if (u < edge) return Fault::kHalfOpen;
    return Fault::kNone;
  }

  FaultPolicy policy_;
  std::uint64_t ordinal_;
  Mutex mutex_{LockRank::kTransport, "fault-stream"};
  Rng rng_ IPA_GUARDED_BY(mutex_);
  std::uint64_t sends_ IPA_GUARDED_BY(mutex_) = 0;
};

class FaultConnection final : public Connection {
 public:
  FaultConnection(ConnectionPtr inner, const FaultPolicy& policy, std::uint64_t ordinal)
      : inner_(std::move(inner)), policy_(policy), stream_(policy, ordinal) {}

  ~FaultConnection() override { close(); }

  Status send(const ser::Bytes& frame) override {
    if (broken_.load()) return unavailable("chaos: injected disconnect");
    if (half_open_.load()) return Status::ok();  // "sent", never delivered
    const Fault fault = stream_.next(/*is_send=*/true);
    count_fault(fault, /*is_send=*/true);
    switch (fault) {
      case Fault::kDisconnect:
        break_connection();
        return unavailable("chaos: injected disconnect");
      case Fault::kDrop:
        IPA_LOG(trace) << "chaos: dropping sent frame to " << inner_->peer();
        return Status::ok();  // frame vanishes on the wire
      case Fault::kTruncate:
        return inner_->send(prefix_of(frame));
      case Fault::kDelay:
        std::this_thread::sleep_for(std::chrono::duration<double>(policy_.delay_s));
        return inner_->send(frame);
      case Fault::kHalfOpen:
        IPA_LOG(trace) << "chaos: connection to " << inner_->peer() << " went half-open";
        half_open_.store(true);
        return Status::ok();  // the local stack accepted it; nobody will
      case Fault::kNone:
        break;
    }
    return inner_->send(frame);
  }

  Result<ser::Bytes> receive(double timeout_s) override {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s < 0 ? 0.0 : timeout_s);
    for (;;) {
      if (broken_.load()) return unavailable("chaos: injected disconnect");
      double remaining = timeout_s;
      if (timeout_s >= 0) {
        remaining = std::chrono::duration<double>(deadline - std::chrono::steady_clock::now())
                        .count();
        if (remaining <= 0) return deadline_exceeded("chaos: receive timeout");
      }
      if (half_open_.load()) {
        // Dead silence: nothing will ever arrive, but the socket looks
        // open, so the caller just waits out its timeout.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(remaining < 0 ? 0.05 : remaining));
        if (timeout_s < 0) continue;
        return deadline_exceeded("chaos: receive timeout");
      }
      IPA_ASSIGN_OR_RETURN(ser::Bytes frame, inner_->receive(remaining));
      const Fault fault = stream_.next(/*is_send=*/false);
      count_fault(fault, /*is_send=*/false);
      switch (fault) {
        case Fault::kDisconnect:
          break_connection();
          return unavailable("chaos: injected disconnect");
        case Fault::kDrop:
          IPA_LOG(trace) << "chaos: swallowing received frame from " << inner_->peer();
          continue;  // as if it never arrived
        case Fault::kTruncate:
          return prefix_of(frame);
        case Fault::kDelay:
          std::this_thread::sleep_for(std::chrono::duration<double>(policy_.delay_s));
          return frame;
        case Fault::kHalfOpen:
          IPA_LOG(trace) << "chaos: connection to " << inner_->peer() << " went half-open";
          half_open_.store(true);
          continue;  // the frame it would have delivered is lost
        case Fault::kNone:
          break;
      }
      return frame;
    }
  }

  void close() override { inner_->close(); }

  std::string peer() const override { return "chaos:" + inner_->peer(); }

 private:
  static ser::Bytes prefix_of(const ser::Bytes& frame) {
    return ser::Bytes(frame.begin(), frame.begin() + static_cast<long>(frame.size() / 2));
  }

  void break_connection() {
    broken_.store(true);
    inner_->close();
  }

  ConnectionPtr inner_;
  FaultPolicy policy_;
  FaultStream stream_;
  std::atomic<bool> broken_{false};
  std::atomic<bool> half_open_{false};
};

Result<double> parse_prob(const Uri& endpoint, const char* key) {
  const std::string text = endpoint.query_or(key);
  if (text.empty()) return 0.0;
  double value = 0;
  if (!strings::parse_f64(text, value) || value < 0 || value > 1) {
    return invalid_argument(std::string("chaos: bad probability '") + key + "=" + text + "'");
  }
  return value;
}

Result<std::uint64_t> parse_count(const Uri& endpoint, const char* key) {
  const std::string text = endpoint.query_or(key);
  if (text.empty()) return std::uint64_t{0};
  std::uint64_t value = 0;
  if (!strings::parse_u64(text, value)) {
    return invalid_argument(std::string("chaos: bad count '") + key + "=" + text + "'");
  }
  return value;
}

Uri strip_chaos(const Uri& endpoint) {
  Uri inner = endpoint;
  inner.scheme = endpoint.scheme.substr(kChaosPrefix.size());
  inner.query.clear();  // policy parameters are not the inner transport's business
  return inner;
}

}  // namespace

std::string_view to_string(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kDrop: return "drop";
    case Fault::kDelay: return "delay";
    case Fault::kTruncate: return "truncate";
    case Fault::kDisconnect: return "disconnect";
    case Fault::kHalfOpen: return "half-open";
  }
  return "?";
}

Result<FaultPolicy> FaultPolicy::from_uri(const Uri& endpoint) {
  FaultPolicy policy;
  IPA_ASSIGN_OR_RETURN(const std::uint64_t seed, parse_count(endpoint, "seed"));
  if (seed != 0) policy.seed = seed;
  IPA_ASSIGN_OR_RETURN(policy.disconnect_prob, parse_prob(endpoint, "disconnect"));
  IPA_ASSIGN_OR_RETURN(policy.drop_prob, parse_prob(endpoint, "drop"));
  IPA_ASSIGN_OR_RETURN(policy.truncate_prob, parse_prob(endpoint, "truncate"));
  IPA_ASSIGN_OR_RETURN(policy.delay_prob, parse_prob(endpoint, "delay_p"));
  IPA_ASSIGN_OR_RETURN(const std::uint64_t delay_ms, parse_count(endpoint, "delay_ms"));
  if (delay_ms != 0) policy.delay_s = static_cast<double>(delay_ms) / 1000.0;
  IPA_ASSIGN_OR_RETURN(policy.half_open_prob, parse_prob(endpoint, "half_open"));
  IPA_ASSIGN_OR_RETURN(policy.disconnect_after_frames,
                       parse_count(endpoint, "disconnect_after"));
  IPA_ASSIGN_OR_RETURN(policy.half_open_after_frames,
                       parse_count(endpoint, "half_open_after"));
  IPA_ASSIGN_OR_RETURN(const std::uint64_t fail_first, parse_count(endpoint, "fail_first"));
  policy.fail_first_connections = static_cast<int>(fail_first);
  return policy;
}

Result<Listening> listen_chaos(const Uri& endpoint) {
  IPA_RETURN_IF_ERROR(FaultPolicy::from_uri(endpoint).status());  // reject bad policy early
  IPA_ASSIGN_OR_RETURN(Listening listening, listen(strip_chaos(endpoint)));
  listening.endpoint.scheme = endpoint.scheme;
  listening.endpoint.query = endpoint.query;  // dialers must inherit the policy
  return listening;
}

Result<ConnectionPtr> connect_chaos(const Uri& endpoint, double timeout_s) {
  IPA_ASSIGN_OR_RETURN(const FaultPolicy policy, FaultPolicy::from_uri(endpoint));
  IPA_ASSIGN_OR_RETURN(ConnectionPtr inner, connect(strip_chaos(endpoint), timeout_s));
  const std::uint64_t ordinal = next_ordinal(endpoint.to_string());
  return ConnectionPtr(new FaultConnection(std::move(inner), policy, ordinal));
}

std::vector<Fault> preview_schedule(const FaultPolicy& policy, std::uint64_t ordinal,
                                    std::size_t n) {
  FaultStream stream(policy, ordinal);
  std::vector<Fault> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(stream.next(/*is_send=*/true));
  return out;
}

bool is_chaos_scheme(std::string_view scheme) {
  if (!strings::starts_with(scheme, kChaosPrefix)) return false;
  const std::string_view inner = scheme.substr(kChaosPrefix.size());
  return inner == "inproc" || inner == "tcp";
}

}  // namespace ipa::net
