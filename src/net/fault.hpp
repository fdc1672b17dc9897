// Fault-injecting transport decorator: deterministic chaos for every
// message-framed hop in IPA.
//
// Endpoints under the "chaos+inproc" / "chaos+tcp" schemes behave exactly
// like their inner scheme, except that connections *dialed* through them
// inject faults into send() and receive() according to a seeded
// FaultPolicy carried in the endpoint's query string:
//
//   chaos+inproc://mgr-rpc?seed=42&drop=0.05&truncate=0.02&delay_p=0.2
//
// Listening on a chaos endpoint binds the inner scheme and re-brands the
// bound endpoint, so a manager configured with a chaos RPC endpoint hands
// chaos URIs to every worker and client — the whole deployment then runs
// under fault injection with no component changes.
//
// Determinism: every connection draws its faults from an Rng seeded by
// (policy seed, connection ordinal); the ordinal counts connections dialed
// to that endpoint within the process. Same seed and same per-connection
// operation sequence => same injected-fault schedule. preview_schedule()
// exposes the schedule directly so tests can assert reproducibility.
#pragma once

#include <cstdint>
#include <vector>

#include "net/transport.hpp"

namespace ipa::net {

/// What the decorator may do to one frame-level operation.
enum class Fault {
  kNone,        // pass through untouched
  kDrop,        // frame silently discarded (send) / swallowed (receive)
  kDelay,       // frame delivered after delay_s
  kTruncate,    // only a prefix of the frame is delivered
  kDisconnect,  // connection is torn down instead of delivering
  kHalfOpen,    // sticky black hole: sends "succeed" but deliver nothing,
                // receives block to timeout — a peer that vanished without
                // FIN (dead NAT entry, yanked cable). Only the server's
                // idle-timeout reaper gets rid of such a connection.
};

std::string_view to_string(Fault fault);

/// Per-endpoint fault configuration. Probabilities are per operation and
/// are checked in the order disconnect, drop, truncate, delay.
struct FaultPolicy {
  std::uint64_t seed = 1;
  double disconnect_prob = 0.0;
  double drop_prob = 0.0;
  double truncate_prob = 0.0;
  double delay_prob = 0.0;
  double delay_s = 0.005;
  /// Probability that an operation flips the connection into the sticky
  /// half-open state (see Fault::kHalfOpen). Once drawn it never heals.
  double half_open_prob = 0.0;
  /// Tear the connection down after this many successful sends (0 = never).
  std::uint64_t disconnect_after_frames = 0;
  /// Go half-open after this many sends (0 = never) — the deterministic
  /// variant for reaper tests.
  std::uint64_t half_open_after_frames = 0;
  /// The first N connections dialed to the endpoint die on their first
  /// send, before the frame is delivered — a deterministic "link died
  /// mid-handshake" for retry tests.
  int fail_first_connections = 0;

  /// Parse from a chaos endpoint's query string. Unknown keys are ignored;
  /// malformed values are an error. Keys: seed, disconnect, drop, truncate,
  /// delay_p, delay_ms, half_open, disconnect_after, half_open_after,
  /// fail_first.
  static Result<FaultPolicy> from_uri(const Uri& endpoint);
};

/// listen() for a chaos+ endpoint: binds the inner endpoint and reports the
/// chaos endpoint (query kept) so dialers inherit the policy. Accepted
/// connections carry no faults: each logical link has one schedule, drawn
/// on the dialing side.
Result<Listening> listen_chaos(const Uri& endpoint);

/// connect() for a chaos+ endpoint: dials the inner endpoint and wraps the
/// connection with the policy parsed from `endpoint`'s query.
Result<ConnectionPtr> connect_chaos(const Uri& endpoint, double timeout_s);

/// The first `n` fault decisions a connection with this policy and ordinal
/// will draw, in operation order. Pure function of (policy.seed, ordinal):
/// lets tests assert "same seed => same schedule" without timing races.
std::vector<Fault> preview_schedule(const FaultPolicy& policy, std::uint64_t ordinal,
                                    std::size_t n);

/// True when `scheme` is "chaos+<inner>" for a supported inner scheme.
bool is_chaos_scheme(std::string_view scheme);

}  // namespace ipa::net
