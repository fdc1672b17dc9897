// Fluid-flow network link model with max-min fair sharing.
//
// A SharedLink has an aggregate capacity (MB/s) and an optional per-flow
// rate cap (a single GridFTP stream rarely saturates a LAN). Active flows
// share the capacity equally, subject to the per-flow cap; whenever a flow
// starts or finishes, every remaining flow's rate is recomputed and its
// completion event rescheduled — the standard fluid approximation used by
// grid/network simulators.
//
// A latency + per-transfer setup cost models GridFTP connection
// establishment (the paper's "overhead that will increase with the number
// of target files").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "gridsim/sim.hpp"

namespace ipa::gridsim {

class SharedLink {
 public:
  struct Params {
    double capacity_mbps = 100.0;     // aggregate MB/s
    double per_flow_mbps = 0.0;       // 0 = unlimited per flow
    double latency_s = 0.0;           // propagation delay per transfer
    double setup_s = 0.0;             // per-transfer session setup
  };

  SharedLink(Simulation& sim, std::string name, Params params)
      : sim_(&sim), name_(std::move(name)), params_(params) {}

  /// Start a transfer of `mb` megabytes; `done` fires (in sim time) when
  /// the last byte arrives. Returns a flow id.
  std::uint64_t start_flow(double mb, std::function<void()> done);

  const std::string& name() const { return name_; }
  const Params& params() const { return params_; }

  /// Total megabytes ever carried (for utilization accounting).
  double carried_mb() const { return carried_mb_; }

 private:
  struct Flow {
    bool active = false;       // false while paying latency+setup
    double remaining_mb;
    double rate;               // current MB/s
    SimTime last_update;
    std::uint64_t epoch = 0;   // invalidates stale completion events
    std::function<void()> done;
  };

  double fair_rate() const;
  void rebalance();
  void schedule_completion(std::uint64_t id);
  void complete(std::uint64_t id, std::uint64_t epoch);

  Simulation* sim_;
  std::string name_;
  Params params_;
  std::map<std::uint64_t, Flow> flows_;
  std::uint64_t next_id_ = 1;
  double carried_mb_ = 0;
};

/// A strictly serial stage (disk head, tape drive, splitter output spool):
/// requests are served FIFO at a fixed rate. Used to model the splitter
/// node's disk feeding parallel GridFTP streams.
class SerialStage {
 public:
  SerialStage(Simulation& sim, std::string name, double rate_mbps)
      : sim_(&sim), name_(std::move(name)), rate_mbps_(rate_mbps) {}

  /// Enqueue `mb` of work; `done` fires when this request completes
  /// (all earlier requests complete first).
  void submit(double mb, std::function<void()> done);

  const std::string& name() const { return name_; }
  double rate_mbps() const { return rate_mbps_; }

 private:
  Simulation* sim_;
  std::string name_;
  double rate_mbps_;
  SimTime busy_until_ = 0;
};

}  // namespace ipa::gridsim
