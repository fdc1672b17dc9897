#include "common/sync.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/clock.hpp"

namespace ipa {

const char* to_string(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "unranked";
    case LockRank::kIds: return "ids";
    case LockRank::kLog: return "log";
    case LockRank::kFlight: return "flight";
    case LockRank::kMetrics: return "metrics";
    case LockRank::kTrace: return "trace";
    case LockRank::kRegistry: return "registry";
    case LockRank::kTransport: return "transport";
    case LockRank::kReactor: return "reactor";
    case LockRank::kReactorStream: return "reactor-stream";
    case LockRank::kWorkerPool: return "worker-pool";
    case LockRank::kServer: return "server";
    case LockRank::kChannel: return "channel";
    case LockRank::kEngine: return "engine";
    case LockRank::kEngineRun: return "engine-run";
    case LockRank::kAida: return "aida";
    case LockRank::kSession: return "session";
    case LockRank::kResourceSet: return "resource-set";
    case LockRank::kManager: return "manager";
    case LockRank::kLoadStats: return "load-stats";
    case LockRank::kLoadDriver: return "load-driver";
  }
  return "?";
}

// --- Per-rank contention accounting ----------------------------------------
//
// One fixed table of relaxed atomics indexed by rank value: the contended
// path already paid a futex wait, so two fetch_adds are noise, and the
// uncontended path never gets here at all. Always compiled in (unlike the
// rank checker) so Release bench/load runs report real contention.

namespace sync_detail {
namespace {

// LockRank values lie in [0, 190]; one slot per value, so every rank
// (72 and 74 included) is counted apart.
constexpr int kRankSlots = 200;

struct RankStat {
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> wait_ns{0};
};

RankStat g_contention[kRankSlots];

int rank_slot(LockRank rank) {
  const int slot = static_cast<int>(rank);
  return (slot < 0 || slot >= kRankSlots) ? 0 : slot;
}

}  // namespace

double contention_now_s() { return WallClock::instance().now(); }

void note_contended(LockRank rank, double wait_s) {
  if (wait_s < 0) wait_s = 0;
  RankStat& stat = g_contention[rank_slot(rank)];
  stat.contended.fetch_add(1, std::memory_order_relaxed);
  stat.wait_ns.fetch_add(static_cast<std::uint64_t>(wait_s * 1e9),
                         std::memory_order_relaxed);
}

}  // namespace sync_detail

std::vector<LockContention> lock_contention_snapshot() {
  std::vector<LockContention> out;
  for (int slot = 0; slot < sync_detail::kRankSlots; ++slot) {
    const std::uint64_t contended =
        sync_detail::g_contention[slot].contended.load(std::memory_order_relaxed);
    if (contended == 0) continue;
    LockContention entry;
    entry.rank = static_cast<LockRank>(slot);
    entry.contended = contended;
    entry.wait_s =
        static_cast<double>(
            sync_detail::g_contention[slot].wait_ns.load(std::memory_order_relaxed)) *
        1e-9;
    out.push_back(entry);
  }
  return out;
}

#if IPA_LOCK_CHECKS
namespace sync_detail {
namespace {

struct Held {
  LockRank rank;
  const char* name;
};

// Plenty for any sane nesting; overflow aborts rather than corrupting.
constexpr int kMaxHeld = 32;

struct HeldStack {
  Held entries[kMaxHeld];
  int depth = 0;
};

thread_local HeldStack t_held;

[[noreturn]] void rank_abort(const char* what, LockRank rank, const char* name) {
  std::fprintf(stderr,
               "ipa lock-rank violation: %s rank=%s (\"%s\") while holding:\n",
               what, to_string(rank), name);
  for (int i = t_held.depth - 1; i >= 0; --i) {
    std::fprintf(stderr, "  [%d] rank=%s (\"%s\")\n", i,
                 to_string(t_held.entries[i].rank), t_held.entries[i].name);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void note_acquire(LockRank rank, const char* name) {
  if (t_held.depth >= kMaxHeld) rank_abort("lock stack overflow acquiring", rank, name);
  if (rank != LockRank::kUnranked) {
    for (int i = 0; i < t_held.depth; ++i) {
      const Held& held = t_held.entries[i];
      if (held.rank == LockRank::kUnranked) continue;
      // Leaf -> root ordering: nested acquisitions must strictly descend.
      // Equal ranks nesting would self-deadlock on a non-recursive mutex.
      if (rank >= held.rank) rank_abort("out-of-order acquisition of", rank, name);
    }
  }
  t_held.entries[t_held.depth++] = Held{rank, name};
}

void note_release(LockRank rank, const char* name) {
  // Locks are usually released in LIFO order, but unique_lock allows
  // arbitrary order; search from the top for the matching entry.
  for (int i = t_held.depth - 1; i >= 0; --i) {
    if (t_held.entries[i].rank == rank && t_held.entries[i].name == name) {
      for (int j = i; j < t_held.depth - 1; ++j) {
        t_held.entries[j] = t_held.entries[j + 1];
      }
      --t_held.depth;
      return;
    }
  }
  rank_abort("release of un-held", rank, name);
}

int held_depth() { return t_held.depth; }

}  // namespace sync_detail
#endif  // IPA_LOCK_CHECKS

}  // namespace ipa
