// Flight recorder: always-on per-thread ring journals of structured events.
//
// Metrics say how much and traces say how long; the flight recorder says
// *what the process was doing* in the seconds before something went wrong.
// Every thread that records gets its own fixed-capacity ring of small POD
// events (state transitions, errors, slow ops, connection lifecycle), so
// the write path is completely lock-free: one relaxed head bump plus a
// per-slot seqlock publish, cheap enough to leave on in Release.
//
// Readers (GET /debug/journal, the crash dump hook, tests) snapshot any
// journal from any thread: the per-slot sequence number is checked before
// and after the copy, so an event being overwritten by the single writer is
// detected and dropped instead of surfacing torn. The journal registry
// itself is a small mutex-guarded table (rank kFlight) touched only on
// thread registration and snapshot — never on the event write path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/sync.hpp"

namespace ipa::obs {

/// Event categories, kept coarse on purpose: the `what`/`detail` strings
/// carry the specifics, the kind is for filtering and dump colouring.
enum class FlightKind : std::uint8_t {
  kState = 0,  // component state transition (engine run/pause/finish...)
  kError,      // failure recorded (engine fail, engine lost, ...)
  kSlowOp,     // span crossed its slow-op threshold
  kConn,       // connection lifecycle (open/close/idle-reap/saturated)
  kOp,         // notable operation (session open/close, restart, ...)
  kMark,       // free-form annotation
};

const char* to_string(FlightKind kind);

/// One journal entry. Fixed-size POD so a seqlocked slot copy is a plain
/// memcpy; strings longer than the fields are truncated on record.
struct FlightEvent {
  double t = 0;            // WallClock seconds
  std::uint64_t a = 0;     // free-form numeric payload (count, id, ...)
  std::uint64_t b = 0;
  FlightKind kind = FlightKind::kMark;
  char what[24] = {};      // event name, e.g. "engine.state"
  char detail[44] = {};    // free text, e.g. the new state or peer address
};

/// Single-writer ring journal with seqlock-published slots. record() must
/// only be called by the owning thread; snapshot() is safe from any thread.
class FlightJournal {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit FlightJournal(std::string name, std::size_t capacity = 256);

  FlightJournal(const FlightJournal&) = delete;
  FlightJournal& operator=(const FlightJournal&) = delete;

  /// Append one event (owner thread only). Never blocks, never allocates.
  void record(FlightKind kind, std::string_view what, std::string_view detail = {},
              std::uint64_t a = 0, std::uint64_t b = 0);

  /// Retained events, newest first, at most `max_events` (0 = all). Events
  /// caught mid-overwrite by the racing writer are skipped, so every
  /// returned event is internally consistent.
  std::vector<FlightEvent> snapshot(std::size_t max_events = 0) const;

  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return capacity_; }
  /// Immutable after construction, so cross-thread reads are safe.
  const std::string& name() const { return name_; }

 private:
  static constexpr std::size_t kEventWords = sizeof(FlightEvent) / sizeof(std::uint64_t);
  static_assert(std::is_trivially_copyable_v<FlightEvent> &&
                sizeof(FlightEvent) % sizeof(std::uint64_t) == 0);

  struct Slot {
    // 2T+1 while ticket T's write is in flight, 2T+2 once it is stable.
    std::atomic<std::uint64_t> seq{0};
    // The event's bytes as relaxed atomic words: a reader may copy a slot
    // while the writer overwrites it (the sequence check then discards the
    // copy), and with plain fields that copy would be a data race.
    std::atomic<std::uint64_t> words[kEventWords];
  };

  const std::string name_;
  std::size_t capacity_;  // power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  // next ticket to write
};

/// Flight events for one thread, as returned by FlightRecorder::snapshot.
struct ThreadFlight {
  std::string thread;
  std::uint64_t total = 0;              // events ever recorded
  std::vector<FlightEvent> events;      // newest first
};

/// Process-wide table of per-thread journals. Journals are held by
/// shared_ptr so a snapshot taken after a thread exits still sees its tail;
/// of the exited threads' journals only the newest kRetainedJournals stay.
class FlightRecorder {
 public:
  static constexpr std::size_t kRetainedJournals = 16;

  explicit FlightRecorder(std::size_t journal_capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The calling thread's journal, registered on first use.
  FlightJournal& local();

  /// Register an explicitly-named journal (tests, dedicated components).
  /// It is never dropped.
  std::shared_ptr<FlightJournal> adopt(std::string name);

  /// Per-thread snapshots, registration order, each newest-first.
  std::vector<ThreadFlight> snapshot(std::size_t max_per_thread = 0) const;

  /// JSON document for GET /debug/journal.
  std::string render_json(std::size_t max_per_thread = 128) const;

  /// Best-effort plain-text dump to a file descriptor (crash/abort path;
  /// write(2) only, no stdio buffering).
  void dump(int fd, std::size_t max_per_thread = 32) const;

  std::size_t journal_count() const;

  static FlightRecorder& global();

  /// Install SIGABRT/SIGSEGV/SIGBUS handlers that dump the global recorder
  /// to stderr and re-raise. Idempotent; meant for daemons (ipa_site), not
  /// libraries or tests.
  static void install_crash_handler();

 private:
  struct Entry {
    std::shared_ptr<FlightJournal> journal;
    std::weak_ptr<const void> owner;  // expires when the thread exits; adopt(): the journal
  };
  std::shared_ptr<FlightJournal> add(std::string name, std::weak_ptr<const void> owner);

  const std::size_t journal_capacity_;
  mutable Mutex mutex_{LockRank::kFlight, "flight-recorder"};
  std::vector<Entry> journals_ IPA_GUARDED_BY(mutex_);
};

/// Record into the calling thread's journal of the global recorder.
void flight(FlightKind kind, std::string_view what, std::string_view detail = {},
            std::uint64_t a = 0, std::uint64_t b = 0);

}  // namespace ipa::obs
