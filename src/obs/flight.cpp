#include "obs/flight.hpp"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/clock.hpp"
#include "common/strings.hpp"

namespace ipa::obs {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

void copy_truncated(char* dst, std::size_t dst_size, std::string_view src) {
  const std::size_t n = src.size() < dst_size - 1 ? src.size() : dst_size - 1;
  if (n != 0) std::memcpy(dst, src.data(), n);  // an empty view's data() may be null
  dst[n] = '\0';
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kState: return "state";
    case FlightKind::kError: return "error";
    case FlightKind::kSlowOp: return "slow-op";
    case FlightKind::kConn: return "conn";
    case FlightKind::kOp: return "op";
    case FlightKind::kMark: return "mark";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FlightJournal
// ---------------------------------------------------------------------------

FlightJournal::FlightJournal(std::string name, std::size_t capacity)
    : name_(std::move(name)),
      capacity_(round_up_pow2(capacity)),
      slots_(new Slot[capacity_]) {}

void FlightJournal::record(FlightKind kind, std::string_view what,
                           std::string_view detail, std::uint64_t a, std::uint64_t b) {
  FlightEvent event;
  event.t = WallClock::instance().now();
  event.a = a;
  event.b = b;
  event.kind = kind;
  copy_truncated(event.what, sizeof event.what, what);
  copy_truncated(event.detail, sizeof event.detail, detail);
  std::uint64_t words[kEventWords];
  std::memcpy(words, &event, sizeof event);

  const std::uint64_t ticket = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  // Odd marks the write in flight; a concurrent reader of the evicted event
  // sees the sequence move and discards its copy instead of surfacing torn
  // fields. The release fence keeps the word stores below from becoming
  // visible before the odd sequence. The IPA_SCHED_POINT markers let
  // tests/model explore a snapshot landing between any pair of these
  // stores; they compile to nothing in Release.
  IPA_SCHED_POINT();
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kEventWords; ++i) {
    IPA_SCHED_POINT();
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
  IPA_SCHED_POINT();
  head_.store(ticket + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightJournal::snapshot(std::size_t max_events) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t available = head < capacity_ ? head : capacity_;
  std::uint64_t want = available;
  if (max_events != 0 && max_events < want) want = max_events;

  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(want));
  for (std::uint64_t i = 0; i < want; ++i) {
    const std::uint64_t ticket = head - 1 - i;
    const Slot& slot = slots_[ticket & (capacity_ - 1)];
    const std::uint64_t expected = 2 * ticket + 2;
    IPA_SCHED_POINT();
    if (slot.seq.load(std::memory_order_acquire) != expected) continue;
    IPA_SCHED_POINT();
    std::uint64_t words[kEventWords];
    for (std::size_t w = 0; w < kEventWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    IPA_SCHED_POINT();
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != expected) continue;
    FlightEvent copy;
    std::memcpy(&copy, words, sizeof copy);
    out.push_back(copy);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t journal_capacity)
    : journal_capacity_(journal_capacity) {}

std::shared_ptr<FlightJournal> FlightRecorder::add(std::string name,
                                                   std::weak_ptr<const void> owner) {
  auto journal = std::make_shared<FlightJournal>(std::move(name), journal_capacity_);
  if (owner.expired()) owner = journal;  // adopted: owned by its own entry
  LockGuard lock(mutex_);
  // The table grows here, so here exited threads' journals beyond the
  // newest kRetainedJournals go.
  std::size_t exited = 0;
  for (std::size_t i = journals_.size(); i-- > 0;) {
    if (journals_[i].owner.expired() && ++exited > kRetainedJournals) {
      journals_.erase(journals_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  journals_.push_back({journal, std::move(owner)});
  return journal;
}

std::shared_ptr<FlightJournal> FlightRecorder::adopt(std::string name) {
  return add(std::move(name), {});
}

FlightJournal& FlightRecorder::local() {
  struct ThreadSlot {
    FlightRecorder* owner = nullptr;
    std::shared_ptr<FlightJournal> journal;
    std::shared_ptr<const int> alive = std::make_shared<const int>(0);  // dies with the thread
  };
  thread_local ThreadSlot slot;
  if (slot.owner != this) {
    static std::atomic<std::uint64_t> next_thread{0};
    slot.journal = add(strings::format(
        "thread-%llu",
        static_cast<unsigned long long>(next_thread.fetch_add(1))), slot.alive);
    slot.owner = this;
  }
  return *slot.journal;
}

std::vector<ThreadFlight> FlightRecorder::snapshot(std::size_t max_per_thread) const {
  std::vector<std::shared_ptr<FlightJournal>> journals;
  {
    LockGuard lock(mutex_);
    for (const Entry& entry : journals_) journals.push_back(entry.journal);
  }
  std::vector<ThreadFlight> out;
  out.reserve(journals.size());
  for (const auto& journal : journals) {
    ThreadFlight flight;
    flight.thread = journal->name();
    flight.total = journal->total_recorded();
    flight.events = journal->snapshot(max_per_thread);
    out.push_back(std::move(flight));
  }
  return out;
}

std::string FlightRecorder::render_json(std::size_t max_per_thread) const {
  const std::vector<ThreadFlight> threads = snapshot(max_per_thread);
  std::string body = "{\"threads\":[";
  bool first_thread = true;
  for (const ThreadFlight& thread : threads) {
    if (!first_thread) body += ',';
    first_thread = false;
    body += "{\"thread\":\"" + strings::json_escape(thread.thread) + "\"";
    body += ",\"total\":" + std::to_string(thread.total);
    body += ",\"events\":[";
    bool first_event = true;
    for (const FlightEvent& event : thread.events) {
      if (!first_event) body += ',';
      first_event = false;
      body += "{\"t\":" + strings::format("%.6f", event.t);
      body += ",\"kind\":\"" + std::string(to_string(event.kind)) + "\"";
      body += ",\"what\":\"" + strings::json_escape(event.what) + "\"";
      if (event.detail[0] != '\0') {
        body += ",\"detail\":\"" + strings::json_escape(event.detail) + "\"";
      }
      if (event.a != 0) body += ",\"a\":" + std::to_string(event.a);
      if (event.b != 0) body += ",\"b\":" + std::to_string(event.b);
      body += '}';
    }
    body += "]}";
  }
  body += "]}";
  return body;
}

void FlightRecorder::dump(int fd, std::size_t max_per_thread) const {
  const std::vector<ThreadFlight> threads = snapshot(max_per_thread);
  char line[256];
  int n = std::snprintf(line, sizeof line, "=== ipa flight recorder (%zu threads) ===\n",
                        threads.size());
  (void)!::write(fd, line, static_cast<std::size_t>(n));
  for (const ThreadFlight& thread : threads) {
    n = std::snprintf(line, sizeof line, "-- %s (%llu events total)\n",
                      thread.thread.c_str(),
                      static_cast<unsigned long long>(thread.total));
    (void)!::write(fd, line, static_cast<std::size_t>(n));
    for (const FlightEvent& event : thread.events) {
      n = std::snprintf(line, sizeof line, "  %.6f [%s] %s %s a=%llu b=%llu\n", event.t,
                        to_string(event.kind), event.what, event.detail,
                        static_cast<unsigned long long>(event.a),
                        static_cast<unsigned long long>(event.b));
      (void)!::write(fd, line, static_cast<std::size_t>(n));
    }
  }
}

std::size_t FlightRecorder::journal_count() const {
  LockGuard lock(mutex_);
  return journals_.size();
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked: outlives all users
  return *recorder;
}

namespace {

void crash_dump_handler(int sig) {
  // Best effort: the registry mutex may be held by the crashed thread, but
  // the alternative on this path is no journal at all. Restore the default
  // disposition first so a second fault terminates instead of recursing.
  std::signal(sig, SIG_DFL);
  const char* banner = "ipa: fatal signal, dumping flight recorder\n";
  (void)!::write(2, banner, std::strlen(banner));
  FlightRecorder::global().dump(2);
  ::raise(sig);
}

}  // namespace

void FlightRecorder::install_crash_handler() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  std::signal(SIGABRT, crash_dump_handler);
  std::signal(SIGSEGV, crash_dump_handler);
  std::signal(SIGBUS, crash_dump_handler);
}

void flight(FlightKind kind, std::string_view what, std::string_view detail,
            std::uint64_t a, std::uint64_t b) {
  FlightRecorder::global().local().record(kind, what, detail, a, b);
}

}  // namespace ipa::obs
