// Flight journals retire with their thread: a process that starts and joins
// many recording threads (pool workers that retire when idle) keeps a bounded
// journal table, and the newest retired journals stay readable.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "common/strings.hpp"
#include "obs/flight.hpp"

namespace ipa::obs {
namespace {

bool snapshot_has(const FlightRecorder& recorder, const std::string& what) {
  for (const ThreadFlight& thread : recorder.snapshot()) {
    for (const FlightEvent& event : thread.events) {
      if (what == event.what) return true;
    }
  }
  return false;
}

TEST(FlightRetire, JoinedThreadsKeepTheJournalTableBounded) {
  FlightRecorder recorder(16);
  recorder.local().record(FlightKind::kMark, "main");
  for (int i = 0; i < 250; ++i) {
    std::thread([&recorder, i] {
      recorder.local().record(FlightKind::kMark, strings::format("t%d", i));
    }).join();
    // Live: this thread and at most the one just joined (retired when the
    // next thread registers); the rest is the retired tail.
    ASSERT_LE(recorder.journal_count(), FlightRecorder::kRetainedJournals + 2) << i;
  }
  EXPECT_TRUE(snapshot_has(recorder, "main"));
  EXPECT_TRUE(snapshot_has(recorder, "t249"));
  // One more registration retires t249's journal; it is the newest retired
  // one, so it survives while the oldest ones are gone.
  std::thread([&recorder] { recorder.local().record(FlightKind::kMark, "last"); }).join();
  EXPECT_TRUE(snapshot_has(recorder, "t249"));
  EXPECT_TRUE(snapshot_has(recorder, "last"));
  EXPECT_FALSE(snapshot_has(recorder, "t0"));
}

TEST(FlightRetire, AdoptedJournalsNeverRetire) {
  FlightRecorder recorder(16);
  auto journal = recorder.adopt("component");
  journal->record(FlightKind::kOp, "adopted");
  for (int i = 0; i < 40; ++i) {
    std::thread([&recorder] { recorder.local().record(FlightKind::kMark, "tick"); }).join();
  }
  EXPECT_TRUE(snapshot_has(recorder, "adopted"));
  EXPECT_LE(recorder.journal_count(), FlightRecorder::kRetainedJournals + 2);
}

}  // namespace
}  // namespace ipa::obs
