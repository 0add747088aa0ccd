#include "obs/flight.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fairclean {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/flight_" + std::to_string(::getpid()) +
         "_" + name;
}

// The recorder is process-global; every test leaves it disabled so the
// trace tests in this binary keep their capture expectations.
class FlightTest : public testing::Test {
 protected:
  void TearDown() override { FlightRecorder::Disable(); }
};

TEST_F(FlightTest, DisabledRecorderRecordsNothing) {
  FlightRecorder::Disable();
  const uint64_t before = FlightRecorder::EventsRecordedOnThisThread();
  FlightRecorder::Record(FlightEventType::kMark,
                         FlightRecorder::Site("flight.disabled"), 1);
  EXPECT_FALSE(FlightEnabled());
  EXPECT_EQ(FlightRecorder::EventsRecordedOnThisThread(), before);
}

TEST_F(FlightTest, RecordDumpDecodeRoundTrip) {
  FlightRecorder::Enable(/*capacity=*/64);
  ASSERT_TRUE(FlightEnabled());
  const uint16_t site = FlightRecorder::Site("flight.roundtrip");
  for (uint32_t i = 0; i < 10; ++i) {
    FlightRecorder::Record(FlightEventType::kMark, site, i);
  }
  FlightRecorder::Record(FlightEventType::kMark,
                         FlightRecorder::Site("flight.other"), 42);

  const std::string path = TempPath("roundtrip.flight");
  std::string error;
  ASSERT_TRUE(FlightRecorder::Dump(path, kFlightReasonExplicit, &error))
      << error;

  FlightDump dump;
  ASSERT_TRUE(DecodeFlightFile(path, &dump, &error)) << error;
  EXPECT_EQ(dump.reason, kFlightReasonExplicit);
  ASSERT_GT(dump.sites.size(), site);
  EXPECT_EQ(dump.sites[site], "flight.roundtrip");

  // This thread's ring holds the 11 events just recorded, in order, with
  // monotone timestamps and intact args.
  size_t marks = 0, others = 0;
  uint64_t last_ts = 0;
  uint32_t next_arg = 0;
  for (const FlightDump::Thread& thread : dump.threads) {
    for (const FlightEntry& entry : thread.events) {
      EXPECT_GE(entry.ts_us, last_ts);
      last_ts = entry.ts_us;
      if (entry.site != site &&
          dump.sites[entry.site] != "flight.other") {
        continue;
      }
      EXPECT_EQ(entry.type, static_cast<uint8_t>(FlightEventType::kMark));
      if (entry.site == site) {
        EXPECT_EQ(entry.arg, next_arg++);
        ++marks;
      } else {
        EXPECT_EQ(entry.arg, 42u);
        ++others;
      }
    }
    last_ts = 0;  // ordering only holds within one thread's ring
  }
  EXPECT_EQ(marks, 10u);
  EXPECT_EQ(others, 1u);
  std::filesystem::remove(path);
}

TEST_F(FlightTest, RingKeepsTheNewestEventsWhenItWraps) {
  // Rings recycle across threads and keep their original capacity, so the
  // recording thread may inherit any earlier ring (at most the 4096-event
  // default here). Recording 4096 + 64 marks therefore always wraps it;
  // the retained events must be a consecutive suffix ending at the newest
  // mark, with the overflow counted by `recorded` but no longer present.
  constexpr uint32_t kTotal = 4096 + 64;
  FlightRecorder::Enable(/*capacity=*/64);
  const uint16_t site = FlightRecorder::Site("flight.wrap");
  uint64_t recorded_delta = 0;
  std::thread([&] {
    // Prime the lease first: before any Record this thread has no ring, so
    // the counter would read 0 and then jump to the recycled ring's full
    // history on the first append.
    FlightRecorder::Record(FlightEventType::kCheckpoint,
                           FlightRecorder::Site("flight.wrap.prime"));
    const uint64_t before = FlightRecorder::EventsRecordedOnThisThread();
    for (uint32_t i = 0; i < kTotal; ++i) {
      FlightRecorder::Record(FlightEventType::kMark, site, i);
    }
    recorded_delta =
        FlightRecorder::EventsRecordedOnThisThread() - before;
  }).join();
  EXPECT_EQ(recorded_delta, kTotal);

  const std::string path = TempPath("wrap.flight");
  std::string error;
  ASSERT_TRUE(FlightRecorder::Dump(path, kFlightReasonExplicit, &error))
      << error;
  FlightDump dump;
  ASSERT_TRUE(DecodeFlightFile(path, &dump, &error)) << error;

  std::vector<uint32_t> args;
  for (const FlightDump::Thread& thread : dump.threads) {
    for (const FlightEntry& entry : thread.events) {
      if (entry.site == site) args.push_back(entry.arg);
    }
  }
  ASSERT_FALSE(args.empty());
  EXPECT_LT(args.size(), static_cast<size_t>(kTotal)) << "ring never wrapped";
  // Newest events last, consecutive, ending at the final mark.
  EXPECT_EQ(args.back(), kTotal - 1);
  for (size_t i = 1; i < args.size(); ++i) {
    ASSERT_EQ(args[i], args[i - 1] + 1) << "position " << i;
  }
  std::filesystem::remove(path);
}

TEST_F(FlightTest, EveryRecordingThreadAppearsInTheDump) {
  FlightRecorder::Enable(/*capacity=*/64);
  const uint16_t site = FlightRecorder::Site("flight.threads");
  constexpr int kThreads = 3;
  // A thread that exits returns its ring for reuse, so every recorder must
  // stay alive until all have recorded — otherwise two "threads" can share
  // one recycled ring and collapse into a single dump entry.
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([site, t, &done] {
      for (uint32_t i = 0; i < 5; ++i) {
        FlightRecorder::Record(FlightEventType::kMark, site,
                               static_cast<uint32_t>(t) * 100 + i);
      }
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::string path = TempPath("threads.flight");
  std::string error;
  ASSERT_TRUE(FlightRecorder::Dump(path, kFlightReasonExplicit, &error))
      << error;
  FlightDump dump;
  ASSERT_TRUE(DecodeFlightFile(path, &dump, &error)) << error;

  size_t threads_with_marks = 0;
  for (const FlightDump::Thread& thread : dump.threads) {
    size_t marks = 0;
    for (const FlightEntry& entry : thread.events) {
      if (entry.site == site) ++marks;
    }
    if (marks > 0) {
      EXPECT_EQ(marks, 5u) << "tid " << thread.tid;
      ++threads_with_marks;
    }
  }
  EXPECT_EQ(threads_with_marks, static_cast<size_t>(kThreads));
  std::filesystem::remove(path);
}

TEST_F(FlightTest, DumpCarriesReasonCodes) {
  FlightRecorder::Enable(/*capacity=*/16);
  FlightRecorder::Record(FlightEventType::kDeadline,
                         FlightRecorder::Site("sched.deadline"));
  const std::string path = TempPath("reason.flight");
  std::string error;
  ASSERT_TRUE(FlightRecorder::Dump(path, kFlightReasonDeadline, &error))
      << error;
  FlightDump dump;
  ASSERT_TRUE(DecodeFlightFile(path, &dump, &error)) << error;
  EXPECT_EQ(dump.reason, kFlightReasonDeadline);
  std::filesystem::remove(path);
}

TEST_F(FlightTest, DecodeRejectsMissingAndTruncatedFiles) {
  FlightDump dump;
  std::string error;
  EXPECT_FALSE(
      DecodeFlightFile(TempPath("does_not_exist.flight"), &dump, &error));
  EXPECT_FALSE(error.empty());

  // A file that is too short to even hold the header must not decode.
  const std::string path = TempPath("truncated.flight");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("FLT", f);
  std::fclose(f);
  error.clear();
  EXPECT_FALSE(DecodeFlightFile(path, &dump, &error));
  EXPECT_FALSE(error.empty());
  std::filesystem::remove(path);
}

TEST_F(FlightTest, EventTypeNamesDecodeAndTolerateGarbage) {
  EXPECT_STREQ(
      FlightEventTypeName(static_cast<uint8_t>(FlightEventType::kSpanBegin)),
      "span_begin");
  EXPECT_STREQ(
      FlightEventTypeName(static_cast<uint8_t>(FlightEventType::kMark)),
      "mark");
  EXPECT_STREQ(FlightEventTypeName(0), "?");
  EXPECT_STREQ(FlightEventTypeName(6), "?");  // retired type number
  EXPECT_STREQ(FlightEventTypeName(200), "?");
}

}  // namespace
}  // namespace obs
}  // namespace fairclean
