#include "sched/artifact_store.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace fairclean {
namespace sched {
namespace {

Result<std::shared_ptr<const void>> MakeInt(int value) {
  return std::shared_ptr<const void>(std::make_shared<const int>(value));
}

TEST(ArtifactStoreTest, ProducesOnceAndReuses) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  std::atomic<int> calls{0};
  Result<std::shared_ptr<const int>> first =
      store.GetOrCreateAs<int>("k", [&]() -> Result<int> {
        ++calls;
        return 7;
      });
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(**first, 7);
  Result<std::shared_ptr<const int>> second =
      store.GetOrCreateAs<int>("k", [&]() -> Result<int> {
        ++calls;
        return 8;  // must never run
      });
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, 7);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(store.produced(), 1u);
  EXPECT_EQ(store.reused(), 1u);
}

TEST(ArtifactStoreTest, DeterministicFailureIsMemoized) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  std::atomic<int> calls{0};
  auto produce = [&calls]() -> Result<std::shared_ptr<const void>> {
    ++calls;
    return Status::InvalidArgument("bad key");
  };
  Result<std::shared_ptr<const void>> first = store.GetOrCreate("k", produce);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  // Deterministic failure: consumers share the verdict, producer never
  // re-runs.
  Result<std::shared_ptr<const void>> second = store.GetOrCreate("k", produce);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ArtifactStoreTest, TransientFailureIsNotMemoized) {
  // A time-budget expiry checkpoints the journal and must not poison the
  // key: the next request re-runs the producer and resumes. Same for a
  // resource held elsewhere (Unavailable).
  for (const Status& transient :
       {Status::DeadlineExceeded("out of time"),
        Status::Unavailable("shed")}) {
    obs::MetricsRegistry metrics;
    ArtifactStore store(&metrics);
    std::atomic<int> calls{0};
    auto produce = [&]() -> Result<std::shared_ptr<const void>> {
      if (++calls == 1) return transient;
      return MakeInt(42);
    };
    Result<std::shared_ptr<const void>> first =
        store.GetOrCreate("k", produce);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), transient.code());
    Result<std::shared_ptr<const void>> second =
        store.GetOrCreate("k", produce);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(*static_cast<const int*>(second->get()), 42);
    EXPECT_EQ(calls.load(), 2);
  }
}

TEST(ArtifactStoreTest, KeysAreSorted) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  ASSERT_TRUE(store.GetOrCreate("b", []() { return MakeInt(1); }).ok());
  ASSERT_TRUE(store.GetOrCreate("a", []() { return MakeInt(2); }).ok());
  EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
