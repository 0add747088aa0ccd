// Wave-plan containment tests (DESIGN.md §15): the planner's reuse
// counters must be structural (one plan per (dataset, seed) group, one
// reuse hit per member cell), and a fault during plan materialization must
// degrade to the per-cell rebuild path without changing a byte of the
// report or the cache.
//
// The binary is registered at FAIRCLEAN_THREADS 1, 2, and 4 (plain
// add_test in tests/CMakeLists.txt), so both are pinned at every suite
// fan-out width the golden tests use.

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/safe_io.h"
#include "obs/metrics.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"
#include "sched/wave_plan.h"

namespace fairclean {
namespace sched {
namespace {

StudyOptions PlanStudy() {
  StudyOptions options;
  options.sample_size = 300;
  options.num_repeats = 3;
  options.cv_folds = 3;
  options.seed = 42;
  return options;
}

std::string FreshDir(const std::string& name) {
  // Per-process paths: the width registrations of this binary run
  // concurrently under ctest -j and must not share cache directories.
  std::string dir = testing::TempDir() + "/wave_plan_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct SuiteRun {
  Status status;
  std::string report;
  /// Cache-file basename -> sha256 of the exact file bytes.
  std::map<std::string, std::string> cell_sha256;
};

// Runs the smoke subset (german missing values x three models) at the
// environment's thread width (threads = 0 resolves FAIRCLEAN_THREADS — the
// width this registration is pinned to).
SuiteRun RunSmoke(const std::string& cache_dir) {
  SuiteOptions options;
  options.study = PlanStudy();
  options.cache_dir = cache_dir;
  options.threads = 0;
  SuiteScheduler scheduler(options);
  SuiteRun run;
  run.status = scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke"));
  run.report = scheduler.report_json();
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // "class:" classification sidecars (DESIGN.md §16) ride along with
    // every cell; this test pins the cell records proper.
    if (name.rfind("class:", 0) == 0) continue;
    run.cell_sha256[name] =
        Sha256Hex(ReadFileToString(entry.path().string()).ValueOrDie());
  }
  return run;
}

// The planned run every scenario compares against. Computed once per
// process.
const SuiteRun& PlannedBaseline() {
  static const SuiteRun* run = new SuiteRun(RunSmoke(FreshDir("planned")));
  return *run;
}

void ExpectMatchesBaseline(const SuiteRun& run, const char* label) {
  const SuiteRun& baseline = PlannedBaseline();
  ASSERT_TRUE(run.status.ok()) << label << ": " << run.status.ToString();
  EXPECT_EQ(run.report, baseline.report)
      << label << " report differs from the planned run";
  ASSERT_EQ(run.cell_sha256.size(), baseline.cell_sha256.size()) << label;
  for (const auto& [name, sha256] : baseline.cell_sha256) {
    ASSERT_TRUE(run.cell_sha256.count(name)) << label << ": " << name;
    EXPECT_EQ(run.cell_sha256.at(name), sha256)
        << label << ": " << name << " cache record sha256 differs";
  }
}

TEST(WavePlan, PlannedBaselineSucceeds) {
  const SuiteRun& baseline = PlannedBaseline();
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  EXPECT_FALSE(baseline.report.empty());
  // One cache record per smoke cell; completed runs leave no journals.
  EXPECT_EQ(baseline.cell_sha256.size(), 3u);
}

// The planner's counters are structural, not incidental: one smoke wave of
// 3 cells over 1 dataset builds exactly 1 plan and serves exactly 3 cells
// from it, regardless of thread width or cache state.
TEST(WavePlan, ReuseCountersAreStructural) {
  obs::Counter* built =
      obs::MetricsRegistry::Global().GetCounter("sched.wave_plans_built");
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("sched.plan_reuse_hits");
  uint64_t built_before = built->value();
  uint64_t hits_before = hits->value();
  SuiteRun run = RunSmoke(FreshDir("counters"));
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(built->value() - built_before, 1u);
  EXPECT_EQ(hits->value() - hits_before, 3u);
}

// A fault during plan materialization drops only the group's plan: the run
// still succeeds, every cell falls back to the per-cell rebuild path, no
// reuse hit is counted, and the report and cache records stay
// byte-identical to the planned baseline — the cache is not corrupted.
TEST(WavePlan, PlanBuildFaultFallsBackWithoutCorruptingCache) {
  obs::Counter* built =
      obs::MetricsRegistry::Global().GetCounter("sched.wave_plans_built");
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("sched.plan_reuse_hits");
  uint64_t built_before = built->value();
  uint64_t hits_before = hits->value();
  ASSERT_TRUE(FaultInjector::Global().Configure("plan_build:1:1", 1).ok());
  SuiteRun faulted = RunSmoke(FreshDir("fault"));
  FaultInjector::Global().Reset();
  EXPECT_EQ(built->value() - built_before, 0u);
  EXPECT_EQ(hits->value() - hits_before, 0u);
  ExpectMatchesBaseline(faulted, "plan_build fault");
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
