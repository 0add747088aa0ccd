// Microbenchmarks for the substrate components: dataset synthesis, error
// detection, repair, feature encoding and model training. These measure
// engineering throughput, not paper results.
//
// Two harnesses share this binary:
//   - The paired kernel microbenches run first, each in a forked child
//     (bench/bench_common.h): >= 5 timed iterations per kernel, median +
//     p95 reported, written to FAIRCLEAN_BENCH_KERNELS_JSON (default
//     BENCH_kernels.json).
//   - The remaining throughput benches run under google-benchmark, followed
//     by the repeat/suite fan-out summary lines, and land in
//     FAIRCLEAN_BENCH_JSON (default BENCH_perf.json) for CI trend tracking.
// The forked children must come first: fork requires a single-threaded
// parent, and both google-benchmark and the fan-out reports spawn pools.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/bench_util.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "core/cleaning.h"
#include "exec/study_driver.h"
#include "datasets/generator.h"
#include "detect/detector.h"
#include "detect/mislabel_detector.h"
#include "detect/outlier_detectors.h"
#include "data/split.h"
#include "ml/encoder.h"
#include "ml/gbdt.h"
#include "ml/isolation_forest.h"
#include "ml/knn.h"
#include "ml/linalg.h"
#include "ml/logistic_regression.h"
#include "ml/tuning.h"
#include "repair/imputer.h"
#include "stats/tests.h"

namespace fairclean {
namespace {

GeneratedDataset MakeBenchData(const std::string& name, size_t rows) {
  Rng rng(1234);
  return MakeDataset(name, rows, &rng).ValueOrDie();
}

struct EncodedData {
  Matrix x;
  std::vector<int> y;
};

EncodedData EncodeAdult(size_t rows) {
  GeneratedDataset dataset = MakeBenchData("adult", rows);
  // Encoding requires complete tuples in this micro-benchmark path.
  DataFrame frame = dataset.frame;
  std::vector<bool> keep(frame.num_rows(), true);
  for (size_t row : frame.RowsWithMissing()) keep[row] = false;
  frame = frame.FilterRows(keep);
  FeatureEncoder encoder;
  std::vector<std::string> features = dataset.spec.FeatureColumns(frame);
  encoder.Fit(frame, features).ok();
  EncodedData data;
  data.x = encoder.Transform(frame).ValueOrDie();
  data.y = ExtractBinaryLabels(frame, dataset.spec.label).ValueOrDie();
  return data;
}

void BM_DatasetSynthesis(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(MakeDataset("adult", rows, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_DatasetSynthesis)->Arg(1000)->Arg(10000);

void BM_MissingDetection(benchmark::State& state) {
  GeneratedDataset dataset =
      MakeBenchData("adult", static_cast<size_t>(state.range(0)));
  DetectionContext context;
  context.inspect_columns = dataset.spec.FeatureColumns(dataset.frame);
  std::unique_ptr<ErrorDetector> detector =
      DetectorByName("missing_values").ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector->Detect(dataset.frame, context,
                                              nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MissingDetection)->Arg(10000);

void BM_IqrOutlierDetection(benchmark::State& state) {
  GeneratedDataset dataset =
      MakeBenchData("credit", static_cast<size_t>(state.range(0)));
  DetectionContext context;
  context.inspect_columns = dataset.spec.FeatureColumns(dataset.frame);
  IqrOutlierDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(dataset.frame, context,
                                             nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IqrOutlierDetection)->Arg(10000);

void BM_IsolationForestDetection(benchmark::State& state) {
  GeneratedDataset dataset =
      MakeBenchData("credit", static_cast<size_t>(state.range(0)));
  DetectionContext context;
  context.inspect_columns = dataset.spec.FeatureColumns(dataset.frame);
  IsolationForestOutlierDetector detector;
  for (auto _ : state) {
    Rng rng(11);
    benchmark::DoNotOptimize(detector.Detect(dataset.frame, context, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IsolationForestDetection)->Arg(5000);

void BM_MislabelDetection(benchmark::State& state) {
  GeneratedDataset dataset =
      MakeBenchData("heart", static_cast<size_t>(state.range(0)));
  DetectionContext context;
  context.inspect_columns = dataset.spec.FeatureColumns(dataset.frame);
  context.label_column = dataset.spec.label;
  MislabelDetector detector;
  for (auto _ : state) {
    Rng rng(13);
    benchmark::DoNotOptimize(detector.Detect(dataset.frame, context, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MislabelDetection)->Arg(2000);

void BM_MeanDummyImputation(benchmark::State& state) {
  GeneratedDataset dataset =
      MakeBenchData("adult", static_cast<size_t>(state.range(0)));
  std::vector<std::string> features =
      dataset.spec.FeatureColumns(dataset.frame);
  for (auto _ : state) {
    DataFrame copy = dataset.frame;
    MissingValueImputer imputer(NumericImpute::kMean,
                                CategoricalImpute::kDummy);
    imputer.Fit(copy, features).ok();
    imputer.Apply(&copy).ok();
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MeanDummyImputation)->Arg(10000);

void BM_FeatureEncoding(benchmark::State& state) {
  GeneratedDataset dataset =
      MakeBenchData("adult", static_cast<size_t>(state.range(0)));
  FeatureEncoder encoder;
  encoder.Fit(dataset.frame, dataset.spec.FeatureColumns(dataset.frame))
      .ok();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Transform(dataset.frame));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FeatureEncoding)->Arg(10000);

void BM_LogisticRegressionFit(benchmark::State& state) {
  EncodedData data = EncodeAdult(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    LogisticRegression model;
    Rng rng(17);
    model.Fit(data.x, data.y, &rng).ok();
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LogisticRegressionFit)->Arg(1000)->Arg(4000);

void BM_GbdtFit(benchmark::State& state) {
  EncodedData data = EncodeAdult(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    GradientBoostedTrees model;
    Rng rng(19);
    model.Fit(data.x, data.y, &rng).ok();
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GbdtFit)->Arg(1000);

void BM_KnnPredict(benchmark::State& state) {
  EncodedData data = EncodeAdult(static_cast<size_t>(state.range(0)));
  KnnClassifier model;
  Rng rng(23);
  model.Fit(data.x, data.y, &rng).ok();
  Matrix queries = data.x.TakeRows({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba(queries));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_KnnPredict)->Arg(2000);

void BM_GTest2x2(benchmark::State& state) {
  ContingencyTable2x2 table{523, 9382, 411, 5023};
  for (auto _ : state) {
    benchmark::DoNotOptimize(GTest2x2(table));
  }
}
BENCHMARK(BM_GTest2x2);

void BM_PairedTTest(benchmark::State& state) {
  Rng rng(29);
  std::vector<double> x(100);
  std::vector<double> y(100);
  for (size_t i = 0; i < 100; ++i) {
    x[i] = rng.Normal(0.8, 0.05);
    y[i] = rng.Normal(0.79, 0.05);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairedTTest(x, y));
  }
}
BENCHMARK(BM_PairedTTest);

// --- Forked kernel microbenches (DESIGN.md §8) --------------------------
// Each pair times an optimized kernel against the path it replaced; the
// median/p95 per op and the pair ratios are written to BENCH_kernels.json
// so CI can watch them. Every case runs in its own forked child
// (bench/bench_common.h): setup untimed, >= 5 timed iterations, no warm
// allocator or thread pool inherited from a previous case. The
// per-round-sort GBDT ablation is NOT byte-identical to the presort path
// (per-round std::sort resolves equal-key ties differently), which is why
// it only exists behind the presort_reuse knob for benchmarking.

constexpr size_t kKnnBenchQueries = 256;

struct ForkedCase {
  std::string key;  // op key in the kernels JSON
  std::function<std::function<void()>()> make_body;
};

std::vector<ForkedCase> KernelCases() {
  std::vector<ForkedCase> cases;
  cases.push_back({"BM_GbdtFitPresortReuse/8000", [] {
    auto data = std::make_shared<EncodedData>(EncodeAdult(8000));
    return std::function<void()>([data] {
      GradientBoostedTrees model;
      Rng rng(19);
      model.Fit(data->x, data->y, &rng).ok();
    });
  }});
  cases.push_back({"BM_GbdtFitPerRoundSort/8000", [] {
    auto data = std::make_shared<EncodedData>(EncodeAdult(8000));
    return std::function<void()>([data] {
      GbdtOptions options;
      options.presort_reuse = false;
      GradientBoostedTrees model(options);
      Rng rng(19);
      model.Fit(data->x, data->y, &rng).ok();
    });
  }});
  cases.push_back({"BM_KnnPredictBlocked/9000", [] {
    auto data = std::make_shared<EncodedData>(EncodeAdult(9000));
    auto model = std::make_shared<KnnClassifier>();
    Rng rng(23);
    model->Fit(data->x, data->y, &rng).ok();
    std::vector<size_t> query_rows(kKnnBenchQueries);
    for (size_t i = 0; i < kKnnBenchQueries; ++i) query_rows[i] = i;
    auto queries = std::make_shared<Matrix>(data->x.TakeRows(query_rows));
    return std::function<void()>([data, model, queries] {
      std::vector<double> out = model->PredictProba(*queries);
      (void)out;
    });
  }});
  cases.push_back({"BM_TuningFoldDataPerGridPoint/4000", [] {
    // The path the fold-data cache replaced: re-slice (and re-presort)
    // every fold for each of the three grid points.
    auto data = std::make_shared<EncodedData>(EncodeAdult(4000));
    Rng fold_rng(31);
    auto folds = std::make_shared<std::vector<TrainTestIndices>>(
        KFoldIndices(data->x.rows(), 3, &fold_rng));
    return std::function<void()>([data, folds] {
      for (int grid_point = 0; grid_point < 3; ++grid_point) {
        auto fold_data = MaterializeTuningFolds(data->x, data->y, *folds,
                                                /*with_presort=*/true);
        (void)fold_data;
      }
    });
  }});
  cases.push_back({"BM_TuningFoldDataShared/4000", [] {
    // The fold-data cache: one materialization serves the whole grid.
    auto data = std::make_shared<EncodedData>(EncodeAdult(4000));
    Rng fold_rng(31);
    auto folds = std::make_shared<std::vector<TrainTestIndices>>(
        KFoldIndices(data->x.rows(), 3, &fold_rng));
    return std::function<void()>([data, folds] {
      auto fold_data = MaterializeTuningFolds(data->x, data->y, *folds,
                                              /*with_presort=*/true);
      (void)fold_data;
    });
  }});
  return cases;
}

// Runs the forked kernel cases and records their stats.
// FAIRCLEAN_BENCH_KERNEL_ITERS (default 7, floor 5) controls the sample
// count; 0 skips the section.
void RunForkedCases(std::map<std::string, double>* ops,
                    std::map<std::string, double>* p95,
                    std::map<std::string, size_t>* iters) {
  int64_t kernel_iters =
      GetEnvCount("FAIRCLEAN_BENCH_KERNEL_ITERS", 7).ValueOrDie();
  if (kernel_iters <= 0) return;
  const size_t n = static_cast<size_t>(std::max<int64_t>(kernel_iters, 5));
  for (const ForkedCase& c : KernelCases()) {
    Result<bench::BenchStats> stats =
        bench::RunForkedBench(c.key, n, c.make_body);
    if (!stats.ok()) {
      std::fprintf(stderr, "forked bench %s failed: %s\n", c.key.c_str(),
                   stats.status().ToString().c_str());
      continue;
    }
    (*ops)[c.key] = stats->median;
    (*p95)[c.key] = stats->p95;
    (*iters)[c.key] = stats->iters;
    std::printf("forked %-36s median %10.4fs  p95 %10.4fs  (%zu iters)\n",
                c.key.c_str(), stats->median, stats->p95, stats->iters);
    std::fflush(stdout);
  }
}

// Derives the pair ratios from the forked medians, prints them, and writes
// the enriched kernels JSON to FAIRCLEAN_BENCH_KERNELS_JSON. Pairs whose
// cases did not run (skipped via the env knobs or a failed child) are
// dropped from the report.
void WriteKernelBenchJson(std::map<std::string, double> ops,
                          const std::map<std::string, double>& p95,
                          const std::map<std::string, size_t>& iters) {
  struct KernelPair {
    const char* label;       // key of the ratio entry in the JSON
    const char* baseline;    // op key of the replaced path
    const char* optimized;   // op key of the kernel
  };
  const KernelPair pairs[] = {
      {"gbdt_presort_reuse_speedup", "BM_GbdtFitPerRoundSort/8000",
       "BM_GbdtFitPresortReuse/8000"},
      {"fold_cache_speedup", "BM_TuningFoldDataPerGridPoint/4000",
       "BM_TuningFoldDataShared/4000"},
  };
  double headline_speedup = 1.0;
  for (const KernelPair& pair : pairs) {
    auto baseline = ops.find(pair.baseline);
    auto optimized = ops.find(pair.optimized);
    if (baseline == ops.end() || optimized == ops.end() ||
        optimized->second <= 0.0) {
      continue;
    }
    double ratio = baseline->second / optimized->second;
    ops[pair.label] = ratio;
    std::printf("kernel %s: %.2fx (%s %.4fs -> %s %.4fs)\n", pair.label,
                ratio, pair.baseline, baseline->second, pair.optimized,
                optimized->second);
    // GBDT fitting dominates the grid's compute, so its pair is the
    // headline.
    if (std::string(pair.label) == "gbdt_presort_reuse_speedup") {
      headline_speedup = ratio;
    }
  }
  if (ops.empty()) return;
  std::string json_path = GetEnvString("FAIRCLEAN_BENCH_KERNELS_JSON",
                                       "BENCH_kernels.json");
  if (json_path.empty()) return;
  Status written =
      bench::WriteKernelStatsJson(json_path, ops, p95, iters,
                                  ThreadPool::DefaultThreadCount(),
                                  headline_speedup);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                 written.ToString().c_str());
    return;
  }
  std::printf("kernel bench results: %s\n", json_path.c_str());
}

// Times one small in-memory cleaning experiment end to end at the given
// repeat fan-out width.
double TimeStudySeconds(size_t threads, const GeneratedDataset& dataset) {
  exec::StudyDriverOptions options;
  options.study.sample_size = 300;
  options.study.num_repeats = 8;
  options.study.cv_folds = 3;
  options.study.seed = 99;
  options.threads = threads;
  exec::StudyDriver driver(options);
  auto start = std::chrono::steady_clock::now();
  driver.RunOrLoad(dataset, "missing_values", "log-reg").ValueOrDie();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Console reporter that additionally captures seconds-per-iteration for
/// every benchmark run, so the table printed to the terminal and the JSON
/// written for CI come from the same measurements.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      double iterations = static_cast<double>(run.iterations);
      if (iterations <= 0) continue;
      // real_accumulated_time is in seconds regardless of the display unit.
      op_seconds_[run.benchmark_name()] =
          run.real_accumulated_time / iterations;
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& op_seconds() const {
    return op_seconds_;
  }

 private:
  std::map<std::string, double> op_seconds_;
};

// Times a small 3-cell suite (german x missing values x all models) through
// the suite scheduler at the given experiment-level fan-out width. Caching
// is disabled so the measurement is compute, not disk.
double TimeSuiteSeconds(size_t threads, uint64_t* reused_out) {
  sched::SuiteOptions options;
  options.study.sample_size = 300;
  options.study.num_repeats = 8;
  options.study.cv_folds = 3;
  options.study.seed = 99;
  options.cache_dir.clear();
  options.threads = threads;
  sched::SuiteScheduler scheduler(options);
  sched::StudyScope scope;
  scope.error_type = "missing_values";
  scope.single_pairs = {{"german", "age"}};
  auto start = std::chrono::steady_clock::now();
  scheduler.RunScopeCells(scope).ValueOrDie();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *reused_out = scheduler.artifacts().reused();
  return seconds;
}

// Suite-level fan-out: experiments in parallel (sequential drivers inside),
// the scheduler's inversion of the per-repeat fan-out below. Also reports
// the shared-artifact reuse counter so CI can watch artifact sharing.
void ReportSuiteFanOutSpeedup(std::map<std::string, double>* op_seconds) {
  size_t threads = ThreadPool::DefaultThreadCount();
  uint64_t reused = 0;
  double sequential_s = TimeSuiteSeconds(1, &reused);
  double parallel_s =
      threads > 1 ? TimeSuiteSeconds(threads, &reused) : sequential_s;
  std::printf(
      "suite fan-out:  1 thread %.2fs, %zu threads %.2fs -> %.2fx speedup "
      "(3 cells, sched.artifacts_reused=%llu)\n",
      sequential_s, threads, parallel_s, sequential_s / parallel_s,
      static_cast<unsigned long long>(reused));
  (*op_seconds)["suite_fanout_1_thread"] = sequential_s;
  (*op_seconds)["suite_fanout_n_threads"] = parallel_s;
  (*op_seconds)["sched.artifacts_reused"] = static_cast<double>(reused);
}

void ReportRepeatFanOutSpeedup(std::map<std::string, double>* op_seconds,
                               size_t* threads_out, double* speedup_out) {
  Rng rng(7);
  GeneratedDataset dataset = MakeDataset("german", 500, &rng).ValueOrDie();
  size_t threads = ThreadPool::DefaultThreadCount();
  double sequential_s = TimeStudySeconds(1, dataset);
  double parallel_s =
      threads > 1 ? TimeStudySeconds(threads, dataset) : sequential_s;
  std::printf(
      "\nrepeat fan-out: 1 thread %.2fs, %zu threads %.2fs -> %.2fx speedup "
      "(set FAIRCLEAN_THREADS to change the width)\n",
      sequential_s, threads, parallel_s, sequential_s / parallel_s);
  (*op_seconds)["repeat_fanout_1_thread"] = sequential_s;
  (*op_seconds)["repeat_fanout_n_threads"] = parallel_s;
  *threads_out = threads;
  *speedup_out = sequential_s / parallel_s;
}

int RunPerfMicro(int argc, char** argv) {
  // Forked benches strictly first: the children must fork from a
  // single-threaded parent, and everything below spawns thread pools.
  std::map<std::string, double> forked_ops;
  std::map<std::string, double> forked_p95;
  std::map<std::string, size_t> forked_iters;
  RunForkedCases(&forked_ops, &forked_p95, &forked_iters);
  WriteKernelBenchJson(forked_ops, forked_p95, forked_iters);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::map<std::string, double> op_seconds = reporter.op_seconds();
  size_t threads = 1;
  double speedup = 1.0;
  ReportRepeatFanOutSpeedup(&op_seconds, &threads, &speedup);
  ReportSuiteFanOutSpeedup(&op_seconds);

  std::string json_path =
      GetEnvString("FAIRCLEAN_BENCH_JSON", "BENCH_perf.json");
  if (!json_path.empty()) {
    Status written =
        bench::WriteBenchPerfJson(json_path, op_seconds, threads, speedup);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("machine-readable results: %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fairclean

int main(int argc, char** argv) {
  return fairclean::RunPerfMicro(argc, argv);
}
