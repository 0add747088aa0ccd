// Traced pass of the end-to-end benchmark.
//
// Runs the same paper-grid cells `run_suite` runs, but calls each layer
// through its public header from here, wrapping every call in a span
// (name, start, end, parent, thread, cell-repeat group). The call order
// mirrors RunCleaningRepeatSlice / TrainAndEvaluate and the suite
// scheduler's figure and table nodes, so the spans describe the program's
// real work. Spans stay in memory and are written when the pass ends;
// perfbench/benchlib.py turns them into per-layer self times.
//
// Usage (scale knobs come from the same FAIRCLEAN_* variables run_suite
// reads, resolved through sched::TrySuiteOptionsFromEnv):
//
//   perfbench_trace [--filter f] [--warm] --spans out.tsv --summary out.json
//
//   --filter   run_suite's --filter (empty: every default unit).
//   --warm     FAIRCLEAN_CACHE_DIR already holds every cell: load cells
//              through StudyDriver::RunOrLoad instead of computing them.
//              Without it the pass computes every cell-repeat itself, then
//              re-runs each cell through StudyDriver::RunOrLoad over the
//              (fresh) FAIRCLEAN_CACHE_DIR and checks that every repeat's
//              accuracy and fairness gaps are bit-equal to its own.
//
// The summary holds the wall time of the traced phase, the check counts,
// and deltas of the program's own metric counters over the pass.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/cleaning.h"
#include "core/disparity.h"
#include "core/runner.h"
#include "data/split.h"
#include "detect/detector.h"
#include "exec/study_driver.h"
#include "fairness/fairness_metrics.h"
#include "fairness/group.h"
#include "ml/encoder.h"
#include "ml/metrics.h"
#include "ml/tuning.h"
#include "obs/metrics.h"
#include "sched/experiment_graph.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"
#include "stats/tests.h"

namespace {

using namespace fairclean;  // NOLINT
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- spans --

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Time measured by a sibling span that stands in for work this span's
  // call also did internally (the Detect inside MakeRepairedVersion and
  // AnalyzeDisparities); subtracted from its self time.
  int64_t minus_ns = 0;
  std::string name;
  std::string group;  // cell-repeat id shared by the spans of one slice
};

const Clock::time_point g_epoch = Clock::now();
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<int> g_next_thread{0};
std::mutex g_spans_mutex;
std::vector<Span> g_spans;  // guarded by g_spans_mutex

thread_local uint64_t t_current_span = 0;
thread_local std::string t_group;

int ThreadIndex() {
  thread_local int index = g_next_thread.fetch_add(1);
  return index;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

// Records one span from construction to destruction. The parent is the
// innermost open span on this thread unless given explicitly (a task on a
// pool worker names the span that fanned it out).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, uint64_t parent = kCurrentThread) {
    span_.id = g_next_span_id.fetch_add(1);
    span_.parent = parent == kCurrentThread ? t_current_span : parent;
    span_.thread = ThreadIndex();
    span_.name = std::move(name);
    span_.group = t_group;
    saved_current_ = t_current_span;
    t_current_span = span_.id;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    t_current_span = saved_current_;
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_spans.push_back(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  static constexpr uint64_t kCurrentThread = ~uint64_t{0};

  uint64_t id() const { return span_.id; }
  int64_t ElapsedNs() const { return NowNs() - span_.start_ns; }
  void Subtract(int64_t ns) { span_.minus_ns += ns; }

 private:
  Span span_;
  uint64_t saved_current_ = 0;
};

// Sets the cell-repeat group of the spans opened on this thread.
class ScopedGroup {
 public:
  explicit ScopedGroup(std::string group) : saved_(std::move(t_group)) {
    t_group = std::move(group);
  }
  ~ScopedGroup() { t_group = std::move(saved_); }
  ScopedGroup(const ScopedGroup&) = delete;
  ScopedGroup& operator=(const ScopedGroup&) = delete;

 private:
  std::string saved_;
};

// ------------------------------------------------------ cell-repeat slice --

// RunCleaningRepeatSlice's per-repeat seed derivation (FNV-1a over
// "<dataset>/<error>/<model>/<repeat>", xor the study seed).
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr FairnessMetric kAllMetrics[] = {
    FairnessMetric::kPredictiveParity,
    FairnessMetric::kEqualOpportunity,
    FairnessMetric::kDemographicParity,
    FairnessMetric::kFalsePositiveRateParity,
    FairnessMetric::kAccuracyParity,
};

Result<GroupAssignment> AssignGroups(const DataFrame& frame,
                                     const GroupDefinition& group) {
  if (group.intersectional) {
    return IntersectionalGroups(frame, group.first, group.second);
  }
  return SingleAttributeGroups(frame, group.first);
}

// TrainAndEvaluate + AppendScores, one span per layer call.
Status TracedTrainAndEvaluate(const PreparedData& data,
                              const DatasetSpec& spec,
                              const std::vector<GroupDefinition>& groups,
                              const TunedModelFamily& family,
                              size_t cv_folds, Rng* rng, ScoreSeries* out) {
  Matrix train_x;
  Matrix test_x;
  std::vector<int> train_y;
  std::vector<int> test_y;
  {
    ScopedSpan span("ml.encode");
    FeatureEncoder encoder;
    FC_RETURN_IF_ERROR(
        encoder.Fit(data.train, spec.FeatureColumns(data.train)));
    FC_ASSIGN_OR_RETURN(train_x, encoder.Transform(data.train));
    FC_ASSIGN_OR_RETURN(test_x, encoder.Transform(data.test));
    FC_ASSIGN_OR_RETURN(train_y, ExtractBinaryLabels(data.train, spec.label));
    FC_ASSIGN_OR_RETURN(test_y, ExtractBinaryLabels(data.test, spec.label));
  }
  Rng tune_rng = rng->Fork(0x70e0);
  TuneOutcome tuned;
  {
    ScopedSpan span("ml.tune." + family.name);
    FC_ASSIGN_OR_RETURN(tuned,
                        TuneAndFit(family, train_x, train_y, cv_folds,
                                   &tune_rng));
  }
  std::vector<int> predictions;
  {
    ScopedSpan span("ml.predict." + family.name);
    predictions = tuned.model->Predict(test_x);
    out->accuracy.push_back(AccuracyScore(test_y, predictions));
    out->f1.push_back(F1Score(test_y, predictions));
  }
  ScopedSpan span("fairness.confusion");
  for (const GroupDefinition& group : groups) {
    FC_ASSIGN_OR_RETURN(GroupAssignment assignment,
                        AssignGroups(data.test, group));
    FC_ASSIGN_OR_RETURN(
        GroupConfusion confusion,
        ComputeGroupConfusion(test_y, predictions, assignment));
    for (FairnessMetric metric : kAllMetrics) {
      out->unfairness[UnfairnessKey(group.key, metric)].push_back(
          FairnessGap(metric, confusion));
    }
  }
  return Status::OK();
}

// The Detect calls MakeRepairedVersion makes for `method`, on the same
// splits and the same rng state (forked from a copy, so `method_rng` is
// untouched). Missing-value repair detects nothing. Returns the time spent.
Result<int64_t> TracedRepairDetection(const PreparedData& base,
                                      const DatasetSpec& spec,
                                      const CleaningMethod& method,
                                      const Rng& method_rng) {
  if (method.error_type == "missing_values") return int64_t{0};
  FC_ASSIGN_OR_RETURN(std::unique_ptr<ErrorDetector> detector,
                      DetectorByName(method.detector));
  DetectionContext context;
  context.inspect_columns = spec.FeatureColumns(base.train);
  context.label_column = spec.label;
  Rng rng = method_rng;
  int64_t spent = 0;
  auto detect = [&](const DataFrame& frame, uint64_t salt) -> Status {
    Rng split_rng = rng.Fork(salt);
    ScopedSpan span("detect." + method.detector);
    FC_RETURN_IF_ERROR(detector->Detect(frame, context, &split_rng).status());
    spent += span.ElapsedNs();
    return Status::OK();
  };
  if (method.error_type == "outliers") {
    FC_RETURN_IF_ERROR(detect(base.train, 0x0071));
    FC_RETURN_IF_ERROR(detect(base.test, 0x0072));
  } else {
    FC_RETURN_IF_ERROR(detect(base.train, 0x1a8e1));
  }
  return spent;
}

// RunCleaningRepeatSlice (salt 0) with a span around every layer call.
Result<CleaningExperimentResult> TracedSlice(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, const StudyOptions& options,
    size_t repeat) {
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(error_type));
  CleaningExperimentResult result;
  result.dataset = dataset.spec.name;
  result.error_type = error_type;
  result.model = family.name;
  result.groups = GroupDefinitionsFor(dataset.spec);

  Rng rng(options.seed ^ Fnv1a(StrFormat("%s/%s/%s/%zu",
                                         dataset.spec.name.c_str(),
                                         error_type.c_str(),
                                         family.name.c_str(), repeat)));
  PreparedData base;
  PreparedData dirty;
  {
    ScopedSpan span("core.prepare");
    size_t total_rows = dataset.frame.num_rows();
    std::vector<size_t> sample = rng.SampleWithoutReplacement(
        total_rows, std::min(options.sample_size, total_rows));
    DataFrame sampled = dataset.frame.Take(sample);
    TrainTestIndices split =
        SplitTrainTest(sampled.num_rows(), options.test_fraction, &rng);
    FC_ASSIGN_OR_RETURN(base, PrepareBase(sampled.Take(split.train),
                                          sampled.Take(split.test),
                                          dataset.spec, error_type));
    FC_ASSIGN_OR_RETURN(dirty,
                        MakeDirtyVersion(base, dataset.spec, error_type));
  }
  Rng dirty_rng = rng.Fork(0xd127);
  FC_RETURN_IF_ERROR(TracedTrainAndEvaluate(dirty, dataset.spec,
                                            result.groups, family,
                                            options.cv_folds, &dirty_rng,
                                            &result.dirty));
  for (const CleaningMethod& method : methods) {
    Rng method_rng = rng.Fork(Fnv1a(method.Name()));
    FC_ASSIGN_OR_RETURN(
        int64_t detect_ns,
        TracedRepairDetection(base, dataset.spec, method, method_rng));
    PreparedData repaired;
    {
      ScopedSpan span("repair");
      span.Subtract(detect_ns);
      FC_ASSIGN_OR_RETURN(repaired, MakeRepairedVersion(base, dataset.spec,
                                                        method, &method_rng));
    }
    Rng eval_rng = rng.Fork(Fnv1a(method.Name() + "/eval"));
    FC_RETURN_IF_ERROR(TracedTrainAndEvaluate(
        repaired, dataset.spec, result.groups, family, options.cv_folds,
        &eval_rng, &result.repaired[method.Name()]));
  }
  return result;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Repeat `r` of two score series is equal, bit for bit, on accuracy, F1
// and every fairness gap.
bool SameAt(const ScoreSeries& a, const ScoreSeries& b, size_t r) {
  auto same = [r](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() > r && y.size() > r && SameBits(x[r], y[r]);
  };
  if (!same(a.accuracy, b.accuracy) || !same(a.f1, b.f1) ||
      a.unfairness.size() != b.unfairness.size()) {
    return false;
  }
  for (const auto& [key, values] : a.unfairness) {
    auto it = b.unfairness.find(key);
    if (it == b.unfairness.end() || !same(values, it->second)) return false;
  }
  return true;
}

// Repeat `r` of two cell results is equal on the dirty series and on the
// series of every cleaning method.
bool SameRepeat(const CleaningExperimentResult& a,
                const CleaningExperimentResult& b, size_t r) {
  if (!SameAt(a.dirty, b.dirty, r) || a.repaired.size() != b.repaired.size()) {
    return false;
  }
  for (const auto& [method, series] : a.repaired) {
    auto it = b.repaired.find(method);
    if (it == b.repaired.end() || !SameAt(series, it->second, r)) return false;
  }
  return true;
}

// ------------------------------------------------------------- figures --

// AnalyzeDisparities' detector list for a dataset.
std::vector<std::string> ApplicableDetectors(const DatasetSpec& spec) {
  std::vector<std::string> out;
  if (spec.HasErrorType("missing_values")) out.push_back("missing_values");
  if (spec.HasErrorType("outliers")) {
    out.push_back("outliers-sd");
    out.push_back("outliers-iqr");
    out.push_back("outliers-if");
  }
  if (spec.HasErrorType("mislabels")) out.push_back("mislabels");
  return out;
}

// One figure panel: each detector once, standalone and traced, then
// AnalyzeDisparities (whose own detection the standalone calls stand in
// for). Returns whether the panel's flag counts agree with the standalone
// masks.
Result<bool> TracedDisparity(const GeneratedDataset& dataset,
                             bool intersectional, uint64_t study_seed) {
  // The scheduler's per-figure rng stream (Fig. 1: seed+17, Fig. 2: +19).
  Rng rng(study_seed + (intersectional ? 19 : 17));
  DetectionContext context;
  context.inspect_columns = dataset.spec.FeatureColumns(dataset.frame);
  context.label_column = dataset.spec.label;
  std::map<std::string, ErrorMask> masks;
  int64_t detect_ns = 0;
  Rng detect_rng = rng;
  for (const std::string& name : ApplicableDetectors(dataset.spec)) {
    FC_ASSIGN_OR_RETURN(std::unique_ptr<ErrorDetector> detector,
                        DetectorByName(name));
    Rng detector_rng = detect_rng.Fork(std::hash<std::string>{}(name));
    ScopedSpan span("detect." + name);
    FC_ASSIGN_OR_RETURN(ErrorMask mask,
                        detector->Detect(dataset.frame, context,
                                         &detector_rng));
    masks.emplace(name, std::move(mask));
    detect_ns += span.ElapsedNs();
  }
  std::vector<DisparityRow> rows;
  {
    ScopedSpan span("core.disparity");
    span.Subtract(detect_ns);
    FC_ASSIGN_OR_RETURN(rows, AnalyzeDisparities(dataset, intersectional,
                                                 DisparityOptions(), &rng));
  }
  for (const DisparityRow& row : rows) {
    auto mask = masks.find(row.detector);
    if (mask == masks.end()) return false;
    for (const GroupDefinition& group : GroupDefinitionsFor(dataset.spec)) {
      if (group.key != row.group_key) continue;
      FC_ASSIGN_OR_RETURN(GroupAssignment assignment,
                          AssignGroups(dataset.frame, group));
      size_t privileged = 0;
      size_t disadvantaged = 0;
      for (size_t i = 0; i < dataset.frame.num_rows(); ++i) {
        if (!mask->second.RowFlagged(i)) continue;
        if (assignment.privileged[i]) ++privileged;
        else if (assignment.disadvantaged[i]) ++disadvantaged;
      }
      if (privileged != row.privileged_flagged ||
          disadvantaged != row.disadvantaged_flagged) {
        return false;
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- tables --

using ScopeResults = sched::ScopeResults;

// The scheduler's model-table node (Table XIV): one ComputeImpact per
// (pair, method, metric) over the three error-type scopes.
Status ModelTableImpacts(
    const std::map<std::string, ScopeResults>& by_error_type, double alpha) {
  for (const sched::StudyScope& scope :
       {sched::MissingScope(), sched::OutlierScope(),
        sched::MislabelScope()}) {
    auto scope_results = by_error_type.find(scope.error_type);
    if (scope_results == by_error_type.end()) {
      return Status::NotFound("no cells for " + scope.error_type);
    }
    FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                        CleaningMethodsFor(scope.error_type));
    double adjusted = BonferroniAlpha(alpha, methods.size());
    for (const std::string& model : AllModelNames()) {
      for (const sched::PairSpec& pair : scope.single_pairs) {
        auto it = scope_results->second.find(pair.dataset + "/" + model);
        if (it == scope_results->second.end()) {
          return Status::NotFound("no results for " + pair.dataset + "/" +
                                  model);
        }
        const CleaningExperimentResult& result = it->second->result;
        for (const auto& [method, series] : result.repaired) {
          for (FairnessMetric metric : {FairnessMetric::kPredictiveParity,
                                        FairnessMetric::kEqualOpportunity}) {
            FC_RETURN_IF_ERROR(ComputeImpact(result.dirty, series,
                                             pair.attribute, metric,
                                             adjusted)
                                   .status());
          }
        }
      }
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------- summary --

// Program counters the summary reports, read from the global metrics
// registry (histograms report their sum).
std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> out;
  for (const obs::MetricSnapshot& metric :
       obs::MetricsRegistry::Global().Snapshot()) {
    out[metric.name] = metric.kind == obs::MetricSnapshot::Kind::kHistogram
                           ? metric.sum
                           : metric.value;
  }
  return out;
}

double Delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

Status WriteSpans(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  for (const Span& span : g_spans) {
    std::fprintf(file, "%llu\t%llu\t%d\t%lld\t%lld\t%lld\t%s\t%s\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.thread,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.minus_ns), span.name.c_str(),
                 span.group.c_str());
  }
  return std::fclose(file) == 0 ? Status::OK()
                                : Status::IoError("cannot write " + path);
}

// ---------------------------------------------------------------- main --

// The scheduler's per-cell driver: the suite's study and cache knobs, one
// thread (parallelism lives at the cell level).
exec::StudyDriverOptions CellDriverOptions(
    const sched::SuiteOptions& options) {
  exec::StudyDriverOptions driver_options;
  driver_options.study = options.study;
  driver_options.cache_dir = options.cache_dir;
  driver_options.max_retries = options.max_retries;
  driver_options.threads = 1;
  return driver_options;
}

struct CellOutcome {
  sched::CellKey cell;
  CleaningExperimentResult result;
};

int Run(int argc, char** argv) {
  std::string filter_text;
  std::string spans_path;
  std::string summary_path;
  bool warm = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter_text = argv[++i];
    } else if (std::strcmp(argv[i], "--spans") == 0 && i + 1 < argc) {
      spans_path = argv[++i];
    } else if (std::strcmp(argv[i], "--summary") == 0 && i + 1 < argc) {
      summary_path = argv[++i];
    } else if (std::strcmp(argv[i], "--warm") == 0) {
      warm = true;
    } else {
      std::fprintf(stderr,
                   "usage: perfbench_trace [--filter f] [--warm] --spans "
                   "out.tsv --summary out.json\n");
      return 1;
    }
  }
  if (spans_path.empty() || summary_path.empty()) {
    std::fprintf(stderr, "--spans and --summary are required\n");
    return 1;
  }
  Result<sched::SuiteOptions> parsed = sched::TrySuiteOptionsFromEnv();
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const sched::SuiteOptions options = *parsed;
  const StudyOptions& study = options.study;

  sched::SuiteSpec spec = sched::PaperSuite();
  sched::ExperimentGraph graph = sched::ExperimentGraph::Build(
      spec, sched::SuiteFilter::Parse(filter_text));
  std::vector<std::string> dataset_names;
  std::vector<const sched::GraphNode*> cells;
  std::vector<const sched::GraphNode*> figures;
  std::vector<const sched::GraphNode*> tables;
  for (const sched::GraphNode& node : graph.nodes()) {
    switch (node.kind) {
      case sched::NodeKind::kDataset:
        dataset_names.push_back(node.dataset);
        break;
      case sched::NodeKind::kCell:
        cells.push_back(&node);
        break;
      case sched::NodeKind::kFigure:
        figures.push_back(&node);
        break;
      default:
        tables.push_back(&node);
    }
  }
  // Longest cells first, as the scheduler submits them.
  auto model_rank = [](const std::string& model) {
    return model == "xgboost" ? 0 : model == "knn" ? 1 : 2;
  };
  std::stable_sort(cells.begin(), cells.end(),
                   [&](const sched::GraphNode* a, const sched::GraphNode* b) {
                     return model_rank(a->cell.model) <
                            model_rank(b->cell.model);
                   });

  size_t width = options.threads != 0 ? options.threads
                                      : ThreadPool::DefaultThreadCount();
  ThreadPool pool(width);
  const std::map<std::string, double> before = ReadCounters();
  std::map<std::string, std::shared_ptr<const GeneratedDataset>> datasets;
  std::vector<CellOutcome> outcomes(cells.size());
  std::atomic<size_t> panels_checked{0};
  std::atomic<size_t> panels_matched{0};
  Status failure = Status::OK();

  const Clock::time_point traced_start = Clock::now();
  {
    ScopedSpan root("bench.pass");
    const uint64_t root_id = root.id();
    std::vector<Result<GeneratedDataset>> generated =
        RunIndexed(&pool, dataset_names.size(), [&](size_t i) {
          ScopedSpan span("datasets.generate", root_id);
          return sched::MakeSuiteDataset(dataset_names[i], study.seed);
        });
    for (size_t i = 0; i < dataset_names.size(); ++i) {
      if (!generated[i].ok()) {
        failure = generated[i].status();
        break;
      }
      datasets[dataset_names[i]] = std::make_shared<const GeneratedDataset>(
          std::move(*generated[i]));
    }

    // Cells and figure panels fan out together, as in the scheduler's waves.
    size_t tasks = failure.ok() ? cells.size() + figures.size() : 0;
    std::vector<Status> statuses = RunIndexed(&pool, tasks, [&](size_t i) {
      return InvokeWithStatusCapture([&, i]() -> Status {
        if (i >= cells.size()) {
          const sched::GraphNode& node = *figures[i - cells.size()];
          const GeneratedDataset& dataset = *datasets.at(node.dataset);
          if (node.intersectional && !dataset.spec.intersectional) {
            return Status::OK();  // the scheduler skips this panel
          }
          ScopedGroup group(node.label);
          ScopedSpan span("bench.figure", root_id);
          FC_ASSIGN_OR_RETURN(bool matched,
                              TracedDisparity(dataset, node.intersectional,
                                              study.seed));
          ++panels_checked;
          if (matched) ++panels_matched;
          return Status::OK();
        }
        const sched::CellKey& key = cells[i]->cell;
        const GeneratedDataset& dataset = *datasets.at(key.dataset);
        CellOutcome& outcome = outcomes[i];
        outcome.cell = key;
        if (warm) {
          ScopedGroup group(key.Id());
          exec::StudyDriver driver(CellDriverOptions(options));
          ScopedSpan span("exec.cache_load", root_id);
          FC_ASSIGN_OR_RETURN(outcome.result,
                              driver.RunOrLoad(dataset, key.error_type,
                                               key.model));
          return Status::OK();
        }
        FC_ASSIGN_OR_RETURN(TunedModelFamily family,
                            ModelFamilyByName(key.model));
        for (size_t r = 0; r < study.num_repeats; ++r) {
          ScopedGroup group(StrFormat("%s/r%zu", key.Id().c_str(), r));
          ScopedSpan span("bench.slice", root_id);
          FC_ASSIGN_OR_RETURN(
              CleaningExperimentResult slice,
              TracedSlice(dataset, key.error_type, family, study, r));
          FC_RETURN_IF_ERROR(AppendRepeatSlice(slice, &outcome.result));
        }
        return Status::OK();
      });
    });
    for (const Status& status : statuses) {
      if (!status.ok() && failure.ok()) failure = status;
    }

    // Table nodes aggregate inline once their cells exist.
    std::map<std::string, ScopeResults> by_error_type;
    for (const CellOutcome& outcome : outcomes) {
      auto artifact = std::make_shared<sched::CellArtifact>();
      artifact->result = outcome.result;
      by_error_type[outcome.cell.error_type].emplace(
          outcome.cell.dataset + "/" + outcome.cell.model, artifact);
    }
    for (const sched::GraphNode* node : tables) {
      if (!failure.ok()) break;
      bool narrowed = false;
      for (size_t unit : graph.narrowed_units()) {
        narrowed |= unit == node->unit_index;
      }
      if (narrowed) continue;
      ScopedGroup group(node->label);
      ScopedSpan span("core.impact");
      if (node->kind == sched::NodeKind::kModelTable) {
        failure = ModelTableImpacts(by_error_type, study.alpha);
        continue;
      }
      const sched::SuiteUnit& unit = spec.units[node->unit_index];
      const sched::TableSpec& table = unit.tables[node->table_index];
      failure = sched::AggregateImpactTable(
                    by_error_type[unit.scope.error_type], unit.scope,
                    table.intersectional, table.metric, study.alpha)
                    .status();
    }
  }
  const double traced_wall_s =
      std::chrono::duration<double>(Clock::now() - traced_start).count();
  const std::map<std::string, double> after_traced = ReadCounters();

  // Check every computed repeat against the program's own path: each cell
  // through StudyDriver::RunOrLoad (RunCleaningRepeatSlice per repeat, with
  // journal checkpoints and the cache write) over the fresh cache dir.
  std::atomic<size_t> slices_checked{0};
  std::atomic<size_t> slices_matched{0};
  if (!warm && failure.ok()) {
    std::vector<Status> statuses =
        RunIndexed(&pool, outcomes.size(), [&](size_t i) {
          return InvokeWithStatusCapture([&, i]() -> Status {
            const CellOutcome& outcome = outcomes[i];
            exec::StudyDriver driver(CellDriverOptions(options));
            FC_ASSIGN_OR_RETURN(
                CleaningExperimentResult expected,
                driver.RunOrLoad(*datasets.at(outcome.cell.dataset),
                                 outcome.cell.error_type, outcome.cell.model));
            for (size_t r = 0; r < study.num_repeats; ++r) {
              ++slices_checked;
              if (SameRepeat(outcome.result, expected, r)) ++slices_matched;
            }
            return Status::OK();
          });
        });
    for (const Status& status : statuses) {
      if (!status.ok() && failure.ok()) failure = status;
    }
  }
  const std::map<std::string, double> after = ReadCounters();

  Status written = WriteSpans(spans_path);
  if (!written.ok() && failure.ok()) failure = written;
  std::FILE* summary = std::fopen(summary_path.c_str(), "w");
  if (summary == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", summary_path.c_str());
    return 1;
  }
  std::fprintf(summary,
               "{\"traced_wall_s\": %.9f, "
               "\"slices_checked\": %zu, \"slices_matched\": %zu, "
               "\"panels_checked\": %zu, \"panels_matched\": %zu, "
               "\"counters\": {",
               traced_wall_s,
               slices_checked.load(), slices_matched.load(),
               panels_checked.load(), panels_matched.load());
  // Model-layer counters cover the traced phase only (the check phase
  // recomputes every cell); driver and io counters cover the whole pass.
  const char* traced_only[] = {"ml.gbdt.round_filters",
                               "ml.knn.distance_pairs",
                               "ml.tuning.folds_materialized"};
  const char* whole_pass[] = {"driver.cache_hits", "driver.repeats_run",
                              "driver.stage_wall_s.cache_load",
                              "driver.stage_wall_s.checkpoint",
                              "io.bytes_read", "io.bytes_written"};
  const char* sep = "";
  for (const char* name : traced_only) {
    std::fprintf(summary, "%s\"%s\": %.17g", sep, name,
                 Delta(after_traced, before, name));
    sep = ", ";
  }
  for (const char* name : whole_pass) {
    std::fprintf(summary, "%s\"%s\": %.17g", sep, name,
                 Delta(after, before, name));
  }
  std::fprintf(summary, "}}\n");
  std::fclose(summary);
  if (!failure.ok()) {
    std::fprintf(stderr, "traced pass failed: %s\n",
                 failure.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
