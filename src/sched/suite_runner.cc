#include "sched/suite_runner.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/env.h"
#include "common/hash.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "core/cleaning.h"
#include "obs/flight.h"
#include "obs/json_lite.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "stats/tests.h"

namespace fairclean {
namespace sched {

Result<SuiteOptions> TrySuiteOptionsFromEnv() {
  SuiteOptions options;
  FC_ASSIGN_OR_RETURN(int64_t sample, GetEnvCount("FAIRCLEAN_SAMPLE", 3500));
  options.study.sample_size = static_cast<size_t>(sample);
  FC_ASSIGN_OR_RETURN(int64_t repeats, GetEnvCount("FAIRCLEAN_REPEATS", 16));
  options.study.num_repeats = static_cast<size_t>(repeats);
  FC_ASSIGN_OR_RETURN(int64_t folds, GetEnvCount("FAIRCLEAN_FOLDS", 3));
  options.study.cv_folds = static_cast<size_t>(folds);
  // A larger holdout than the library default stabilizes the group-wise
  // precision/recall estimates that the fairness metrics compare.
  options.study.test_fraction = 0.3;
  options.study.seed =
      static_cast<uint64_t>(GetEnvInt64("FAIRCLEAN_SEED", 42));
  options.cache_dir = GetEnvString("FAIRCLEAN_CACHE_DIR", "fairclean_cache");
  FC_ASSIGN_OR_RETURN(
      int64_t max_retries,
      GetEnvCount("FAIRCLEAN_MAX_RETRIES",
                  static_cast<int64_t>(options.max_retries)));
  options.max_retries = static_cast<size_t>(max_retries);
  FC_ASSIGN_OR_RETURN(
      options.time_budget_s,
      GetEnvBudgetSeconds("FAIRCLEAN_TIME_BUDGET_S", options.time_budget_s));
  FC_ASSIGN_OR_RETURN(int64_t threads, GetEnvCount("FAIRCLEAN_THREADS", 0));
  options.threads = static_cast<size_t>(threads);
  options.report_path = GetEnvString("FAIRCLEAN_SUITE_REPORT", "");
  FC_ASSIGN_OR_RETURN(options.shard_lease_s,
                      GetEnvBudgetSeconds("FAIRCLEAN_SHARD_LEASE_S",
                                          options.shard_lease_s));
  if (options.shard_lease_s <= 0.0) {
    return Status::InvalidArgument(
        "FAIRCLEAN_SHARD_LEASE_S must be positive");
  }
  return options;
}

SuiteOptions SuiteOptionsFromEnv() {
  Result<SuiteOptions> options = TrySuiteOptionsFromEnv();
  // ValueOrDie prints the offending knob and aborts on a parse error.
  return std::move(options).ValueOrDie();
}

Result<ImpactTable> AggregateImpactTable(const ScopeResults& results,
                                         const StudyScope& scope,
                                         bool intersectional,
                                         FairnessMetric metric, double alpha) {
  ImpactTable table;
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(scope.error_type));
  double adjusted = BonferroniAlpha(alpha, methods.size());

  auto add_configurations = [&](const CleaningExperimentResult& result,
                                const std::string& group_key) -> Status {
    for (const auto& [method, series] : result.repaired) {
      FC_ASSIGN_OR_RETURN(
          ImpactOutcome impact,
          ComputeImpact(result.dirty, series, group_key, metric, adjusted));
      table.Add(impact.fairness, impact.accuracy);
    }
    return Status::OK();
  };

  for (const std::string& model : AllModelNames()) {
    if (!intersectional) {
      for (const PairSpec& pair : scope.single_pairs) {
        auto it = results.find(pair.dataset + "/" + model);
        if (it == results.end()) {
          return Status::NotFound("no results for " + pair.dataset + "/" +
                                  model);
        }
        FC_RETURN_IF_ERROR(
            add_configurations(it->second->result, pair.attribute));
      }
    } else {
      for (const std::string& dataset : scope.intersectional_datasets) {
        auto it = results.find(dataset + "/" + model);
        if (it == results.end()) {
          return Status::NotFound("no results for " + dataset + "/" + model);
        }
        const CleaningExperimentResult& result = it->second->result;
        std::string group_key;
        for (const GroupDefinition& group : result.groups) {
          if (group.intersectional) group_key = group.key;
        }
        if (group_key.empty()) {
          return Status::InvalidArgument(
              "dataset has no intersectional group: " + dataset);
        }
        FC_RETURN_IF_ERROR(add_configurations(result, group_key));
      }
    }
  }
  return table;
}

void PrintTableWithReference(const ImpactTable& measured,
                             const PaperTable& reference,
                             const std::string& title) {
  std::printf("%s\n", measured.Format(title).c_str());
  std::printf("paper reference (%s):\n", reference.label);
  const char* row_labels[3] = {"fairness worse", "fairness insign.",
                               "fairness better"};
  for (size_t r = 0; r < 3; ++r) {
    std::printf("%-22s |", row_labels[r]);
    for (size_t c = 0; c < 3; ++c) {
      std::printf(" %5.1f%%        ", reference.cells[r][c]);
    }
    std::printf("\n");
  }

  // Qualitative shape checks against the paper.
  double paper_worse = reference.cells[0][0] + reference.cells[0][1] +
                       reference.cells[0][2];
  double paper_better = reference.cells[2][0] + reference.cells[2][1] +
                        reference.cells[2][2];
  int64_t total = measured.Total();
  double measured_worse =
      total ? 100.0 * measured.RowTotal(Impact::kWorse) / total : 0.0;
  double measured_better =
      total ? 100.0 * measured.RowTotal(Impact::kBetter) / total : 0.0;
  bool paper_direction = paper_worse > paper_better;
  bool measured_direction = measured_worse > measured_better;
  std::printf(
      "shape check: fairness worse vs better — paper %.1f%% / %.1f%% (%s), "
      "measured %.1f%% / %.1f%% (%s) -> %s\n\n",
      paper_worse, paper_better,
      paper_direction ? "worse dominates" : "better dominates",
      measured_worse, measured_better,
      measured_direction ? "worse dominates" : "better dominates",
      paper_direction == measured_direction ? "MATCH" : "MISMATCH");
}

SuiteScheduler::SuiteScheduler(SuiteOptions options)
    : options_(std::move(options)),
      width_(options_.threads != 0 ? options_.threads
                                   : ThreadPool::DefaultThreadCount()),
      metrics_(&obs::MetricsRegistry::Global()),
      artifacts_(&metrics_),
      planner_(options_.study.seed,
               [this](const std::string& name) { return Dataset(name); }),
      start_(std::chrono::steady_clock::now()) {
  if (width_ > 1) pool_ = std::make_unique<ThreadPool>(width_);
  total_.threads = width_;
}

double SuiteScheduler::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

Result<exec::StudyDriverOptions> SuiteScheduler::CellDriverOptions() const {
  exec::StudyDriverOptions driver_options;
  driver_options.study = options_.study;
  driver_options.cache_dir = options_.cache_dir;
  driver_options.max_retries = options_.max_retries;
  // Parallelism lives at the suite level; each cell driver runs the
  // strictly-sequential path (also keeps pool-in-pool nesting impossible).
  driver_options.threads = 1;
  if (options_.time_budget_s > 0.0) {
    double remaining = options_.time_budget_s - ElapsedSeconds();
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("suite time budget exhausted");
    }
    driver_options.time_budget_s = remaining;
  }
  return driver_options;
}

void SuiteScheduler::Accumulate(const exec::RunDiagnostics& diagnostics) {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  total_.experiments += diagnostics.experiments;
  total_.cache_hits += diagnostics.cache_hits;
  total_.journal_resumes += diagnostics.journal_resumes;
  total_.repeats_resumed += diagnostics.repeats_resumed;
  total_.repeats_run += diagnostics.repeats_run;
  total_.retries += diagnostics.retries;
  total_.skips += diagnostics.skips;
  total_.corrupt_quarantined += diagnostics.corrupt_quarantined;
  total_.checkpoints += diagnostics.checkpoints;
  total_.budget_exhausted |= diagnostics.budget_exhausted;
  for (const auto& [stage, seconds] : diagnostics.stage_seconds) {
    total_.stage_seconds[stage] += seconds;
  }
  for (const auto& [stage, seconds] : diagnostics.stage_cpu_seconds) {
    total_.stage_cpu_seconds[stage] += seconds;
  }
}

exec::RunDiagnostics SuiteScheduler::AggregateDiagnostics() const {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  exec::RunDiagnostics copy = total_;
  copy.threads = width_;
  return copy;
}

void SuiteScheduler::PrintRunSummary() const {
  std::printf("%s", AggregateDiagnostics().Format().c_str());
  if (obs::LogEnabled(obs::LogLevel::kInfo)) {
    std::printf("process metrics:\n%s",
                obs::MetricsRegistry::Global().FormatSummary().c_str());
  }
}

int SuiteScheduler::ReportFailure(const Status& status) const {
  std::fprintf(stderr, "suite run failed: %s\n", status.ToString().c_str());
  std::fprintf(stderr, "%s", AggregateDiagnostics().Format().c_str());
  if (status.code() == StatusCode::kDeadlineExceeded) {
    // Deadline overruns are exactly what the flight recorder exists for:
    // dump the rings so the stall is reconstructible post-mortem.
    if (obs::FlightEnabled()) {
      std::string flight_error;
      const std::string flight_path = obs::FlightRecorder::DefaultPath();
      if (obs::FlightRecorder::Dump(flight_path, obs::kFlightReasonDeadline,
                                    &flight_error)) {
        std::fprintf(stderr, "flight recorder dumped to %s\n",
                     flight_path.c_str());
      }
    }
    std::fprintf(stderr,
                 "completed repeats are checkpointed in %s — re-run to "
                 "resume where this run stopped\n",
                 options_.cache_dir.c_str());
    return kExitResumable;
  }
  return 1;
}

Result<std::shared_ptr<const GeneratedDataset>> SuiteScheduler::Dataset(
    const std::string& name) {
  return artifacts_.GetOrCreateAs<GeneratedDataset>(
      DatasetArtifactKey(name, options_.study.seed),
      [&]() -> Result<GeneratedDataset> {
        obs::TraceSpan span("sched", [&] { return "dataset " + name; });
        return MakeSuiteDataset(name, options_.study.seed);
      });
}

Result<CellArtifact> SuiteScheduler::ProduceCell(const CellKey& cell) {
  const size_t wave = current_wave_;
  obs::TraceSpan span("sched", [&cell, wave] {
    return wave == kNoWave
               ? "cell " + cell.Id()
               : StrFormat("cell w%zu %s", wave, cell.Id().c_str());
  });
  // Shared inputs from the wave planner when this cell's group was planned;
  // otherwise rebuild per cell. Both paths are byte-identical — the plan
  // only removes redundant work (DESIGN.md §15).
  const WavePlan* plan = planner_.Consume(cell);
  std::shared_ptr<const GeneratedDataset> dataset;
  if (plan != nullptr && plan->data != nullptr) {
    dataset = plan->data;
  } else {
    FC_ASSIGN_OR_RETURN(dataset, Dataset(cell.dataset));
  }
  FC_ASSIGN_OR_RETURN(exec::StudyDriverOptions driver_options,
                      CellDriverOptions());
  if (options_.shard.mode == ShardMode::kClaim || cell_checkpoint_hook_) {
    // Each successful journal checkpoint proves the cell is making repeat
    // progress: extend its claim lease so a live shard is never stolen
    // from mid-cell (and give tests their deterministic crash point).
    CellKey hooked = cell;
    driver_options.checkpoint_hook = [this, hooked] {
      if (options_.shard.mode == ShardMode::kClaim) RefreshCellLease(hooked);
      if (cell_checkpoint_hook_) cell_checkpoint_hook_(hooked);
    };
  }
  exec::StudyDriver driver(driver_options);
  exec::CellPlanInputs inputs;
  const exec::CellPlanInputs* plan_inputs = nullptr;
  if (plan != nullptr) {
    inputs = plan->InputsFor(cell.model);
    plan_inputs = &inputs;
  }
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(*dataset, cell.error_type, cell.model, plan_inputs);
  Accumulate(driver.diagnostics());
  store::FlatFileStore blob(options_.cache_dir);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded &&
        !options_.cache_dir.empty()) {
      // Sticky attempt marker: the cell hit the budget with resumable
      // state. A later attempt that completes the cell overwrites it, so
      // final-success reports stay byte-identical to fresh runs.
      blob.Write(ClassKeyFor(CellCacheKey(cell)),
                 std::string(CellClassName(CellClass::kBudgetExceeded)) +
                     "\n")
          .ok();
    }
    return result.status();
  }

  CellArtifact artifact;
  artifact.result = std::move(*result);
  std::string bytes;
  if (!options_.cache_dir.empty()) {
    std::string key = exec::StudyDriver::CacheKey(
        driver_options, cell.dataset, cell.error_type, cell.model);
    FC_ASSIGN_OR_RETURN(bytes, blob.Read(key));
    artifact.cache_file = key;
    artifact.cell_class =
        ClassifyProducedCell(cell, driver.diagnostics(), &blob, key);
  } else {
    // In-memory runs: digest the exact bytes SaveToFile would persist, so
    // the identity is comparable either way.
    bytes = AppendChecksumFooter(artifact.result.records.ToJson());
    artifact.cell_class =
        ClassifyProducedCell(cell, driver.diagnostics(), nullptr, "");
  }
  artifact.sha256 = Sha256Hex(bytes);
  return artifact;
}

CellClass SuiteScheduler::ClassifyProducedCell(
    const CellKey& cell, const exec::RunDiagnostics& diag,
    store::FlatFileStore* blob, const std::string& cache_key) {
  // Each cell runs its own driver, so the diagnostics describe exactly
  // this production. A pure cache hit preserves the class recorded by
  // whichever run computed the cell (absent record: a pre-classifier
  // cache — pass); a computed (fresh or journal-resumed) cell classifies
  // from what this run observed and persists the verdict next to the
  // cache record, best-effort like the journal writes.
  const bool cache_hit = diag.cache_hits > 0;
  if (cache_hit && blob != nullptr) {
    CellClass cls = CellClass::kPass;
    Result<std::string> recorded = blob->Read(ClassKeyFor(cache_key));
    if (recorded.ok()) {
      std::string name = *recorded;
      while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
        name.pop_back();
      }
      Result<CellClass> parsed = CellClassFromName(name);
      if (parsed.ok()) cls = *parsed;
    }
    return cls;
  }
  CellClass cls = CellClass::kPass;
  if (diag.skips > 0) {
    cls = CellClass::kSkipped;
  } else if (diag.retries > 0) {
    cls = CellClass::kDegenerateRetry;
  }
  if (IsStolenCell(cell)) cls = CellClass::kStolen;
  if (blob != nullptr) {
    Status written =
        blob->Write(ClassKeyFor(cache_key),
                    std::string(CellClassName(cls)) + "\n");
    if (!written.ok()) {
      FC_LOG_WARN("sched", "class record write failed for %s: %s",
                  cell.Id().c_str(), written.ToString().c_str());
    }
  }
  return cls;
}

Result<std::shared_ptr<const CellArtifact>> SuiteScheduler::Cell(
    const CellKey& cell) {
  return artifacts_.GetOrCreateAs<CellArtifact>(
      CellArtifactKey(cell, options_.study),
      [&]() -> Result<CellArtifact> { return ProduceCell(cell); });
}

Result<std::shared_ptr<const DisparityArtifact>> SuiteScheduler::Disparity(
    const std::string& dataset, bool intersectional) {
  return artifacts_.GetOrCreateAs<DisparityArtifact>(
      DisparityArtifactKey(dataset, intersectional, options_.study.seed),
      [&]() -> Result<DisparityArtifact> {
        obs::TraceSpan span("sched", [&] {
          return StrFormat("disparity %s/%s", dataset.c_str(),
                           intersectional ? "intersectional" : "single");
        });
        FC_ASSIGN_OR_RETURN(std::shared_ptr<const GeneratedDataset> generated,
                            Dataset(dataset));
        DisparityOptions disparity_options;
        // The historical per-figure rng streams (Fig. 1: seed+17, Fig. 2:
        // seed+19), fresh per dataset, so each panel's bytes match the
        // standalone figure bench exactly.
        Rng rng(options_.study.seed + (intersectional ? 19 : 17));
        DisparityArtifact artifact;
        FC_ASSIGN_OR_RETURN(
            artifact.rows,
            AnalyzeDisparities(*generated, intersectional, disparity_options,
                               &rng));
        return artifact;
      });
}

Result<ScopeResults> SuiteScheduler::RunScopeCells(const StudyScope& scope) {
  std::vector<CellKey> cells;
  for (const std::string& dataset : scope.Datasets()) {
    for (const std::string& model : AllModelNames()) {
      cells.push_back({dataset, scope.error_type, model});
    }
  }
  // The scope fan-out is a single pseudo-wave: plan its (dataset, seed)
  // groups up front exactly like a graph wave, so the legacy bench path
  // shares materializations too.
  current_wave_ = 0;
  planner_.PlanWave(0, cells);
  // Longest-first submission order (see ExecuteGraph); results are mapped
  // back to cell order below, so only the makespan changes.
  std::vector<size_t> order(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ra = CellCostRank(cells[a]);
    int rb = CellCostRank(cells[b]);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  std::vector<Result<std::shared_ptr<const CellArtifact>>> produced =
      RunIndexed(pool_.get(), order.size(),
                 [&](size_t i) { return Cell(cells[order[i]]); });
  planner_.EndWave();
  current_wave_ = kNoWave;
  std::vector<Result<std::shared_ptr<const CellArtifact>>*> by_cell(
      cells.size());
  for (size_t i = 0; i < order.size(); ++i) by_cell[order[i]] = &produced[i];
  ScopeResults results;
  for (size_t i = 0; i < cells.size(); ++i) {
    // First failure in cell order, deterministic across widths and
    // submission orders.
    if (!by_cell[i]->ok()) return by_cell[i]->status();
    results.emplace(cells[i].dataset + "/" + cells[i].model,
                    std::move(**by_cell[i]));
  }
  return results;
}

bool SuiteScheduler::Narrowed(const ExperimentGraph& graph,
                              size_t unit_index) const {
  for (size_t narrowed : graph.narrowed_units()) {
    if (narrowed == unit_index) return true;
  }
  return false;
}

ScopeResults SuiteScheduler::ScopeFromDeps(
    const ExperimentGraph& graph, const GraphNode& node,
    const std::string& error_type) const {
  ScopeResults results;
  for (size_t dep : node.deps) {
    const GraphNode& cell = graph.nodes()[dep];
    if (cell.kind != NodeKind::kCell) continue;
    if (cell.cell.error_type != error_type) continue;
    results.emplace(
        cell.cell.dataset + "/" + cell.cell.model,
        std::static_pointer_cast<const CellArtifact>(node_values_[dep]));
  }
  return results;
}

Status SuiteScheduler::RunNode(const SuiteSpec& spec,
                               const ExperimentGraph& graph, size_t id) {
  const GraphNode& node = graph.nodes()[id];
  switch (node.kind) {
    case NodeKind::kDataset: {
      FC_ASSIGN_OR_RETURN(std::shared_ptr<const GeneratedDataset> dataset,
                          Dataset(node.dataset));
      node_values_[id] = dataset;
      return Status::OK();
    }
    case NodeKind::kCell: {
      FC_ASSIGN_OR_RETURN(std::shared_ptr<const CellArtifact> artifact,
                          Cell(node.cell));
      node_values_[id] = artifact;
      return Status::OK();
    }
    case NodeKind::kFigure: {
      auto value = std::make_shared<FigureValue>();
      FC_ASSIGN_OR_RETURN(std::shared_ptr<const GeneratedDataset> dataset,
                          Dataset(node.dataset));
      if (node.intersectional && !dataset->spec.intersectional) {
        value->skipped = true;
      } else {
        FC_ASSIGN_OR_RETURN(value->rows,
                            Disparity(node.dataset, node.intersectional));
      }
      node_values_[id] = value;
      return Status::OK();
    }
    case NodeKind::kTable: {
      const SuiteUnit& unit = spec.units[node.unit_index];
      auto value = std::make_shared<TableValue>();
      if (Narrowed(graph, node.unit_index)) {
        value->skipped = true;
      } else {
        ScopeResults results =
            ScopeFromDeps(graph, node, unit.scope.error_type);
        const TableSpec& table = unit.tables[node.table_index];
        FC_ASSIGN_OR_RETURN(
            value->table,
            AggregateImpactTable(results, unit.scope, table.intersectional,
                                 table.metric, options_.study.alpha));
      }
      node_values_[id] = value;
      return Status::OK();
    }
    case NodeKind::kModelTable: {
      auto value = std::make_shared<ModelTableValue>();
      if (Narrowed(graph, node.unit_index)) {
        value->skipped = true;
        node_values_[id] = value;
        return Status::OK();
      }
      const StudyScope scopes[3] = {MissingScope(), OutlierScope(),
                                    MislabelScope()};
      for (const StudyScope& scope : scopes) {
        ScopeResults results = ScopeFromDeps(graph, node, scope.error_type);
        FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                            CleaningMethodsFor(scope.error_type));
        double alpha = BonferroniAlpha(options_.study.alpha, methods.size());
        for (const std::string& model : AllModelNames()) {
          for (const PairSpec& pair : scope.single_pairs) {
            auto it = results.find(pair.dataset + "/" + model);
            if (it == results.end()) {
              return Status::NotFound("no results for " + pair.dataset + "/" +
                                      model);
            }
            const CleaningExperimentResult& result = it->second->result;
            for (const auto& [method, series] : result.repaired) {
              for (FairnessMetric metric :
                   {FairnessMetric::kPredictiveParity,
                    FairnessMetric::kEqualOpportunity}) {
                FC_ASSIGN_OR_RETURN(
                    ImpactOutcome impact,
                    ComputeImpact(result.dirty, series, pair.attribute,
                                  metric, alpha));
                ModelTableValue::Tally& tally = value->tallies[model];
                ++tally.total;
                if (impact.fairness == Impact::kWorse) ++tally.fairness_worse;
                if (impact.fairness == Impact::kBetter) {
                  ++tally.fairness_better;
                }
                if (impact.fairness == Impact::kBetter &&
                    impact.accuracy == Impact::kBetter) {
                  ++tally.both_better;
                }
              }
            }
          }
        }
      }
      node_values_[id] = value;
      return Status::OK();
    }
  }
  return Status::Internal("unknown node kind");
}

Status SuiteScheduler::ExecuteGraph(const SuiteSpec& spec,
                                    const ExperimentGraph& graph) {
  node_values_.assign(graph.nodes().size(), nullptr);
  const std::vector<std::vector<size_t>> waves = graph.Waves();
  for (size_t w = 0; w < waves.size(); ++w) {
    const std::vector<size_t>& wave = waves[w];
    std::vector<size_t> fan_out;
    std::vector<size_t> serial;
    std::vector<CellKey> wave_cells;
    for (size_t id : wave) {
      switch (graph.nodes()[id].kind) {
        case NodeKind::kCell:
          wave_cells.push_back(graph.nodes()[id].cell);
          [[fallthrough]];
        case NodeKind::kDataset:
        case NodeKind::kFigure:
          fan_out.push_back(id);
          break;
        default:
          serial.push_back(id);
      }
    }
    // Materialize the wave's shared (dataset, seed) group inputs once,
    // single-threaded, before the fan-out (DESIGN.md §15). Cell nodes
    // depend on their dataset node in an earlier wave, so the planner's
    // dataset lookups are artifact-store cache hits.
    current_wave_ = w;
    planner_.PlanWave(w, wave_cells);
    // Submit the wave longest-first (LPT): expensive cells start before
    // cheap ones, so the tail of the wave fills idle workers instead of
    // stranding one long cell at the end. Stable sort with ascending id as
    // the tiebreak keeps the order deterministic.
    std::stable_sort(fan_out.begin(), fan_out.end(),
                     [&](size_t a, size_t b) {
                       const GraphNode& na = graph.nodes()[a];
                       const GraphNode& nb = graph.nodes()[b];
                       auto rank = [this](const GraphNode& node) {
                         return node.kind == NodeKind::kCell
                                    ? CellCostRank(node.cell)
                                    : 15;  // datasets/figures: mid-weight
                       };
                       int ra = rank(na);
                       int rb = rank(nb);
                       if (ra != rb) return ra > rb;
                       return a < b;
                     });
    // Compute-heavy nodes fan out across the suite pool; results land in
    // their node slot. Failures are reported by smallest node id so every
    // width (and every submission order) sees the same first error.
    std::vector<Status> statuses =
        RunIndexed(pool_.get(), fan_out.size(), [&](size_t i) {
          return InvokeWithStatusCapture(
              [&, i] { return RunNode(spec, graph, fan_out[i]); });
        });
    planner_.EndWave();
    current_wave_ = kNoWave;
    size_t failed_pos = fan_out.size();
    for (size_t i = 0; i < fan_out.size(); ++i) {
      if (statuses[i].ok()) continue;
      if (failed_pos == fan_out.size() ||
          fan_out[i] < fan_out[failed_pos]) {
        failed_pos = i;
      }
    }
    if (failed_pos != fan_out.size()) return statuses[failed_pos];
    // Aggregation nodes are cheap and read many deps: run inline.
    for (size_t id : serial) FC_RETURN_IF_ERROR(RunNode(spec, graph, id));
  }
  return Status::OK();
}

void SuiteScheduler::PrintUnitHeading(const SuiteUnit& unit) const {
  if (unit.kind == SuiteUnit::Kind::kTables) {
    std::printf("== %s ==\n", unit.heading.c_str());
    std::printf(
        "scale: sample=%zu repeats=%zu folds=%zu seed=%llu threads=%zu "
        "(override via FAIRCLEAN_SAMPLE / FAIRCLEAN_REPEATS / FAIRCLEAN_FOLDS "
        "/ FAIRCLEAN_SEED / FAIRCLEAN_THREADS)\n\n",
        options_.study.sample_size, options_.study.num_repeats,
        options_.study.cv_folds,
        static_cast<unsigned long long>(options_.study.seed), width_);
  } else {
    std::printf("== %s ==\n\n", unit.heading.c_str());
  }
}

void SuiteScheduler::RenderFigureSummary(const SuiteUnit& unit,
                                         const ExperimentGraph& graph,
                                         size_t unit_index) const {
  size_t missing_cases = 0;
  size_t missing_dis_higher = 0;
  size_t significant_rows = 0;
  size_t total_rows = 0;
  size_t adult_significant = 0;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kFigure || node.unit_index != unit_index) {
      continue;
    }
    auto value =
        std::static_pointer_cast<const FigureValue>(node_values_[node.id]);
    if (value == nullptr || value->skipped) continue;
    for (const DisparityRow& row : value->rows->rows) {
      ++total_rows;
      if (row.significant) {
        ++significant_rows;
        if (row.dataset == "adult") ++adult_significant;
      }
      if (row.detector == "missing_values") {
        ++missing_cases;
        if (row.DisadvantagedFraction() > row.PrivilegedFraction()) {
          ++missing_dis_higher;
        }
      }
    }
  }

  std::printf("== summary vs paper ==\n");
  if (!unit.fig_intersectional) {
    std::printf(
        "missing values flagged more often for the disadvantaged group: "
        "%zu of %zu dataset/attribute cases (paper: 4 of 6)\n",
        missing_dis_higher, missing_cases);
    std::printf(
        "significant disparities: %zu of %zu detector/group rows overall\n",
        significant_rows, total_rows);
    std::printf(
        "adult rows with significant disparity: %zu of 10 (paper: adult is "
        "the only dataset where ALL five detectors flag significant "
        "disparities)\n",
        adult_significant);
  } else {
    std::printf(
        "missing values flagged more often for the intersectionally "
        "disadvantaged group: %zu of %zu cases (paper: 2 of 3)\n",
        missing_dis_higher, missing_cases);
  }
}

Status SuiteScheduler::RenderUnitBody(const SuiteSpec& spec,
                                      const ExperimentGraph& graph,
                                      size_t unit_index) const {
  const SuiteUnit& unit = spec.units[unit_index];
  switch (unit.kind) {
    case SuiteUnit::Kind::kFigure: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kFigure || node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const FigureValue>(
            node_values_[node.id]);
        if (value->skipped) {
          std::printf("%s: no intersectional definition (skipped, as in the "
                      "paper)\n\n",
                      node.dataset.c_str());
          continue;
        }
        std::printf("%s", FormatDisparityTable(value->rows->rows).c_str());
        std::printf("\n");
      }
      RenderFigureSummary(unit, graph, unit_index);
      return Status::OK();
    }
    case SuiteUnit::Kind::kTables: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kTable || node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const TableValue>(
            node_values_[node.id]);
        const TableSpec& table = unit.tables[node.table_index];
        if (value->skipped) {
          std::printf("%s: skipped — the filter narrowed this unit's cell "
                      "set, so the aggregation would be incomplete\n\n",
                      table.reference.label);
          continue;
        }
        std::string title = StrFormat(
            "Impact of auto-cleaning %s for %s groups, %s as fairness metric",
            unit.scope.error_type.c_str(),
            table.intersectional ? "intersectional" : "single-attribute",
            FairnessMetricName(table.metric));
        PrintTableWithReference(value->table, table.reference, title);
      }
      return Status::OK();
    }
    case SuiteUnit::Kind::kModelTable: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kModelTable ||
            node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const ModelTableValue>(
            node_values_[node.id]);
        if (value->skipped) {
          std::printf("%s: skipped — the filter narrowed this unit's cell "
                      "set, so the aggregation would be incomplete\n",
                      unit.name.c_str());
          continue;
        }
        std::printf("%-10s %-22s %-22s %-26s %s\n", "model", "fairness worse",
                    "fairness better", "fairness & acc. better", "configs");
        for (const ModelReference& paper : unit.model_references) {
          auto it = value->tallies.find(paper.model);
          ModelTableValue::Tally tally;
          if (it != value->tallies.end()) tally = it->second;
          double total = static_cast<double>(tally.total);
          std::printf(
              "%-10s %5.1f%% (%3lld)        %5.1f%% (%3lld)        %5.1f%% "
              "(%3lld)            %lld\n",
              paper.model,
              total ? 100.0 * tally.fairness_worse / total : 0.0,
              static_cast<long long>(tally.fairness_worse),
              total ? 100.0 * tally.fairness_better / total : 0.0,
              static_cast<long long>(tally.fairness_better),
              total ? 100.0 * tally.both_better / total : 0.0,
              static_cast<long long>(tally.both_better),
              static_cast<long long>(tally.total));
          std::printf("  paper:   %5.1f%%               %5.1f%%               "
                      "%5.1f%%                    212\n",
                      paper.worse, paper.better, paper.both);
        }

        // Paper's qualitative claims for Table XIV.
        auto tally_of = [&value](const char* model) {
          auto found = value->tallies.find(model);
          return found != value->tallies.end() ? found->second
                                               : ModelTableValue::Tally();
        };
        ModelTableValue::Tally logreg = tally_of("log-reg");
        bool logreg_most_both =
            logreg.both_better >= tally_of("xgboost").both_better &&
            logreg.both_better >= tally_of("knn").both_better;
        std::printf(
            "\nshape check: log-reg benefits most from cleaning "
            "(fairness & accuracy better) -> %s\n",
            logreg_most_both ? "MATCH" : "MISMATCH");
        bool all_worse_dominates = true;
        for (const auto& [model, tally] : value->tallies) {
          if (tally.fairness_worse < tally.fairness_better) {
            all_worse_dominates = false;
          }
        }
        std::printf(
            "shape check: for every model, cleaning worsens fairness more "
            "often than it improves it -> %s\n",
            all_worse_dominates ? "MATCH" : "MISMATCH");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown unit kind");
}

namespace {

std::string JsonString(const std::string& text) {
  return "\"" + obs::JsonEscape(text) + "\"";
}

std::string JsonDouble(double value) { return StrFormat("%.17g", value); }

}  // namespace

std::string SuiteScheduler::BuildReportJson(const SuiteSpec& spec,
                                            const ExperimentGraph& graph,
                                            const SuiteFilter& filter) const {
  // Determinism rules: no wall times, no thread counts, no runtime
  // counters (they could differ between fresh and resumed runs and across
  // widths); cache files by basename only; doubles at full precision;
  // entries in graph-node order. The resulting bytes are identical for
  // sequential, parallel, and killed-and-resumed runs — the suite golden
  // test pins this.
  std::string filter_text;
  for (size_t i = 0; i < filter.tokens.size(); ++i) {
    if (i) filter_text += ",";
    filter_text += filter.tokens[i];
  }

  std::string out = "{";
  out += "\"suite\":" + JsonString(spec.name);
  out += ",\"filter\":" + JsonString(filter_text);
  out += StrFormat(
      ",\"options\":{\"sample_size\":%zu,\"test_fraction\":%s,"
      "\"num_repeats\":%zu,\"cv_folds\":%zu,\"seed\":%llu,\"alpha\":%s,"
      "\"max_retries\":%zu}",
      options_.study.sample_size,
      JsonDouble(options_.study.test_fraction).c_str(),
      options_.study.num_repeats, options_.study.cv_folds,
      static_cast<unsigned long long>(options_.study.seed),
      JsonDouble(options_.study.alpha).c_str(), options_.max_retries);
  // Artifact-sharing summary, derived structurally from the graph rather
  // than read from the store's runtime counters: each node implies a fixed
  // number of store requests under the execution contract (a dataset node
  // produces its dataset; a cell produces its record and re-reads the
  // dataset; a figure node re-reads the dataset and, unless skipped,
  // produces its disparity analysis whose producer re-reads the dataset
  // once more). On a fresh run these equal ArtifactStore::produced() /
  // reused() — the golden test pins that — but counting the graph keeps
  // the report bytes invariant even if a future code path adds
  // conditional store lookups.
  uint64_t artifacts_produced = 0;
  uint64_t artifacts_reused = 0;
  for (const GraphNode& node : graph.nodes()) {
    switch (node.kind) {
      case NodeKind::kDataset:
        ++artifacts_produced;
        break;
      case NodeKind::kCell:
        ++artifacts_produced;
        ++artifacts_reused;
        break;
      case NodeKind::kFigure: {
        ++artifacts_reused;
        auto value = std::static_pointer_cast<const FigureValue>(
            node_values_[node.id]);
        if (value != nullptr && !value->skipped) {
          ++artifacts_produced;
          ++artifacts_reused;
        }
        break;
      }
      default:
        break;
    }
  }
  out += StrFormat(",\"artifacts\":{\"produced\":%llu,\"reused\":%llu}",
                   static_cast<unsigned long long>(artifacts_produced),
                   static_cast<unsigned long long>(artifacts_reused));

  // Mass-run classifier (DESIGN.md Section 16): per-class cell totals.
  // Classes are persisted class: records read back on cache hits, so the
  // block is identical between fresh, warm, resumed, and merged runs.
  ClassifierCounts classifier;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kCell) continue;
    auto artifact =
        std::static_pointer_cast<const CellArtifact>(node_values_[node.id]);
    classifier.Add(artifact->cell_class);
  }
  out += ",\"classifier\":" + classifier.ToJson();

  const Impact kImpacts[3] = {Impact::kWorse, Impact::kInsignificant,
                              Impact::kBetter};

  out += ",\"cells\":[";
  bool first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kCell) continue;
    auto artifact =
        std::static_pointer_cast<const CellArtifact>(node_values_[node.id]);
    out += StrFormat(
        "%s{\"id\":%s,\"cache_file\":%s,\"sha256\":%s,\"class\":%s,"
        "\"repeats\":%zu}",
        first ? "" : ",", JsonString(node.label).c_str(),
        JsonString(artifact->cache_file).c_str(),
        JsonString(artifact->sha256).c_str(),
        JsonString(CellClassName(artifact->cell_class)).c_str(),
        artifact->result.dirty.accuracy.size());
    first = false;
  }
  out += "]";

  out += ",\"figures\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kFigure) continue;
    auto value =
        std::static_pointer_cast<const FigureValue>(node_values_[node.id]);
    out += StrFormat("%s{\"id\":%s,\"skipped\":%s,\"rows\":[",
                     first ? "" : ",", JsonString(node.label).c_str(),
                     value->skipped ? "true" : "false");
    first = false;
    if (!value->skipped) {
      bool first_row = true;
      for (const DisparityRow& row : value->rows->rows) {
        out += StrFormat(
            "%s{\"detector\":%s,\"group\":%s,\"privileged_flagged\":%zu,"
            "\"privileged_total\":%zu,\"disadvantaged_flagged\":%zu,"
            "\"disadvantaged_total\":%zu,\"g2\":%s,\"p\":%s,"
            "\"significant\":%s}",
            first_row ? "" : ",", JsonString(row.detector).c_str(),
            JsonString(row.group_key).c_str(), row.privileged_flagged,
            row.privileged_total, row.disadvantaged_flagged,
            row.disadvantaged_total, JsonDouble(row.g2.statistic).c_str(),
            JsonDouble(row.g2.p_value).c_str(),
            row.significant ? "true" : "false");
        first_row = false;
      }
    }
    out += "]}";
  }
  out += "]";

  out += ",\"tables\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kTable) continue;
    const SuiteUnit& unit = spec.units[node.unit_index];
    const TableSpec& table = unit.tables[node.table_index];
    auto value =
        std::static_pointer_cast<const TableValue>(node_values_[node.id]);
    out += StrFormat("%s{\"id\":%s,\"skipped\":%s", first ? "" : ",",
                     JsonString(node.label).c_str(),
                     value->skipped ? "true" : "false");
    first = false;
    if (!value->skipped) {
      out += StrFormat(",\"total\":%lld,\"counts\":[",
                       static_cast<long long>(value->table.Total()));
      for (size_t r = 0; r < 3; ++r) {
        out += r ? ",[" : "[";
        for (size_t c = 0; c < 3; ++c) {
          out += StrFormat(
              "%s%lld", c ? "," : "",
              static_cast<long long>(
                  value->table.cell(kImpacts[r], kImpacts[c])));
        }
        out += "]";
      }
      out += "],\"reference\":[";
      for (size_t r = 0; r < 3; ++r) {
        out += r ? ",[" : "[";
        for (size_t c = 0; c < 3; ++c) {
          out += StrFormat("%s%s", c ? "," : "",
                           JsonDouble(table.reference.cells[r][c]).c_str());
        }
        out += "]";
      }
      double paper_worse = table.reference.cells[0][0] +
                           table.reference.cells[0][1] +
                           table.reference.cells[0][2];
      double paper_better = table.reference.cells[2][0] +
                            table.reference.cells[2][1] +
                            table.reference.cells[2][2];
      int64_t total = value->table.Total();
      double measured_worse =
          total ? 100.0 * value->table.RowTotal(Impact::kWorse) / total : 0.0;
      double measured_better =
          total ? 100.0 * value->table.RowTotal(Impact::kBetter) / total : 0.0;
      bool shape_match = (paper_worse > paper_better) ==
                         (measured_worse > measured_better);
      out += StrFormat("],\"shape_match\":%s",
                       shape_match ? "true" : "false");
    }
    out += "}";
  }
  out += "]";

  out += ",\"model_tables\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kModelTable) continue;
    const SuiteUnit& unit = spec.units[node.unit_index];
    auto value = std::static_pointer_cast<const ModelTableValue>(
        node_values_[node.id]);
    out += StrFormat("%s{\"id\":%s,\"skipped\":%s,\"models\":[",
                     first ? "" : ",", JsonString(node.label).c_str(),
                     value->skipped ? "true" : "false");
    first = false;
    if (!value->skipped) {
      bool first_model = true;
      for (const ModelReference& paper : unit.model_references) {
        auto it = value->tallies.find(paper.model);
        ModelTableValue::Tally tally;
        if (it != value->tallies.end()) tally = it->second;
        out += StrFormat(
            "%s{\"model\":%s,\"total\":%lld,\"fairness_worse\":%lld,"
            "\"fairness_better\":%lld,\"both_better\":%lld}",
            first_model ? "" : ",", JsonString(paper.model).c_str(),
            static_cast<long long>(tally.total),
            static_cast<long long>(tally.fairness_worse),
            static_cast<long long>(tally.fairness_better),
            static_cast<long long>(tally.both_better));
        first_model = false;
      }
    }
    out += "]}";
  }
  out += "]}";
  out += "\n";
  return out;
}

Status SuiteScheduler::RunSuite(const SuiteSpec& spec,
                                const SuiteFilter& filter) {
  obs::TraceSpan span("sched", [&] { return "suite " + spec.name; });
  ExperimentGraph graph = ExperimentGraph::Build(spec, filter);
  FC_LOG_INFO("suite",
              "%s: %zu nodes (%zu datasets, %zu cells, %zu figures), "
              "width %zu",
              spec.name.c_str(), graph.nodes().size(),
              graph.CountKind(NodeKind::kDataset),
              graph.CountKind(NodeKind::kCell),
              graph.CountKind(NodeKind::kFigure), width_);
  FC_RETURN_IF_ERROR(ExecuteGraph(spec, graph));
  for (size_t unit_index : graph.selected_units()) {
    PrintUnitHeading(spec.units[unit_index]);
    FC_RETURN_IF_ERROR(RenderUnitBody(spec, graph, unit_index));
    std::printf("\n");
  }
  report_json_ = BuildReportJson(spec, graph, filter);
  if (!options_.report_path.empty()) {
    FC_RETURN_IF_ERROR(WriteFileAtomic(options_.report_path, report_json_));
    FC_LOG_INFO("suite", "report written to %s", options_.report_path.c_str());
  }
  return Status::OK();
}

Status SuiteScheduler::RunUnit(const SuiteUnit& unit) {
  SuiteSpec spec;
  spec.name = unit.name;
  spec.units.push_back(unit);
  SuiteFilter filter = SuiteFilter::Parse(unit.name);
  ExperimentGraph graph = ExperimentGraph::Build(spec, filter);
  PrintUnitHeading(unit);
  FC_RETURN_IF_ERROR(ExecuteGraph(spec, graph));
  return RenderUnitBody(spec, graph, 0);
}

}  // namespace sched
}  // namespace fairclean
