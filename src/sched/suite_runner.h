#ifndef FAIRCLEAN_SCHED_SUITE_RUNNER_H_
#define FAIRCLEAN_SCHED_SUITE_RUNNER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/disparity.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "exec/study_driver.h"
#include "obs/metrics.h"
#include "sched/artifact_store.h"
#include "sched/experiment_graph.h"
#include "sched/shard.h"
#include "sched/suite_spec.h"
#include "sched/wave_plan.h"
#include "store/blob_store.h"
#include "store/lease.h"

namespace fairclean {
namespace sched {

/// EX_TEMPFAIL: the run stopped at its time budget with resumable state.
constexpr int kExitResumable = 75;

/// Suite-wide options: study scale, the driver's fault-tolerance knobs, and
/// the suite-level fan-out width. Resolved ONCE (SuiteOptionsFromEnv) and
/// threaded through every cell, so a mid-run environment change cannot
/// split one suite across inconsistent knobs.
struct SuiteOptions {
  StudyOptions study;
  /// Directory for cached experiment records ("" disables caching).
  std::string cache_dir = "fairclean_cache";
  /// Extra attempts per degenerate repeat before it is skipped.
  size_t max_retries = 2;
  /// Soft wall-clock budget in seconds for the whole suite (<= 0:
  /// unlimited); on exhaustion the suite checkpoints and reports a
  /// resumable failure (exit 75).
  double time_budget_s = 0.0;
  /// Worker threads for the suite-level experiment fan-out (0:
  /// FAIRCLEAN_THREADS, whose own default is hardware_concurrency; 1:
  /// sequential). Results are byte-identical across widths.
  size_t threads = 0;
  /// Where RunSuite writes the merged JSON report ("" keeps it in memory
  /// only; see SuiteScheduler::report_json()).
  std::string report_path;
  /// This process's slice of a multi-process run (--shard / --shard-claim;
  /// inactive by default). Sharding requires a non-empty cache_dir: the
  /// shared cache IS the coordination plane.
  ShardSpec shard;
  /// Claim-lease duration in seconds (FAIRCLEAN_SHARD_LEASE_S). A claim
  /// whose owner neither finishes nor refreshes (each journal checkpoint
  /// refreshes) within this window becomes stealable.
  double shard_lease_s = 30.0;
};

/// The bench-scale defaults (sample 3500, 16 repeats, 3 folds, holdout
/// 0.3, seed 42) overridable via FAIRCLEAN_SAMPLE / FAIRCLEAN_REPEATS /
/// FAIRCLEAN_FOLDS / FAIRCLEAN_SEED / FAIRCLEAN_CACHE_DIR /
/// FAIRCLEAN_MAX_RETRIES / FAIRCLEAN_TIME_BUDGET_S / FAIRCLEAN_THREADS /
/// FAIRCLEAN_SUITE_REPORT / FAIRCLEAN_SHARD_LEASE_S. Reads the environment
/// exactly once, at the call. Count and budget knobs parse strictly
/// (GetEnvCount / GetEnvBudgetSeconds): trailing garbage, NaN/inf, or a
/// negative value is an InvalidArgument instead of a silent fallback to the
/// default.
Result<SuiteOptions> TrySuiteOptionsFromEnv();

/// TrySuiteOptionsFromEnv for contexts without an error channel (benches,
/// tests): a malformed knob aborts the process with the parse error, which
/// beats silently running the whole suite at an unintended scale.
SuiteOptions SuiteOptionsFromEnv();

/// One produced experiment-cell artifact: the driver result plus the byte
/// identity of its persisted cache record (sha256 of the exact file bytes,
/// or of the bytes SaveToFile would write when caching is disabled).
struct CellArtifact {
  CleaningExperimentResult result;
  /// Cache file basename ("" when caching is disabled). Basename, not
  /// path, so reports are identical across cache directories.
  std::string cache_file;
  std::string sha256;
  /// Mass-run classification (persisted as a class: record next to the
  /// cache record, read back on cache hits — so fresh, warm, resumed, and
  /// merged runs report the same class).
  CellClass cell_class = CellClass::kPass;
};

/// One per-dataset disparity analysis (Fig. 1 / Fig. 2 panel).
struct DisparityArtifact {
  std::vector<DisparityRow> rows;
};

/// Scope results keyed "<dataset>/<model>", shared with the artifact store.
using ScopeResults = std::map<std::string, std::shared_ptr<const CellArtifact>>;

/// Aggregates a scope's results into the paper's 3x3 impact table for one
/// (grouping, fairness metric): every (pair-or-dataset, method, model)
/// configuration contributes one cell. `alpha` is the base level; it is
/// Bonferroni-adjusted by the scope's cleaning-method count.
Result<ImpactTable> AggregateImpactTable(const ScopeResults& results,
                                         const StudyScope& scope,
                                         bool intersectional,
                                         FairnessMetric metric, double alpha);

/// Prints measured-vs-paper tables side by side plus a qualitative shape
/// check (dominant-row agreement). Byte-identical to the historical bench
/// output.
void PrintTableWithReference(const ImpactTable& measured,
                             const PaperTable& reference,
                             const std::string& title);

/// Runs the paper grid as one DAG: dataset and experiment-cell nodes are
/// deduplicated across units and produced exactly once through a
/// content-addressed ArtifactStore, ready nodes fan out across a
/// suite-level ThreadPool (each cell runs a sequential StudyDriver, so the
/// per-repeat fan-out is replaced by experiment-level parallelism without
/// nesting pools), and aggregation nodes fold cell artifacts into the
/// paper's tables and figures.
///
/// Identity contract (DESIGN.md Section 9): each cell's cache record is
/// byte-identical to what the standalone table bench produces, at any
/// thread width, and the merged report is byte-identical between
/// sequential, parallel, and killed-and-resumed runs.
///
/// RunSuite / RunUnit / RunScopeCells must be called from one thread at a
/// time; internal fan-out is the scheduler's own concern.
class SuiteScheduler {
 public:
  explicit SuiteScheduler(SuiteOptions options);

  const SuiteOptions& options() const { return options_; }
  /// Resolved suite fan-out width.
  size_t width() const { return width_; }
  ArtifactStore& artifacts() { return artifacts_; }

  /// Runs every unit the filter selects, prints each unit's report
  /// (byte-identical to the standalone benches' bodies), and assembles the
  /// merged JSON report (written to options.report_path when set).
  Status RunSuite(const SuiteSpec& spec, const SuiteFilter& filter);

  /// Runs this process's shard of the suite (options.shard must be
  /// active): produces cell artifacts only — static mode takes a
  /// deterministic per-wave partition, claim mode work-steals cells
  /// through lease records under <cache_dir>/claims — then writes a
  /// partial report next to options.report_path. In claim mode the last
  /// finishing shard wins a __merge__ lease election and assembles the
  /// merged report itself (DESIGN.md Section 16); static shards rely on an
  /// explicit RunSuiteMerge pass.
  Status RunSuiteShard(const SuiteSpec& spec, const SuiteFilter& filter);

  /// Merge step of a sharded run: validates the N partial reports
  /// "<report_path>.shard<i>of<N>" (each listed cell's sha256 must match
  /// the shared cache's actual bytes), then executes the full graph over
  /// the warm cache — every cell is a cache hit — so the merged report is
  /// byte-identical to a single-process run by the fresh==warm identity
  /// contract. Partial reports are never stitched. N is the active shard
  /// spec's count (a claim shard's auto-merge, which first waits for its
  /// siblings' partials) or, for an explicit merge pass, the count the
  /// partials on disk are named with.
  Status RunSuiteMerge(const SuiteSpec& spec, const SuiteFilter& filter);

  /// Partial-report path of one shard: "<report_path>.shard<i>of<N>"
  /// (1-based i).
  static std::string PartialReportPath(const std::string& report_path,
                                       const ShardSpec& shard);

  /// Invoked (with the cell) after every successful journal checkpoint of
  /// a cell driver, in addition to the claim-lease refresh the shard layer
  /// performs there. The shard soak test uses it as a deterministic
  /// mid-cell crash point (raise SIGKILL after the first checkpoint).
  void set_cell_checkpoint_hook(std::function<void(const CellKey&)> hook) {
    cell_checkpoint_hook_ = std::move(hook);
  }

  /// Runs a single unit for the legacy bench binaries: prints the unit
  /// heading up front (progress visibility), executes the unit's subgraph,
  /// then prints the unit body. No merged report.
  Status RunUnit(const SuiteUnit& unit);

  /// Runs (or reuses) every cell of one scope across the suite pool and
  /// returns them keyed "<dataset>/<model>". Shared-artifact path for the
  /// Table XIV and deep-dive consumers: repeated calls reuse datasets and
  /// cells through the store.
  Result<ScopeResults> RunScopeCells(const StudyScope& scope);

  /// Shared dataset / cell / disparity artifacts (produced on first use).
  Result<std::shared_ptr<const GeneratedDataset>> Dataset(
      const std::string& name);
  Result<std::shared_ptr<const CellArtifact>> Cell(const CellKey& cell);
  Result<std::shared_ptr<const DisparityArtifact>> Disparity(
      const std::string& dataset, bool intersectional);

  /// Sum of every cell driver's diagnostics; `threads` reports the suite
  /// width (per-cell drivers are sequential by construction).
  exec::RunDiagnostics AggregateDiagnostics() const;

  /// Prints the aggregate diagnostics (and, at info level, the process
  /// metric instruments) to stdout — the benches' historical run summary.
  void PrintRunSummary() const;

  /// Reports a failed run to stderr (message, diagnostics, resume hint on
  /// deadline) and returns the process exit code: kExitResumable for a
  /// resumable deadline, 1 otherwise.
  int ReportFailure(const Status& status) const;

  /// The merged report of the last successful RunSuite (deterministic
  /// bytes: no wall times, no thread counts, artifact counts derived
  /// structurally from the graph rather than from runtime counters).
  const std::string& report_json() const { return report_json_; }

  double ElapsedSeconds() const;

  static int ExitCode(const Status& status) {
    if (status.ok()) return 0;
    return status.code() == StatusCode::kDeadlineExceeded ? kExitResumable
                                                          : 1;
  }

 private:
  struct FigureValue {
    bool skipped = false;  ///< dataset has no intersectional definition
    std::shared_ptr<const DisparityArtifact> rows;
  };
  struct TableValue {
    bool skipped = false;  ///< filter narrowed the unit: cannot aggregate
    ImpactTable table;
  };
  struct ModelTableValue {
    struct Tally {
      int64_t total = 0;
      int64_t fairness_worse = 0;
      int64_t fairness_better = 0;
      int64_t both_better = 0;
    };
    bool skipped = false;
    std::map<std::string, Tally> tallies;
  };

  /// Driver options for one cell: the suite options with threads pinned to
  /// 1 and the time budget reduced to what remains of the suite budget.
  /// DeadlineExceeded when the suite budget is already exhausted.
  Result<exec::StudyDriverOptions> CellDriverOptions() const;

  Result<CellArtifact> ProduceCell(const CellKey& cell);
  void Accumulate(const exec::RunDiagnostics& diagnostics);

  /// Classification + class-record persistence for one freshly produced
  /// (non-cache-hit) cell; reads the sticky record back on cache hits.
  CellClass ClassifyProducedCell(const CellKey& cell,
                                 const exec::RunDiagnostics& diag,
                                 store::FlatFileStore* blob,
                                 const std::string& cache_key);

  /// Shard helpers (shard_runner.cc).
  struct ShardCounters {
    uint64_t produced = 0;
    uint64_t steals = 0;
    uint64_t claim_conflicts = 0;
    uint64_t cache_skips = 0;
    uint64_t lease_refreshes = 0;
    uint64_t lease_lost = 0;
  };
  /// Cache key of one cell under this suite's scale (pure; no store I/O).
  std::string CellCacheKey(const CellKey& cell) const;
  /// Produces the given cell nodes of wave `w` through the planner + pool
  /// (the fan-out slice of ExecuteGraph, cells only).
  Status ProduceWaveCells(const SuiteSpec& spec, const ExperimentGraph& graph,
                          size_t wave_index, const std::vector<size_t>& ids);
  Status RunClaimWave(const SuiteSpec& spec, const ExperimentGraph& graph,
                      size_t wave_index, const std::vector<size_t>& cell_ids,
                      std::vector<size_t>* produced_ids);
  Status WritePartialReport(const SuiteSpec& spec,
                            const ExperimentGraph& graph,
                            const SuiteFilter& filter,
                            const std::vector<size_t>& produced_ids) const;
  /// Paths of the partial reports RunSuiteMerge validates (see there).
  Result<std::vector<std::string>> PartialReportsToValidate() const;
  /// True when this cell's claim was stolen by this process.
  bool IsStolenCell(const CellKey& cell) const;
  /// Lease refresh driven by the cell driver's journal checkpoints.
  void RefreshCellLease(const CellKey& cell);

  /// Executes the graph wave by wave: dataset/cell/figure nodes fan out
  /// across the pool, aggregation nodes run inline; node results land in
  /// node_values_. On failure returns the failed node with the smallest id
  /// (deterministic across widths).
  Status ExecuteGraph(const SuiteSpec& spec, const ExperimentGraph& graph);
  Status RunNode(const SuiteSpec& spec, const ExperimentGraph& graph,
                 size_t id);
  bool Narrowed(const ExperimentGraph& graph, size_t unit_index) const;
  /// Cell artifacts among `node`'s deps with the given error type, keyed
  /// "<dataset>/<model>".
  ScopeResults ScopeFromDeps(const ExperimentGraph& graph,
                             const GraphNode& node,
                             const std::string& error_type) const;

  void PrintUnitHeading(const SuiteUnit& unit) const;
  Status RenderUnitBody(const SuiteSpec& spec, const ExperimentGraph& graph,
                        size_t unit_index) const;
  /// Prints the unit's "summary vs paper" block over the figure nodes of
  /// `unit_index` only — in a full-suite graph both fig1's and fig2's
  /// nodes coexist, and mixing them would corrupt the counts.
  void RenderFigureSummary(const SuiteUnit& unit, const ExperimentGraph& graph,
                           size_t unit_index) const;

  std::string BuildReportJson(const SuiteSpec& spec,
                              const ExperimentGraph& graph,
                              const SuiteFilter& filter) const;

  SuiteOptions options_;
  size_t width_ = 1;
  /// Scoped registry: suite counters forward to MetricsRegistry::Global()
  /// while staying separable for perf reporting.
  obs::MetricsRegistry metrics_;
  ArtifactStore artifacts_;
  /// Wave-level execution planner (DESIGN.md §15): materializes the shared
  /// per-(dataset, seed) inputs of each wave's cell group once, before the
  /// wave fans out.
  WavePlanner planner_;
  /// Wave index of the fan-out currently executing; kNoWave outside one.
  /// Tags cell spans "cell w<k> ..." so trace summaries can group the
  /// planner's materialization cost with the wave it paid for. Written
  /// only on the scheduling thread between fan-outs.
  static constexpr size_t kNoWave = static_cast<size_t>(-1);
  size_t current_wave_ = kNoWave;
  std::unique_ptr<ThreadPool> pool_;  ///< null when width_ == 1
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex diag_mutex_;
  exec::RunDiagnostics total_;

  /// Claim coordination state of a sharded run (null/empty otherwise).
  /// shard_mutex_ guards the token map, stolen set, and counters — the
  /// checkpoint hook touches them from pool workers.
  std::unique_ptr<store::LeaseStore> lease_store_;
  mutable std::mutex shard_mutex_;
  std::map<std::string, store::LeaseToken> claim_tokens_;  ///< by cell id
  std::set<std::string> stolen_cells_;                     ///< cell ids
  ShardCounters shard_counters_;
  std::function<void(const CellKey&)> cell_checkpoint_hook_;

  /// Node results of the last ExecuteGraph, indexed by node id. Holds
  /// CellArtifact / GeneratedDataset / FigureValue / TableValue /
  /// ModelTableValue per the node kind.
  std::vector<std::shared_ptr<const void>> node_values_;
  std::string report_json_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_SUITE_RUNNER_H_
