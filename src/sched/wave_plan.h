#ifndef FAIRCLEAN_SCHED_WAVE_PLAN_H_
#define FAIRCLEAN_SCHED_WAVE_PLAN_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "exec/study_driver.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {

/// Shared immutable materialization for one (dataset, seed) group of ready
/// cells in a Kahn wave (DESIGN.md §15): the generated dataset artifact,
/// its group definitions, and the tuned family per model name. Built once
/// per group before the wave fans out; strictly read-only while the wave
/// runs, so any number of worker threads can consume one plan without
/// synchronization. Every field is a pure function of (dataset name,
/// seed), which is why planned and per-cell rebuilt runs stay
/// byte-identical.
struct WavePlan {
  std::string dataset;
  uint64_t seed = 0;
  std::shared_ptr<const GeneratedDataset> data;
  std::shared_ptr<const std::vector<GroupDefinition>> groups;
  /// Tuned families keyed by model name.
  std::map<std::string, std::shared_ptr<const TunedModelFamily>> families;
  /// Cells of the wave this plan was built for (structural: counted at
  /// build time from the wave's cell list, not from runtime consumption).
  size_t members = 0;

  /// The plan's inputs in the study driver's shape for one model. The
  /// family pointer is null when `model` was not seen at build time (the
  /// driver then resolves it per cell).
  exec::CellPlanInputs InputsFor(const std::string& model) const;
};

/// Relative cost rank of one cell for longest-processing-time-first wave
/// ordering: the scheduler submits a wave's fan-out in descending rank so
/// the expensive cells start first and the cheap ones fill the tail,
/// tightening the wave's makespan. Pure scheduling — results land in
/// id-indexed slots and failures are still reported in deterministic node
/// order, so the bytes cannot change. GBDT tuning is the longest pole;
/// the batched kNN grid kernel puts kNN second.
int CellCostRank(const CellKey& cell);

/// Builds and serves per-(dataset, seed) WavePlans for the cells of one
/// wave. The protocol mirrors the scheduler's wave loop:
///
///   PlanWave(k, cells)   — single-threaded, before the wave's fan-out
///   Consume(cell)        — from any worker, read-only, during the wave
///   EndWave()            — single-threaded, after the wave joins
///
/// A "plan_build" fault during one group's
/// materialization drops only that group's plan: its cells fall back to
/// the per-cell rebuild path and the run's bytes do not change.
///
/// Observability: each group build runs under a "sched"-category
/// "plan.build w<k> <dataset>" span, `sched.wave_plans_built` counts built
/// plans, and `sched.plan_reuse_hits` counts cells served by a plan.
class WavePlanner {
 public:
  using DatasetFn = std::function<
      Result<std::shared_ptr<const GeneratedDataset>>(const std::string&)>;

  /// `dataset_fn` resolves the shared dataset artifact (the scheduler's
  /// ArtifactStore-backed lookup); `seed` is the suite's study seed.
  WavePlanner(uint64_t seed, DatasetFn dataset_fn);

  /// Materializes one plan per dataset group of `cells` (the seed is fixed
  /// per suite, so the dataset name keys the group). Clears any previous
  /// wave's plans first.
  void PlanWave(size_t wave_index, const std::vector<CellKey>& cells);

  /// The plan serving `cell`, or null (build fault, or an unplanned
  /// execution path). Counts a plan reuse hit when found.
  const WavePlan* Consume(const CellKey& cell);

  /// Drops the current wave's plans (their shared_ptr payloads stay alive
  /// in any CellPlanInputs still holding them).
  void EndWave();

 private:
  uint64_t seed_;
  DatasetFn dataset_fn_;
  /// Current wave's plans, keyed by dataset name. Mutated only in
  /// PlanWave/EndWave (between fan-outs); read-only during a wave.
  std::map<std::string, WavePlan> plans_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_WAVE_PLAN_H_
