#include "sched/wave_plan.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {
namespace sched {

namespace {

obs::Counter* PlansBuiltCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("sched.wave_plans_built");
  return counter;
}

obs::Counter* ReuseHitsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("sched.plan_reuse_hits");
  return counter;
}

}  // namespace

int CellCostRank(const CellKey& cell) {
  if (cell.model == "xgboost") return 30;
  if (cell.model == "knn") return 20;
  return 10;  // log-reg and anything unknown: cheap, fills the tail
}

exec::CellPlanInputs WavePlan::InputsFor(const std::string& model) const {
  exec::CellPlanInputs inputs;
  inputs.groups = groups;
  auto it = families.find(model);
  if (it != families.end()) inputs.family = it->second;
  return inputs;
}

WavePlanner::WavePlanner(uint64_t seed, DatasetFn dataset_fn)
    : seed_(seed), dataset_fn_(std::move(dataset_fn)) {}

void WavePlanner::PlanWave(size_t wave_index,
                           const std::vector<CellKey>& cells) {
  plans_.clear();
  if (cells.empty()) return;

  // Group the wave's cells by dataset (the suite seed is fixed per run, so
  // (dataset, seed) groups collapse to dataset groups) and count members
  // structurally from the wave's cell list.
  std::map<std::string, std::vector<const CellKey*>> groups;
  for (const CellKey& cell : cells) {
    groups[cell.dataset].push_back(&cell);
  }

  for (const auto& [dataset, members] : groups) {
    obs::TraceSpan span("sched", [&, wave_index] {
      return StrFormat("plan.build w%zu %s", wave_index, dataset.c_str());
    });
    // Fault containment: a fired "plan_build" (or a dataset/family
    // resolution failure) drops this group's plan only. Its cells fall
    // back to the per-cell rebuild path and still produce identical
    // bytes — the plan is an accelerator, never a correctness dependency.
    Status injected = FaultInjector::Global().Inject("plan_build");
    if (!injected.ok()) {
      FC_LOG_WARN("sched", "plan build fault for wave %zu group %s: %s",
                  wave_index, dataset.c_str(), injected.ToString().c_str());
      continue;
    }
    Result<std::shared_ptr<const GeneratedDataset>> data =
        dataset_fn_(dataset);
    if (!data.ok()) {
      FC_LOG_WARN("sched", "plan build for %s failed (%s); cells rebuild",
                  dataset.c_str(), data.status().ToString().c_str());
      continue;
    }
    WavePlan plan;
    plan.dataset = dataset;
    plan.seed = seed_;
    plan.data = *data;
    plan.groups = std::make_shared<const std::vector<GroupDefinition>>(
        GroupDefinitionsFor(plan.data->spec));
    bool families_ok = true;
    for (const CellKey* member : members) {
      if (plan.families.count(member->model) != 0) continue;
      Result<TunedModelFamily> family = ModelFamilyByName(member->model);
      if (!family.ok()) {
        FC_LOG_WARN("sched", "plan build for %s: unknown model %s (%s)",
                    dataset.c_str(), member->model.c_str(),
                    family.status().ToString().c_str());
        families_ok = false;
        break;
      }
      plan.families.emplace(
          member->model,
          std::make_shared<const TunedModelFamily>(std::move(*family)));
    }
    if (!families_ok) continue;
    plan.members = members.size();
    PlansBuiltCounter()->Increment();
    plans_.emplace(dataset, std::move(plan));
  }
}

const WavePlan* WavePlanner::Consume(const CellKey& cell) {
  auto it = plans_.find(cell.dataset);
  if (it == plans_.end()) return nullptr;
  ReuseHitsCounter()->Increment();
  return &it->second;
}

void WavePlanner::EndWave() { plans_.clear(); }

}  // namespace sched
}  // namespace fairclean
