#include "ml/tuning.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {

std::vector<TuningFoldData> MaterializeTuningFolds(
    const Matrix& x, const std::vector<int>& y,
    const std::vector<TrainTestIndices>& folds, bool with_presort,
    const std::vector<int>* group_membership) {
  obs::TraceSpan span("ml", "materialize tuning folds");
  static obs::Counter* const materialized =
      obs::MetricsRegistry::Global().GetCounter("ml.tuning.folds_materialized");
  materialized->Increment(folds.size());
  ThreadPool* pool = ThreadPool::SharedForFolds();
  return RunIndexed(pool, folds.size(), [&](size_t f) -> TuningFoldData {
    TuningFoldData data;
    data.train_x = x.TakeRows(folds[f].train);
    data.train_y.reserve(folds[f].train.size());
    for (size_t index : folds[f].train) data.train_y.push_back(y[index]);
    data.valid_x = x.TakeRows(folds[f].test);
    data.valid_y.reserve(folds[f].test.size());
    for (size_t index : folds[f].test) data.valid_y.push_back(y[index]);
    if (group_membership != nullptr) {
      data.valid_membership.reserve(folds[f].test.size());
      for (size_t index : folds[f].test) {
        data.valid_membership.push_back((*group_membership)[index]);
      }
    }
    if (with_presort) {
      data.train_presort = PresortedFeatures::Compute(data.train_x);
      data.has_presort = true;
    }
    return data;
  });
}

TunedModelFamily LogRegFamily() {
  TunedModelFamily family;
  family.name = "log-reg";
  family.param_grid = {0.1, 1.0, 10.0};
  family.make = [](double c) -> std::unique_ptr<Classifier> {
    LogisticRegressionOptions options;
    options.c = c;
    return std::make_unique<LogisticRegression>(options);
  };
  return family;
}

TunedModelFamily KnnFamily() {
  TunedModelFamily family;
  family.name = "knn";
  family.param_grid = {5.0, 15.0, 31.0};
  family.make = [](double k) -> std::unique_ptr<Classifier> {
    KnnOptions options;
    options.k = static_cast<int>(k);
    return std::make_unique<KnnClassifier>(options);
  };
  std::vector<int> ks;
  ks.reserve(family.param_grid.size());
  for (double k : family.param_grid) ks.push_back(static_cast<int>(k));
  family.fused_grid_eval =
      [ks](const TuningFoldData& data) -> Result<std::vector<double>> {
    // Mirror KnnClassifier::Fit's failure condition so a degenerate fold
    // is skipped for every grid entry, exactly like the per-point path.
    if (data.train_x.rows() == 0) {
      return Status::InvalidArgument("empty training set");
    }
    return KnnGridAccuracies(data.train_x, data.train_y, data.valid_x,
                             data.valid_y, ks);
  };
  return family;
}

TunedModelFamily GbdtFamily() {
  TunedModelFamily family;
  family.name = "xgboost";
  family.param_grid = {2.0, 3.0, 4.0};
  family.make = [](double depth) -> std::unique_ptr<Classifier> {
    GbdtOptions options;
    options.max_depth = static_cast<int>(depth);
    return std::make_unique<GradientBoostedTrees>(options);
  };
  family.wants_presort = true;
  return family;
}

Result<TunedModelFamily> ModelFamilyByName(const std::string& name) {
  if (name == "log-reg") return LogRegFamily();
  if (name == "knn") return KnnFamily();
  if (name == "xgboost") return GbdtFamily();
  return Status::NotFound("unknown model family: " + name);
}

std::vector<std::string> AllModelNames() {
  return {"log-reg", "knn", "xgboost"};
}

Result<TuneOutcome> TuneAndFit(const TunedModelFamily& family, const Matrix& x,
                               const std::vector<int>& y, size_t num_folds,
                               Rng* rng) {
  if (family.param_grid.empty()) {
    return Status::InvalidArgument("empty hyperparameter grid");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("feature/label size mismatch");
  }
  if (x.rows() < num_folds) {
    return Status::InvalidArgument("fewer rows than folds");
  }
  obs::TraceSpan span("ml", [&] { return "TuneAndFit " + family.name; });

  Rng fold_rng = rng->Fork(0x5eed);
  std::vector<TrainTestIndices> folds =
      KFoldIndices(x.rows(), num_folds, &fold_rng);

  struct FoldEval {
    bool ok = false;
    double accuracy = 0.0;
  };

  ThreadPool* pool = ThreadPool::SharedForFolds();
  // Fold-data cache: materialize each fold's train/validation slices (and,
  // for presort-aware families, the per-fold feature presort) once and
  // reuse them for every grid point. TakeRows does not consume the rng, so
  // hoisting it out of the grid loop leaves all random draws — and thus
  // all scores — byte-identical.
  const std::vector<TuningFoldData> fold_data =
      MaterializeTuningFolds(x, y, folds, family.wants_presort);
  double best_accuracy = -1.0;
  double best_param = family.param_grid.front();
  if (family.fused_grid_eval) {
    // Batched grid evaluation: one fused pass per fold answers every grid
    // entry. The per-grid-point loop forks one rng per (param, fold) — the
    // fits below never happen here, but Fork advances the parent engine,
    // so the same forks must be drawn and discarded for the final-fit rng
    // stream (and thus the model) to stay byte-identical.
    for (size_t p = 0; p < family.param_grid.size(); ++p) {
      for (size_t f = 0; f < folds.size(); ++f) {
        (void)rng->Fork(0xf17 + f);
      }
    }
    struct GridEval {
      bool ok = false;
      std::vector<double> accuracies;
    };
    std::vector<GridEval> evals =
        RunIndexed(pool, folds.size(), [&](size_t f) -> GridEval {
          obs::TraceSpan fold_span("ml", [&] {
            return "tune fold " + std::to_string(f) + " " + family.name +
                   " fused-grid";
          });
          GridEval eval;
          Result<std::vector<double>> accuracies =
              family.fused_grid_eval(fold_data[f]);
          if (!accuracies.ok()) return eval;  // degenerate fold; skip
          eval.accuracies = std::move(*accuracies);
          FC_CHECK_EQ(eval.accuracies.size(), family.param_grid.size());
          eval.ok = true;
          return eval;
        });
    for (size_t p = 0; p < family.param_grid.size(); ++p) {
      double accuracy_sum = 0.0;
      size_t evaluated = 0;
      for (const GridEval& eval : evals) {  // fold order: sums unchanged
        if (!eval.ok) continue;
        accuracy_sum += eval.accuracies[p];
        ++evaluated;
      }
      if (evaluated == 0) continue;
      double mean_accuracy = accuracy_sum / static_cast<double>(evaluated);
      if (mean_accuracy > best_accuracy) {
        best_accuracy = mean_accuracy;
        best_param = family.param_grid[p];
      }
    }
  } else {
    for (double param : family.param_grid) {
      // Fork the per-fold fit RNGs up front, in fold order: Fork advances
      // the parent engine, so the fork order (not just the salt) must match
      // the sequential loop for scores to stay byte-identical under
      // parallelism.
      std::vector<Rng> fit_rngs;
      fit_rngs.reserve(folds.size());
      for (size_t f = 0; f < folds.size(); ++f) {
        fit_rngs.push_back(rng->Fork(0xf17 + f));
      }
      std::vector<FoldEval> evals =
          RunIndexed(pool, folds.size(), [&](size_t f) -> FoldEval {
            obs::TraceSpan fold_span("ml", [&] {
              return "tune fold " + std::to_string(f) + " " + family.name;
            });
            FoldEval eval;
            const TuningFoldData& data = fold_data[f];
            std::unique_ptr<Classifier> model = family.make(param);
            Status st = model->FitWithPresort(
                data.train_x, data.train_y, &fit_rngs[f],
                data.has_presort ? &data.train_presort : nullptr);
            if (!st.ok()) return eval;  // e.g. single-class fold; skip
            eval.accuracy =
                AccuracyScore(data.valid_y, model->Predict(data.valid_x));
            eval.ok = true;
            return eval;
          });
      double accuracy_sum = 0.0;
      size_t evaluated = 0;
      for (const FoldEval& eval : evals) {  // fold order: sums unchanged
        if (!eval.ok) continue;
        accuracy_sum += eval.accuracy;
        ++evaluated;
      }
      if (evaluated == 0) continue;
      double mean_accuracy = accuracy_sum / static_cast<double>(evaluated);
      if (mean_accuracy > best_accuracy) {
        best_accuracy = mean_accuracy;
        best_param = param;
      }
    }
  }
  if (best_accuracy < 0.0) {
    return Status::Internal("no hyperparameter could be evaluated");
  }

  TuneOutcome outcome;
  outcome.best_param = best_param;
  outcome.best_cv_accuracy = best_accuracy;
  outcome.model = family.make(best_param);
  Rng final_rng = rng->Fork(0xf17a1);
  FC_RETURN_IF_ERROR(outcome.model->Fit(x, y, &final_rng));
  return outcome;
}

}  // namespace fairclean
