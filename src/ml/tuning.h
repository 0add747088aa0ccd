#ifndef FAIRCLEAN_ML_TUNING_H_
#define FAIRCLEAN_ML_TUNING_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/split.h"
#include "ml/classifier.h"
#include "ml/regression_tree.h"

namespace fairclean {

struct TuningFoldData;

/// A model family with one tuned hyperparameter, mirroring the paper's
/// setup: log-reg tunes the regularization strength C, knn tunes the number
/// of neighbors, xgboost tunes the maximum tree depth.
struct TunedModelFamily {
  std::string name;
  /// Candidate values of the tuned hyperparameter.
  std::vector<double> param_grid;
  /// Builds an untrained classifier for a hyperparameter value.
  std::function<std::unique_ptr<Classifier>(double)> make;
  /// True when the family's FitWithPresort consumes a shared
  /// PresortedFeatures of its training matrix (xgboost); lets the tuner
  /// presort every fold once for the whole grid instead of once per fit.
  bool wants_presort = false;
  /// Optional batched grid evaluator: validation accuracy of one fold for
  /// EVERY param_grid entry from a single pass (kNN answers the whole k
  /// grid from one top-max(k) distance sweep). Each entry must be bit-equal
  /// to the per-grid-point fit+score path; an error marks the fold failed
  /// for every grid entry, matching the per-point skip. Null when the
  /// family has no batched kernel — the tuner then runs the per-grid-point
  /// loop.
  std::function<Result<std::vector<double>>(const TuningFoldData&)>
      fused_grid_eval;
};

/// Per-fold train/validation slices of a hyperparameter search,
/// materialized once and reused across every grid point — the grid loop
/// used to re-copy near-full matrices |grid| times per fold.
struct TuningFoldData {
  Matrix train_x;
  std::vector<int> train_y;
  Matrix valid_x;
  std::vector<int> valid_y;
  /// Validation-row slice of the caller's group membership; filled only
  /// when a membership vector is supplied (fairness-constrained tuning).
  std::vector<int> valid_membership;
  /// Feature presort of train_x, built only for wants_presort families
  /// (has_presort distinguishes "not built" from "built but empty").
  PresortedFeatures train_presort;
  bool has_presort = false;
};

/// Materializes the per-fold slices, fanning folds across the shared fold
/// pool when one is available (each fold writes only its own slot, so
/// scheduling cannot affect the result). Pure data movement plus
/// deterministic sorts: does not consume any rng.
std::vector<TuningFoldData> MaterializeTuningFolds(
    const Matrix& x, const std::vector<int>& y,
    const std::vector<TrainTestIndices>& folds, bool with_presort,
    const std::vector<int>* group_membership = nullptr);

/// The three families of the study with their default grids. KnnFamily
/// carries the batched grid evaluator.
TunedModelFamily LogRegFamily();
TunedModelFamily KnnFamily();
TunedModelFamily GbdtFamily();

/// Looks up a family by its paper name ("log-reg", "knn", "xgboost").
Result<TunedModelFamily> ModelFamilyByName(const std::string& name);

/// Names of all model families, in the paper's order.
std::vector<std::string> AllModelNames();

/// Outcome of hyperparameter search + final training.
struct TuneOutcome {
  double best_param = 0.0;
  double best_cv_accuracy = 0.0;
  std::unique_ptr<Classifier> model;  // trained on the full training set
};

/// Selects the best hyperparameter by mean k-fold CV accuracy (ties go to
/// the earlier grid entry), then trains a fresh model on the full training
/// set. All randomized decisions derive from `rng`.
///
/// Fold slices (and presorts) are materialized once per tune and shared by
/// every grid point; families with a `fused_grid_eval` score the whole grid
/// per fold in one pass (DESIGN.md §15). The rng fork sequence is the same
/// on both paths, so the selected hyperparameter, CV accuracy, and final
/// model are byte-identical to the per-grid-point loop.
Result<TuneOutcome> TuneAndFit(const TunedModelFamily& family, const Matrix& x,
                               const std::vector<int>& y, size_t num_folds,
                               Rng* rng);

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_TUNING_H_
