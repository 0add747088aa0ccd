#ifndef FAIRCLEAN_ML_GBDT_H_
#define FAIRCLEAN_ML_GBDT_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/regression_tree.h"

namespace fairclean {

/// Hyperparameters for GradientBoostedTrees.
struct GbdtOptions {
  /// Number of boosting rounds.
  int num_rounds = 50;
  /// Shrinkage applied to every tree's contribution.
  double learning_rate = 0.2;
  /// Maximum tree depth — the hyperparameter the paper tunes for xgboost.
  int max_depth = 3;
  /// Row subsampling fraction per round (stochastic gradient boosting);
  /// values < 1 make training depend on the Fit rng, mirroring the paper's
  /// per-seed model instances.
  double subsample = 0.8;
  /// Bench/ablation knob: when false, every boosting round re-sorts its
  /// subsample from scratch instead of filtering the shared presort. The
  /// per-round sort orders ties between equal feature values differently
  /// than the stable filter, so scores are NOT byte-identical across the
  /// two settings — keep true everywhere except perf_micro's on/off
  /// comparison.
  bool presort_reuse = true;
  RegressionTreeOptions tree;
};

/// Gradient-boosted decision trees on the logistic loss with second-order
/// (Newton) leaf weights — a from-scratch stand-in for the XGBoost binary
/// classifier used in the paper.
class GradientBoostedTrees : public Classifier {
 public:
  explicit GradientBoostedTrees(GbdtOptions options = {})
      : options_(options) {}

  Status Fit(const Matrix& x, const std::vector<int>& y, Rng* rng) override;
  /// Consumes a caller-provided PresortedFeatures::Compute(x) instead of
  /// presorting internally — byte-identical to Fit, minus the sort cost.
  /// The tuner uses this to presort each fold once for the whole grid.
  Status FitWithPresort(const Matrix& x, const std::vector<int>& y, Rng* rng,
                        const PresortedFeatures* presorted) override;
  std::vector<double> PredictProba(const Matrix& x) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GradientBoostedTrees>(options_);
  }
  std::string name() const override { return "xgboost"; }

  size_t num_trees() const { return trees_.size(); }

  /// Mean training logistic loss after round `i` (recorded during Fit);
  /// exposed for convergence tests.
  const std::vector<double>& training_loss_curve() const {
    return loss_curve_;
  }

 private:
  GbdtOptions options_;
  /// Set only for the duration of FitWithPresort.
  const PresortedFeatures* external_presort_ = nullptr;
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;  // initial log-odds
  std::vector<double> loss_curve_;
  bool fitted_ = false;
};

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_GBDT_H_
