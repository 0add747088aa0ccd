#ifndef FAIRCLEAN_ML_KNN_H_
#define FAIRCLEAN_ML_KNN_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace fairclean {

/// Hyperparameters for KnnClassifier.
struct KnnOptions {
  /// Number of neighbors — the hyperparameter the paper tunes.
  int k = 15;
};

/// Brute-force k-nearest-neighbors classifier with Euclidean distance on
/// the encoded feature space. PredictProba returns the fraction of positive
/// labels among the k nearest training examples. Deterministic: distance
/// ties resolve by training-row order.
class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(KnnOptions options = {}) : options_(options) {}

  Status Fit(const Matrix& x, const std::vector<int>& y, Rng* rng) override;
  std::vector<double> PredictProba(const Matrix& x) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<KnnClassifier>(options_);
  }
  std::string name() const override { return "knn"; }

 private:
  KnnOptions options_;
  Matrix train_x_;
  std::vector<int> train_y_;
  bool fitted_ = false;
};

/// Batched tuning-grid kernel: validation accuracy of a kNN classifier
/// fitted on (train_x, train_y) for EVERY k in `ks`, from a single
/// distance sweep. One top-max(k) selection per query serves the whole
/// grid — the insertion-sorted neighbor buffer for a smaller k is exactly
/// the prefix of the larger one — so each accuracy is bit-equal to fitting
/// KnnClassifier{k} and scoring AccuracyScore(valid_y, Predict(valid_x))
/// per grid point. `ks` entries must be positive; train must be non-empty.
std::vector<double> KnnGridAccuracies(const Matrix& train_x,
                                      const std::vector<int>& train_y,
                                      const Matrix& valid_x,
                                      const std::vector<int>& valid_y,
                                      const std::vector<int>& ks);

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_KNN_H_
