#include "ml/knn.h"

#include <cstddef>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "ml/linalg.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {

namespace {

// Queries handled per task: large enough to amortize the blocked kernel's
// tile transposes and the task dispatch, small enough to fan out modest
// validation folds. Block boundaries never affect results — every query
// writes only its own output slot.
constexpr size_t kQueryBlock = 64;

// Bounded selection: one pass keeping the k smallest (dist, index) pairs in
// an insertion-sorted buffer. The comparison is the same lexicographic
// (dist, index) order a partial_sort over all pairs would use — the
// ascending-t scan means an equal-distance newcomer always loses to a kept
// entry — so the selected set is identical, without ever materializing an
// n-sized pair array. `best` must have size k <= n_train; on return
// best[0..k) holds the neighbors in ascending (dist, index) order.
void SelectNearest(const double* sq_row, size_t n_train, size_t k,
                   std::vector<std::pair<double, size_t>>* best) {
  size_t filled = 0;
  for (size_t t = 0; t < n_train; ++t) {
    double dv = sq_row[t];
    if (filled == k) {
      if (dv >= (*best)[k - 1].first) continue;
    } else {
      ++filled;
    }
    size_t pos = filled - 1;
    while (pos > 0 && dv < (*best)[pos - 1].first) {
      (*best)[pos] = (*best)[pos - 1];
      --pos;
    }
    (*best)[pos] = {dv, t};
  }
}

}  // namespace

Status KnnClassifier::Fit(const Matrix& x, const std::vector<int>& y,
                          Rng* rng) {
  (void)rng;
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("feature/label size mismatch");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options_.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  train_x_ = x;
  train_y_ = y;
  fitted_ = true;
  return Status::OK();
}

std::vector<double> KnnClassifier::PredictProba(const Matrix& x) const {
  FC_CHECK_MSG(fitted_, "PredictProba before Fit");
  FC_CHECK_EQ(x.cols(), train_x_.cols());
  obs::TraceSpan span("ml", "knn predict");
  static obs::Counter* const distance_pairs =
      obs::MetricsRegistry::Global().GetCounter("ml.knn.distance_pairs");
  size_t n_train = train_x_.rows();
  size_t k = std::min(static_cast<size_t>(options_.k), n_train);
  size_t n_queries = x.rows();
  distance_pairs->Increment(static_cast<uint64_t>(n_queries) * n_train);

  std::vector<double> out(n_queries);
  size_t num_blocks = (n_queries + kQueryBlock - 1) / kQueryBlock;
  // Pack the train panels once per call and share them across every query
  // block; the packing is pure data movement, so distances stay bit-equal
  // to the reference kernel (DESIGN.md §15).
  PackedPanels packed;
  PackTrainPanels(train_x_, &packed);
  ThreadPool* pool = ThreadPool::SharedForFolds();
  RunIndexed(pool, num_blocks, [&](size_t block) -> int {
    size_t begin = block * kQueryBlock;
    size_t end = std::min(begin + kQueryBlock, n_queries);
    // Per-task scratch, reused across every query of the block (hoisted
    // out of the per-query loop).
    std::vector<double> sq((end - begin) * n_train);
    std::vector<std::pair<double, size_t>> best(k);
    BlockedSquaredDistancesPacked(x, begin, end, train_x_, packed,
                                  sq.data());
    for (size_t q = begin; q < end; ++q) {
      const double* sq_row = sq.data() + (q - begin) * n_train;
      SelectNearest(sq_row, n_train, k, &best);
      int positives = 0;
      for (size_t j = 0; j < k; ++j) positives += train_y_[best[j].second];
      // Slot-ordered write: each query owns out[q], so the block fan-out
      // cannot reorder or race results.
      out[q] = static_cast<double>(positives) / static_cast<double>(k);
    }
    return 0;
  });
  return out;
}

std::vector<double> KnnGridAccuracies(const Matrix& train_x,
                                      const std::vector<int>& train_y,
                                      const Matrix& valid_x,
                                      const std::vector<int>& valid_y,
                                      const std::vector<int>& ks) {
  FC_CHECK_EQ(train_x.rows(), train_y.size());
  FC_CHECK_MSG(train_x.rows() > 0, "empty training set");
  FC_CHECK_EQ(valid_x.cols(), train_x.cols());
  FC_CHECK_EQ(valid_x.rows(), valid_y.size());
  obs::TraceSpan span("ml", "knn grid eval");
  static obs::Counter* const distance_pairs =
      obs::MetricsRegistry::Global().GetCounter("ml.knn.distance_pairs");
  size_t n_train = train_x.rows();
  size_t n_queries = valid_x.rows();
  distance_pairs->Increment(static_cast<uint64_t>(n_queries) * n_train);
  size_t kmax = 0;
  for (int k : ks) {
    FC_CHECK_MSG(k > 0, "k must be positive");
    kmax = std::max(kmax, static_cast<size_t>(k));
  }
  size_t kmax_eff = std::min(kmax, n_train);

  // One top-kmax selection per query answers the whole grid: the
  // insertion buffer for any smaller k is the exact prefix of the kmax
  // buffer, so per-k positives are prefix sums. Per-block hit counts are
  // integers, so the cross-block merge is order-independent.
  size_t num_blocks = (n_queries + kQueryBlock - 1) / kQueryBlock;
  std::vector<std::vector<size_t>> block_correct(
      num_blocks, std::vector<size_t>(ks.size(), 0));
  PackedPanels packed;
  PackTrainPanels(train_x, &packed);
  ThreadPool* pool = ThreadPool::SharedForFolds();
  RunIndexed(pool, num_blocks, [&](size_t block) -> int {
    size_t begin = block * kQueryBlock;
    size_t end = std::min(begin + kQueryBlock, n_queries);
    std::vector<double> sq((end - begin) * n_train);
    std::vector<std::pair<double, size_t>> best(kmax_eff);
    std::vector<int> prefix_positives(kmax_eff + 1, 0);
    BlockedSquaredDistancesPacked(valid_x, begin, end, train_x, packed,
                                  sq.data());
    for (size_t q = begin; q < end; ++q) {
      const double* sq_row = sq.data() + (q - begin) * n_train;
      SelectNearest(sq_row, n_train, kmax_eff, &best);
      for (size_t j = 0; j < kmax_eff; ++j) {
        prefix_positives[j + 1] =
            prefix_positives[j] + train_y[best[j].second];
      }
      for (size_t i = 0; i < ks.size(); ++i) {
        size_t k_eff = std::min(static_cast<size_t>(ks[i]), n_train);
        double proba = static_cast<double>(prefix_positives[k_eff]) /
                       static_cast<double>(k_eff);
        int pred = proba >= 0.5 ? 1 : 0;
        if (pred == valid_y[q]) ++block_correct[block][i];
      }
    }
    return 0;
  });
  std::vector<double> accuracies(ks.size(), 0.0);
  if (n_queries == 0) return accuracies;
  for (size_t i = 0; i < ks.size(); ++i) {
    size_t correct = 0;
    for (size_t block = 0; block < num_blocks; ++block) {
      correct += block_correct[block][i];
    }
    accuracies[i] = static_cast<double>(correct) /
                    static_cast<double>(n_queries);
  }
  return accuracies;
}

}  // namespace fairclean
