// Golden byte-identity tests for the kernel layer (DESIGN.md §8).
//
// These tests pin the exact bit patterns of TuneAndFit / FairTuneAndFit /
// GBDT / KNN / MislabelDetector outputs for fixed seeds. The values were
// captured from the sequential reference implementation and must never
// drift: any kernel change that reorders floating-point accumulation, a
// random draw, or a tie-break will flip at least one bit here.
//
// The binary is registered three times in tests/CMakeLists.txt with
// FAIRCLEAN_THREADS ∈ {1, 2, 8} so the same goldens are enforced at every
// thread width — parallel schedules must be byte-identical to sequential.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fair_tuning.h"
#include "data/dataframe.h"
#include "detect/mislabel_detector.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/linalg.h"
#include "ml/tuning.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

// EXPECT_EQ on double compares exact bit patterns for these finite values;
// golden constants are hexfloat literals so no decimal rounding intervenes.
void ExpectBitEqual(const std::vector<double>& actual,
                    const std::vector<double>& golden_prefix) {
  ASSERT_GE(actual.size(), golden_prefix.size());
  for (size_t i = 0; i < golden_prefix.size(); ++i) {
    EXPECT_EQ(actual[i], golden_prefix[i]) << "index " << i;
  }
}

struct TuneGolden {
  std::string family;
  double param;
  double cv_accuracy;
  std::vector<double> proba;
};

TEST(KernelIdentityTest, TuneAndFitGolden) {
  const std::vector<TuneGolden> goldens = {
      {"log-reg",
       0x1.999999999999ap-4,
       0x1.8eeeeeeeeeeefp-1,
       {0x1.a24a8b8f20baep-2, 0x1.85f1354893ef5p-2, 0x1.585605f53877bp-1,
        0x1.dd93f049f17eap-1, 0x1.af7d1e1e1e459p-4, 0x1.479143c72cf09p-3,
        0x1.c696eb62034a3p-1, 0x1.5025ebf7a89f8p-1}},
      {"knn",
       0x1.fp+4,
       0x1.8888888888888p-1,
       {0x1.8c6318c6318c6p-2, 0x1.ef7bdef7bdef8p-2, 0x1.39ce739ce739dp-1,
        0x1.ce739ce739ce7p-1, 0x1.8c6318c6318c6p-4, 0x1.4a5294a5294a5p-3,
        0x1.6b5ad6b5ad6b6p-1, 0x1.39ce739ce739dp-1}},
      {"xgboost",
       0x1p+1,
       0x1.7333333333333p-1,
       {0x1.1dbf09ebe997ep-1, 0x1.fbb85ad50db12p-3, 0x1.c04a84d417a32p-1,
        0x1.ef22bddecb955p-1, 0x1.b60a7ab897053p-5, 0x1.fa0fef665cef2p-5,
        0x1.d967b1363d606p-1, 0x1.0d452886d712cp-1}},
  };
  for (const TuneGolden& golden : goldens) {
    SCOPED_TRACE(golden.family);
    test::BlobData data = test::MakeBlobs(240, 4, 2.0, 21);
    Result<TunedModelFamily> family = ModelFamilyByName(golden.family);
    ASSERT_TRUE(family.ok());
    Rng rng(7);
    Result<TuneOutcome> outcome = TuneAndFit(*family, data.x, data.y, 3, &rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->best_param, golden.param);
    EXPECT_EQ(outcome->best_cv_accuracy, golden.cv_accuracy);
    ExpectBitEqual(outcome->model->PredictProba(data.x), golden.proba);
  }
}

struct FairTuneGolden {
  std::string family;
  double param;
  double cv_accuracy;
  double cv_unfairness;
  bool within_budget;
  std::vector<double> proba;
};

TEST(KernelIdentityTest, FairTuneAndFitGolden) {
  const std::vector<FairTuneGolden> goldens = {
      {"xgboost",
       0x1p+2,
       0x1.a222222222223p-1,
       0x1.7f57f57f57f58p-4,
       true,
       {0x1.eee9c974ad137p-1, 0x1.fcb71ca988dbap-1, 0x1.07e6102620dc5p-5,
        0x1.fd778325d5da2p-1, 0x1.fa4fd9691bee5p-1, 0x1.fe8a0cc1dfb09p-1,
        0x1.f7412305c7849p-1, 0x1.838ac3070db0dp-7}},
      {"log-reg",
       0x1.999999999999ap-4,
       0x1.b111111111111p-1,
       0x1.77d77d77d77d8p-4,
       true,
       {0x1.cca57a1f84967p-1, 0x1.f972c04bc51ecp-1, 0x1.7988340491971p-5,
        0x1.ce70550801b09p-1, 0x1.eb6fe38cfb8f7p-1, 0x1.c4895b0a1969dp-1,
        0x1.fe3db5181652bp-1, 0x1.433668afdadbep-4}},
  };
  for (const FairTuneGolden& golden : goldens) {
    SCOPED_TRACE(golden.family);
    test::BlobData data = test::MakeBlobs(240, 4, 2.0, 33);
    std::vector<int> membership(data.y.size());
    for (size_t i = 0; i < membership.size(); ++i) {
      membership[i] = i % 3 == 0 ? 1 : (i % 3 == 1 ? -1 : 0);
    }
    Result<TunedModelFamily> family = ModelFamilyByName(golden.family);
    ASSERT_TRUE(family.ok());
    FairTuneOptions options;
    Rng rng(13);
    Result<FairTuneOutcome> outcome =
        FairTuneAndFit(*family, data.x, data.y, membership, options, &rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->best_param, golden.param);
    EXPECT_EQ(outcome->best_cv_accuracy, golden.cv_accuracy);
    EXPECT_EQ(outcome->best_cv_unfairness, golden.cv_unfairness);
    EXPECT_EQ(outcome->within_budget, golden.within_budget);
    ExpectBitEqual(outcome->model->PredictProba(data.x), golden.proba);
  }
}

TEST(KernelIdentityTest, GbdtFitGolden) {
  test::BlobData data = test::MakeBlobs(300, 3, 2.5, 5);
  GradientBoostedTrees model;
  Rng rng(11);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  EXPECT_EQ(model.num_trees(), 50u);
  EXPECT_EQ(model.training_loss_curve().back(), 0x1.cd99c9d488b77p-4);
  ExpectBitEqual(model.PredictProba(data.x),
                 {0x1.19c1128a900cp-6, 0x1.dba9768a358b1p-7,
                  0x1.97ddf2271573bp-1, 0x1.709bf93f7f44cp-8,
                  0x1.f643e4a637c14p-1, 0x1.8b878defd1fb9p-1,
                  0x1.70a4361f3372ep-8, 0x1.3007802da7d5ap-3});
}

TEST(KernelIdentityTest, KnnPredictGolden) {
  test::BlobData data = test::MakeBlobs(400, 6, 1.5, 9);
  KnnClassifier model;
  Rng rng(23);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  test::BlobData queries = test::MakeBlobs(37, 6, 1.5, 10);
  ExpectBitEqual(model.PredictProba(queries.x),
                 {0x1.ddddddddddddep-2, 0x1.5555555555555p-1,
                  0x1.999999999999ap-2, 0x1.1111111111111p-3,
                  0x1.999999999999ap-2, 0x1.999999999999ap-1,
                  0x1.1111111111111p-2, 0x0p+0, 0x1.1111111111111p-1,
                  0x1.999999999999ap-2, 0x1.7777777777777p-1,
                  0x1.3333333333333p-1});
}

// Test-local per-query kNN oracle: one reference distance row per query
// (SquaredDistancesToRow), neighbors ordered by (distance, train index) —
// no blocking, no panel packing, no fan-out.
std::vector<double> PerQueryKnnProba(const Matrix& train_x,
                                     const std::vector<int>& train_y,
                                     const Matrix& queries, size_t k) {
  size_t n_train = train_x.rows();
  k = std::min(k, n_train);
  std::vector<double> sq(n_train);
  std::vector<std::pair<double, size_t>> dist(n_train);
  std::vector<double> proba(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    SquaredDistancesToRow(train_x, queries.Row(q), sq.data());
    for (size_t t = 0; t < n_train; ++t) dist[t] = {sq[t], t};
    std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
    int positives = 0;
    for (size_t j = 0; j < k; ++j) positives += train_y[dist[j].second];
    proba[q] = static_cast<double>(positives) / static_cast<double>(k);
  }
  return proba;
}

// The production kNN path (blocked, panel-packed, fanned out over query
// blocks) must produce the per-query reference's bits for every query.
TEST(KernelIdentityTest, KnnModeLadderBitIdentical) {
  test::BlobData data = test::MakeBlobs(400, 6, 1.5, 9);
  test::BlobData queries = test::MakeBlobs(137, 6, 1.5, 10);  // > 2 blocks
  KnnClassifier model;
  Rng rng(23);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  EXPECT_EQ(model.PredictProba(queries.x),
            PerQueryKnnProba(data.x, data.y, queries.x, KnnOptions().k));
}

// The fused grid kernel answers the whole k grid from one top-max(k) sweep;
// its accuracies must equal fitting one classifier per k and scoring its
// 0.5-thresholded predictions — exactly, not approximately.
TEST(KernelIdentityTest, KnnGridMatchesPerKOracle) {
  test::BlobData train = test::MakeBlobs(300, 5, 1.2, 29);
  test::BlobData valid = test::MakeBlobs(83, 5, 1.2, 30);
  const std::vector<int> ks = {5, 15, 31};
  std::vector<double> grid =
      KnnGridAccuracies(train.x, train.y, valid.x, valid.y, ks);
  ASSERT_EQ(grid.size(), ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    KnnOptions options;
    options.k = ks[i];
    KnnClassifier model(options);
    Rng rng(23);
    ASSERT_TRUE(model.Fit(train.x, train.y, &rng).ok());
    std::vector<double> proba = model.PredictProba(valid.x);
    size_t correct = 0;
    for (size_t q = 0; q < proba.size(); ++q) {
      int pred = proba[q] >= 0.5 ? 1 : 0;
      if (pred == valid.y[q]) ++correct;
    }
    double oracle =
        static_cast<double>(correct) / static_cast<double>(proba.size());
    EXPECT_EQ(grid[i], oracle) << "k=" << ks[i];
  }
}

// GBDT stacked prediction (trees-outer over row blocks) against predicting
// each row as its own 1-row matrix: same model, same bits.
TEST(KernelIdentityTest, GbdtStackedPredictBitIdentical) {
  test::BlobData data = test::MakeBlobs(250, 4, 1.0, 21);
  test::BlobData queries = test::MakeBlobs(97, 4, 1.0, 22);
  GradientBoostedTrees model;
  Rng rng(19);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  std::vector<double> stacked = model.PredictProba(queries.x);
  ASSERT_EQ(stacked.size(), queries.x.rows());
  for (size_t i = 0; i < queries.x.rows(); ++i) {
    std::vector<double> single = model.PredictProba(queries.x.TakeRows({i}));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(stacked[i], single[0]) << "row " << i;
  }
}

// The batched kNN grid evaluation inside TuneAndFit against the
// per-grid-point oracle (the same family with fused_grid_eval cleared, so
// every k is fitted and scored on its own): same hyperparameter, same CV
// accuracy, and a bit-identical final model.
TEST(KernelIdentityTest, TuneAndFitGridEvalMatchesPerPointOracle) {
  test::BlobData data = test::MakeBlobs(180, 4, 1.3, 41);
  test::BlobData queries = test::MakeBlobs(23, 4, 1.3, 42);
  TunedModelFamily fused = KnnFamily();
  ASSERT_TRUE(fused.fused_grid_eval != nullptr);
  TunedModelFamily per_point = fused;
  per_point.fused_grid_eval = nullptr;
  Rng rng_fused(77);
  Rng rng_per_point(77);
  Result<TuneOutcome> a = TuneAndFit(fused, data.x, data.y, 3, &rng_fused);
  Result<TuneOutcome> b =
      TuneAndFit(per_point, data.x, data.y, 3, &rng_per_point);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->best_param, b->best_param);
  EXPECT_EQ(a->best_cv_accuracy, b->best_cv_accuracy);
  EXPECT_EQ(a->model->PredictProba(queries.x),
            b->model->PredictProba(queries.x));
}

TEST(KernelIdentityTest, MislabelDetectGolden) {
  test::BlobData data = test::MakeBlobs(150, 3, 2.0, 17);
  DataFrame frame;
  for (size_t d = 0; d < 3; ++d) {
    std::vector<double> col(data.x.rows());
    for (size_t i = 0; i < col.size(); ++i) col[i] = data.x(i, d);
    frame.AddColumn(Column::Numeric("f" + std::to_string(d), col));
  }
  std::vector<double> label_col(data.y.begin(), data.y.end());
  frame.AddColumn(Column::Numeric("label", label_col));
  DetectionContext context;
  context.inspect_columns = {"f0", "f1", "f2"};
  context.label_column = "label";
  MislabelDetector detector;
  Rng rng(19);
  Result<ErrorMask> mask = detector.Detect(frame, context, &rng);
  ASSERT_TRUE(mask.ok()) << mask.status().ToString();
  std::vector<size_t> flagged;
  for (size_t i = 0; i < mask->num_rows(); ++i) {
    if (mask->RowFlagged(i)) flagged.push_back(i);
  }
  EXPECT_EQ(flagged, (std::vector<size_t>{62, 81, 84, 105, 113, 138}));
}

}  // namespace
}  // namespace fairclean
