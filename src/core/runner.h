#ifndef FAIRCLEAN_CORE_RUNNER_H_
#define FAIRCLEAN_CORE_RUNNER_H_

#include <map>
#include <string>
#include <vector>

#include "core/cleaning.h"
#include "core/impact.h"
#include "core/results.h"
#include "datasets/spec.h"
#include "fairness/fairness_metrics.h"
#include "ml/tuning.h"

namespace fairclean {

/// Scale knobs of the empirical study. The paper samples 15,000 records and
/// evaluates 100 models per configuration; the defaults here are scaled so
/// the full table suite regenerates in minutes (see DESIGN.md), and every
/// knob can be raised via the FAIRCLEAN_* environment variables (see
/// StudyOptionsFromEnv).
struct StudyOptions {
  /// Records sampled from the dataset per repeat.
  size_t sample_size = 2000;
  /// Fraction of the sample held out as the test set.
  double test_fraction = 0.25;
  /// Number of repeats (fresh sample/split/seed per repeat); the paired
  /// t-tests compare score vectors of this length.
  size_t num_repeats = 12;
  /// Folds for hyperparameter-search cross-validation.
  size_t cv_folds = 3;
  /// Global seed; every randomized decision derives from it.
  uint64_t seed = 42;
  /// Significance level before Bonferroni adjustment.
  double alpha = 0.05;
};

/// Reads StudyOptions from the environment (FAIRCLEAN_SAMPLE,
/// FAIRCLEAN_REPEATS, FAIRCLEAN_FOLDS, FAIRCLEAN_SEED), falling back to the
/// defaults above.
StudyOptions StudyOptionsFromEnv();

/// A group definition the runner evaluates: either one sensitive attribute
/// ("sex") or the intersectional combination of the first two
/// ("sex*race"), per the paper's setup.
struct GroupDefinition {
  std::string key;
  bool intersectional = false;
  GroupPredicate first;
  GroupPredicate second;  // used when intersectional
};

/// The group definitions derived from a dataset spec: one per sensitive
/// attribute plus, when the spec is marked intersectional, the combination
/// of the first two attributes.
std::vector<GroupDefinition> GroupDefinitionsFor(const DatasetSpec& spec);

/// Per-repeat scores of one (data version, model) evaluation series.
struct ScoreSeries {
  /// Overall test accuracy per repeat.
  std::vector<double> accuracy;
  /// Test F1 per repeat.
  std::vector<double> f1;
  /// Signed fairness gap (privileged minus disadvantaged, the paper's
  /// metric definition) per repeat, keyed by
  /// "<group_key>/<metric short name>" (e.g. "sex/PP", "sex*race/EO").
  /// Zero means the metric is satisfied; the sign says which group is
  /// favored.
  std::map<std::string, std::vector<double>> unfairness;
};

/// Key into `ScoreSeries::unfairness`.
std::string UnfairnessKey(const std::string& group_key, FairnessMetric metric);

/// All scores of one (dataset, error type, model family) experiment: the
/// shared dirty baseline plus one series per cleaning method, and the flat
/// CleanML-style result records (accuracy/F1 and group-wise confusion
/// matrices per method and repeat).
struct CleaningExperimentResult {
  std::string dataset;
  std::string error_type;
  std::string model;
  std::vector<GroupDefinition> groups;
  ScoreSeries dirty;
  std::map<std::string, ScoreSeries> repaired;  // keyed by method name
  ResultStore records;
};

/// Runs the Fig. 3 protocol for every cleaning method of `error_type` on
/// `dataset` with the given model family: per repeat, sample + split, build
/// the dirty version and one repaired version per method, tune + train a
/// classifier on each, and score accuracy and group-wise confusion
/// matrices on the corresponding test sets. Deterministic given
/// options.seed.
Result<CleaningExperimentResult> RunCleaningExperiment(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, const StudyOptions& options);

/// Runs exactly one repeat (slot `repeat`) of the protocol and returns it
/// as a result whose score series all have length 1 (records keyed
/// "r<repeat>" as usual). This is the checkpointable unit of work the
/// fault-tolerant study driver journals between: an interrupted experiment
/// resumes at the repeat boundary instead of restarting.
///
/// `seed_salt` 0 is the canonical attempt and reproduces the exact numbers
/// RunCleaningExperiment computes for that slot; a non-zero salt derives a
/// fresh but deterministic seed, used to retry repeats whose data draw was
/// degenerate (e.g. a single-class training fold).
///
/// `groups` optionally supplies the dataset's group definitions
/// pre-materialized by the wave planner; null derives them from the spec
/// per slice. GroupDefinitionsFor is deterministic in the spec, so both
/// paths yield identical results.
Result<CleaningExperimentResult> RunCleaningRepeatSlice(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, const StudyOptions& options,
    size_t repeat, uint64_t seed_salt = 0,
    const std::vector<GroupDefinition>* groups = nullptr);

/// Appends a one-repeat slice onto `target` (series push_back + record
/// merge). The first slice initializes the target's metadata; later slices
/// must agree on dataset/error type/model and method set.
Status AppendRepeatSlice(const CleaningExperimentResult& slice,
                         CleaningExperimentResult* target);

/// Impact of one cleaning method on accuracy and on one fairness metric for
/// one group definition, classified against the dirty baseline.
struct ImpactOutcome {
  Impact fairness = Impact::kInsignificant;
  Impact accuracy = Impact::kInsignificant;
  /// Mean change of |fairness gap| (negative = fairer).
  double unfairness_delta = 0.0;
  /// Mean change of accuracy (positive = more accurate).
  double accuracy_delta = 0.0;
};

/// Classifies the impact of `method_series` relative to `dirty_series` for
/// (group, metric) with paired t-tests at `alpha` (pass a
/// Bonferroni-adjusted level). The fairness test runs on the signed gap
/// series; when the shift is significant, the direction is decided by
/// whether the mean gap moved towards zero (fairer) or away from it.
Result<ImpactOutcome> ComputeImpact(const ScoreSeries& dirty_series,
                                    const ScoreSeries& method_series,
                                    const std::string& group_key,
                                    FairnessMetric metric, double alpha);

}  // namespace fairclean

#endif  // FAIRCLEAN_CORE_RUNNER_H_
