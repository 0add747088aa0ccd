#ifndef FAIRCLEAN_SERVE_ADVISOR_SERVICE_H_
#define FAIRCLEAN_SERVE_ADVISOR_SERVICE_H_

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "sched/artifact_store.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"
#include "serve/protocol.h"

namespace fairclean {
namespace serve {

/// The resident analysis stack behind the advisor server: generated
/// datasets and experiment-cell artifacts are memoized in a
/// content-addressed ArtifactStore shared across requests (and worker
/// threads), and each cell is produced by a fault-tolerant StudyDriver
/// whose cache/journal live in the suite cache directory — so the stack
/// that answers requests is the same one the batch suite runs on, and a
/// served cell's cache record is byte-identical to the suite's.
///
/// Thread-safe: Analyze may be called concurrently from any number of
/// worker threads. Concurrent requests for the same cell share one
/// production (the store blocks the followers, bounded by their
/// deadlines); requests for distinct cells produce in parallel.
class AdvisorService {
 public:
  explicit AdvisorService(sched::SuiteOptions options);

  const sched::SuiteOptions& options() const { return options_; }

  /// Answers one validated analyze request. `deadline` is the absolute
  /// per-request deadline stamped at admission (nullopt = unbounded): the
  /// cell driver checkpoints its journal and returns DeadlineExceeded when
  /// it trips, and a retry of the same request resumes from that journal
  /// (the store does not memoize transient failures).
  Result<AdvisorAnalysis> Analyze(const AdvisorRequest& request,
                                  const sched::ArtifactStore::Deadline& deadline);

  sched::ArtifactStore& artifacts() { return artifacts_; }

 private:
  Result<std::shared_ptr<const GeneratedDataset>> Dataset(
      const std::string& name, const sched::ArtifactStore::Deadline& deadline);
  Result<std::shared_ptr<const sched::CellArtifact>> Cell(
      const sched::CellKey& cell,
      const sched::ArtifactStore::Deadline& deadline, bool* cache_hit);
  Result<sched::CellArtifact> ProduceCell(
      const sched::CellKey& cell,
      const sched::ArtifactStore::Deadline& deadline, bool* cache_hit);

  sched::SuiteOptions options_;
  obs::MetricsRegistry metrics_;
  sched::ArtifactStore artifacts_;
};

}  // namespace serve
}  // namespace fairclean

#endif  // FAIRCLEAN_SERVE_ADVISOR_SERVICE_H_
