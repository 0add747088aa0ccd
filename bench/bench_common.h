#ifndef FAIRCLEAN_BENCH_BENCH_COMMON_H_
#define FAIRCLEAN_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>

#include "common/status.h"

namespace fairclean {
namespace bench {

/// Order statistics of one benchmark's per-iteration wall-clock samples,
/// in seconds.
struct BenchStats {
  size_t iters = 0;
  double median = 0.0;  ///< p50 (midpoint average for even sample counts).
  double p95 = 0.0;     ///< nearest-rank p95 (the max for small samples).
};

/// Runs one benchmark body in a forked child and returns the order
/// statistics of its per-iteration wall-clock times.
///
/// The child calls `make_body()` once (untimed setup: synthesize data,
/// encode features, ...), times `iters` calls of the returned closure,
/// streams the raw seconds back over a pipe and _exit(0)s. Process
/// isolation is the point: each sample starts from a cold process (no
/// warmed allocator or shared thread pool from a previous case), and a
/// body that spawns its own pools or aborts cannot poison the parent or
/// the remaining cases.
///
/// Fork safety: call only while the parent is still single-threaded —
/// i.e. before google-benchmark or any ThreadPool fan-out runs in the
/// parent process.
Result<BenchStats> RunForkedBench(
    const std::string& label, size_t iters,
    const std::function<std::function<void()>()>& make_body);

/// Writes the enriched kernel-bench JSON:
///   {"ops":{"<op>":<median-or-ratio>,...},
///    "p95":{"<op>":<seconds>,...},
///    "iters":{"<op>":<count>,...},
///    "threads":N,"speedup":S}
/// "ops" keeps the historical key set (medians for timed ops, plus the
/// derived *_speedup ratios); "p95"/"iters" carry the order statistics for
/// the timed ops only. Atomic write via the checksummed-IO temp+rename
/// path.
Status WriteKernelStatsJson(const std::string& path,
                            const std::map<std::string, double>& ops,
                            const std::map<std::string, double>& p95,
                            const std::map<std::string, size_t>& iters,
                            size_t threads, double speedup);

}  // namespace bench
}  // namespace fairclean

#endif  // FAIRCLEAN_BENCH_BENCH_COMMON_H_
