// Developer tool: aggregates a Chrome trace-event file (written by the
// FAIRCLEAN_TRACE tracer) into a per-site latency table, and optionally
// summarizes a metrics JSONL export (FAIRCLEAN_METRICS) alongside it.
//
// Span names are normalized by collapsing every digit run to '#' so that
// per-item spans ("tune fold 3 log-reg", "slot adult/missing_values/knn
// r12") aggregate into one row per call site. For each site the tool
// prints count, total, mean, p50, p95, and max over the complete-event
// durations; instant events are tallied by name.
//
// Scheduler spans are wave-tagged ("plan.build w3 adult", "cell w3
// adult/missing_values/knn"), and the tool folds them into a per-wave
// breakdown: how much each wave spent materializing shared plans next to
// how much its cells spent computing. `--filter <substr>` narrows the site
// table to matching categories/sites (e.g. `--filter sched` shows the
// scheduler table plus the wave breakdown).
//
// Usage: trace_summary [--filter <substr>] <trace.json> [metrics.jsonl]

#include <cctype>
#include <cstdio>
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/safe_io.h"
#include "obs/json_lite.h"

namespace {

using namespace fairclean;  // NOLINT

/// Collapses every run of decimal digits to a single '#': "fold 12 of 5"
/// -> "fold # of #". Keeps per-item spans from exploding the table.
std::string NormalizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  bool in_digits = false;
  for (char c : name) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) out.push_back('#');
      in_digits = true;
    } else {
      out.push_back(c);
      in_digits = false;
    }
  }
  return out;
}

struct SiteStats {
  std::vector<double> durations_us;
};

/// One Kahn wave's scheduler cost split: shared-plan materialization
/// (sched.plan.build spans) vs cell compute (sched.cell spans).
struct WaveStats {
  size_t plans = 0;
  double plan_us = 0.0;
  size_t cells = 0;
  double cell_us = 0.0;
  double slowest_cell_us = 0.0;
  std::string slowest_cell;
};

/// Parses the "w<k> " wave tag the scheduler embeds after `prefix` in its
/// span names ("plan.build w3 adult", "cell w3 adult/..."). Returns the
/// wave index and leaves the rest of the name in *rest, or npos when the
/// name is not wave-tagged (e.g. a standalone cell produced outside a
/// wave).
size_t ParseWaveTag(const std::string& name, const std::string& prefix,
                    std::string* rest) {
  if (name.compare(0, prefix.size(), prefix) != 0) return std::string::npos;
  size_t pos = prefix.size();
  if (pos >= name.size() || name[pos] != 'w') return std::string::npos;
  ++pos;
  size_t digits_end = pos;
  while (digits_end < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[digits_end]))) {
    ++digits_end;
  }
  if (digits_end == pos || digits_end >= name.size() ||
      name[digits_end] != ' ') {
    return std::string::npos;
  }
  *rest = name.substr(digits_end + 1);
  return static_cast<size_t>(std::stoull(name.substr(pos, digits_end - pos)));
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int SummarizeTrace(const std::string& path, const std::string& filter) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return 1;
  }
  obs::JsonValue root;
  std::string error;
  if (!obs::JsonValue::Parse(*text, &root, &error)) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  const obs::JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", path.c_str());
    return 1;
  }

  // site key: "<category>\t<normalized name>".
  std::map<std::string, SiteStats> sites;
  std::map<std::string, int64_t> instants;
  std::map<double, std::string> thread_names;
  // Scheduler wave breakdown, keyed by wave index.
  std::map<size_t, WaveStats> waves;
  size_t complete_events = 0;
  for (const obs::JsonValue& event : events->array_items) {
    std::string phase = event.StringOr("ph", "");
    if (phase == "X") {
      ++complete_events;
      std::string key = event.StringOr("cat", "?") + "\t" +
                        NormalizeName(event.StringOr("name", "?"));
      double dur_us = event.NumberOr("dur", 0.0);
      sites[key].durations_us.push_back(dur_us);
      if (event.StringOr("cat", "") == "sched") {
        std::string name = event.StringOr("name", "");
        std::string rest;
        size_t wave = ParseWaveTag(name, "plan.build ", &rest);
        if (wave != std::string::npos) {
          WaveStats& stats = waves[wave];
          ++stats.plans;
          stats.plan_us += dur_us;
        } else if ((wave = ParseWaveTag(name, "cell ", &rest)) !=
                   std::string::npos) {
          WaveStats& stats = waves[wave];
          ++stats.cells;
          stats.cell_us += dur_us;
          if (dur_us > stats.slowest_cell_us) {
            stats.slowest_cell_us = dur_us;
            stats.slowest_cell = rest;
          }
        }
      }
    } else if (phase == "i" || phase == "I") {
      ++instants[event.StringOr("name", "?")];
    } else if (phase == "M" &&
               event.StringOr("name", "") == "thread_name") {
      const obs::JsonValue* args = event.Find("args");
      if (args != nullptr) {
        thread_names[event.NumberOr("tid", 0.0)] =
            args->StringOr("name", "?");
      }
    }
  }

  std::printf("%s: %zu complete events across %zu sites, %zu threads\n\n",
              path.c_str(), complete_events, sites.size(),
              thread_names.size());
  std::printf("%-8s %-36s %8s %12s %10s %10s %10s %10s\n", "category",
              "site", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms",
              "max_ms");
  // Order rows by total duration, heaviest first.
  std::vector<std::pair<double, std::string>> order;
  for (auto& [key, stats] : sites) {
    std::sort(stats.durations_us.begin(), stats.durations_us.end());
    double total = 0.0;
    for (double d : stats.durations_us) total += d;
    order.emplace_back(-total, key);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [neg_total, key] : order) {
    const SiteStats& stats = sites[key];
    size_t tab = key.find('\t');
    std::string category = key.substr(0, tab);
    std::string name = key.substr(tab + 1);
    if (!filter.empty() && category.find(filter) == std::string::npos &&
        name.find(filter) == std::string::npos) {
      continue;
    }
    double total_us = -neg_total;
    size_t count = stats.durations_us.size();
    std::printf("%-8s %-36s %8zu %12.3f %10.3f %10.3f %10.3f %10.3f\n",
                category.c_str(), name.c_str(), count, total_us / 1e3,
                total_us / 1e3 / static_cast<double>(count),
                PercentileSorted(stats.durations_us, 0.50) / 1e3,
                PercentileSorted(stats.durations_us, 0.95) / 1e3,
                stats.durations_us.back() / 1e3);
  }
  if (!waves.empty()) {
    // Per-wave cost split: what the planner spent materializing shared
    // inputs vs what the wave's cells spent computing. plan_ms sitting
    // next to a much larger cell_ms is the §15 plan paying for itself.
    std::printf("\nwave breakdown (sched):\n");
    std::printf("  %-6s %6s %10s %6s %12s  %s\n", "wave", "plans",
                "plan_ms", "cells", "cell_ms", "slowest cell");
    for (const auto& [wave, stats] : waves) {
      std::printf("  w%-5zu %6zu %10.3f %6zu %12.3f  %s (%.3f ms)\n", wave,
                  stats.plans, stats.plan_us / 1e3, stats.cells,
                  stats.cell_us / 1e3, stats.slowest_cell.c_str(),
                  stats.slowest_cell_us / 1e3);
    }
  }
  if (!instants.empty()) {
    std::printf("\ninstant events:\n");
    for (const auto& [name, count] : instants) {
      std::printf("  %-44s %8lld\n", name.c_str(),
                  static_cast<long long>(count));
    }
  }
  if (!thread_names.empty()) {
    std::printf("\nthreads:\n");
    for (const auto& [tid, name] : thread_names) {
      std::printf("  tid %-4.0f %s\n", tid, name.c_str());
    }
  }
  return 0;
}

int SummarizeMetrics(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s:\n", path.c_str());
  size_t line_no = 0;
  size_t start = 0;
  while (start < text->size()) {
    size_t end = text->find('\n', start);
    if (end == std::string::npos) end = text->size();
    std::string line = text->substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue value;
    std::string error;
    if (!obs::JsonValue::Parse(line, &value, &error)) {
      std::fprintf(stderr, "%s:%zu: invalid JSON: %s\n", path.c_str(),
                   line_no, error.c_str());
      return 1;
    }
    std::string name = value.StringOr("metric", "?");
    std::string type = value.StringOr("type", "?");
    if (type == "counter") {
      std::printf("  %-44s %12.0f\n", name.c_str(),
                  value.NumberOr("value", 0.0));
    } else if (type == "gauge") {
      std::printf("  %-44s %12g\n", name.c_str(),
                  value.NumberOr("value", 0.0));
    } else if (type == "histogram") {
      std::printf("  %-44s n=%.0f sum=%g p50=%g p95=%g max=%g\n",
                  name.c_str(), value.NumberOr("count", 0.0),
                  value.NumberOr("sum", 0.0), value.NumberOr("p50", 0.0),
                  value.NumberOr("p95", 0.0), value.NumberOr("max", 0.0));
    } else {
      std::printf("  %-44s (unknown type %s)\n", name.c_str(),
                  type.c_str());
    }
  }
  return 0;
}

int Run(int argc, char** argv) {
  std::string filter;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--filter") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--filter needs a substring argument\n");
        return 2;
      }
      filter = argv[++i];
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr,
                 "usage: trace_summary [--filter <substr>] <trace.json> "
                 "[metrics.jsonl]\n");
    return 2;
  }
  int code = SummarizeTrace(paths[0], filter);
  if (code != 0) return code;
  if (paths.size() == 2) return SummarizeMetrics(paths[1]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
