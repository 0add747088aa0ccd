// Offline digests of the telemetry artifacts a run leaves on disk:
//   obs_tool metrics <metrics.jsonl>     # FAIRCLEAN_METRICS exporter output
//   obs_tool flight <fairclean.flight>   # crash/deadline/explicit dump
// The flight digest prints the dump header, per-thread ring occupancy,
// per-site event counts, and the newest events last (the crash is at the
// bottom, where eyes land).

#include <cstdio>
#include <map>
#include <string>

#include "common/safe_io.h"
#include "obs/flight.h"
#include "obs/json_lite.h"

namespace {

using namespace fairclean;  // NOLINT

int Usage() {
  std::fprintf(stderr,
               "usage: obs_tool metrics <metrics.jsonl>\n"
               "       obs_tool flight <fairclean.flight>\n");
  return 2;
}

// ------------------------------------------------------------- metrics --

int DigestMetricsJsonl(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return 1;
  }
  std::printf("%s:\n", path.c_str());
  size_t start = 0, line_no = 0;
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
    if (type == "counter" || type == "gauge") {
      std::printf("  %-44s %-8s %12g\n", name.c_str(), type.c_str(),
                  value.NumberOr("value", 0.0));
    } else if (type == "histogram") {
      std::printf("  %-44s histo    n=%.0f sum=%g p50=%g p95=%g p99=%g\n",
                  name.c_str(), value.NumberOr("count", 0.0),
                  value.NumberOr("sum", 0.0), value.NumberOr("p50", 0.0),
                  value.NumberOr("p95", 0.0), value.NumberOr("p99", 0.0));
    } else {
      std::printf("  %-44s (unknown type %s)\n", name.c_str(), type.c_str());
    }
  }
  return 0;
}

// -------------------------------------------------------------- flight --

const char* FlightReasonName(uint32_t reason) {
  if (reason == obs::kFlightReasonExplicit) return "explicit";
  if (reason == obs::kFlightReasonDeadline) return "deadline";
  return "signal";  // reason carries the signal number
}

int DecodeFlight(const std::string& path) {
  obs::FlightDump dump;
  std::string error;
  if (!obs::DecodeFlightFile(path, &dump, &error)) {
    std::fprintf(stderr, "cannot decode %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: version %u, reason %s", path.c_str(), dump.version,
              FlightReasonName(dump.reason));
  if (dump.reason != obs::kFlightReasonExplicit &&
      dump.reason != obs::kFlightReasonDeadline) {
    std::printf(" (%u)", dump.reason);
  }
  std::printf(", %zu sites, %zu threads, %zu events\n", dump.sites.size(),
              dump.threads.size(), dump.TotalEvents());

  std::map<std::string, uint64_t> by_site;
  for (const obs::FlightDump::Thread& thread : dump.threads) {
    std::printf("  tid %u: %zu events retained (%llu recorded)\n",
                thread.tid, thread.events.size(),
                static_cast<unsigned long long>(thread.recorded));
    for (const obs::FlightEntry& entry : thread.events) {
      ++by_site[dump.sites[entry.site]];
    }
  }
  std::printf("\nevents by site:\n");
  for (const auto& [site, count] : by_site) {
    std::printf("  %-44s %8llu\n", site.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nper-thread tails (newest last):\n");
  for (const obs::FlightDump::Thread& thread : dump.threads) {
    std::printf("  tid %u:\n", thread.tid);
    size_t begin =
        thread.events.size() > 16 ? thread.events.size() - 16 : 0;
    for (size_t i = begin; i < thread.events.size(); ++i) {
      const obs::FlightEntry& entry = thread.events[i];
      std::printf("    %12llu us  %-10s %-40s arg=%u\n",
                  static_cast<unsigned long long>(entry.ts_us),
                  obs::FlightEventTypeName(entry.type),
                  dump.sites[entry.site].c_str(), entry.arg);
    }
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "metrics") {
    if (argc != 3) return Usage();
    return DigestMetricsJsonl(argv[2]);
  }
  if (mode == "flight") {
    if (argc != 3) return Usage();
    return DecodeFlight(argv[2]);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
