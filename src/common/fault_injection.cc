#include "common/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/env.h"
#include "common/strings.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {

namespace {

// Matches the stable hash used for per-repeat seeds in the runner.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector;
  return *injector;
}

const std::vector<std::string>& FaultInjector::KnownSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      "cache_read",  "cache_write",   "csv_parse",   "interrupt",
      "numeric",     "plan_build",    "request_parse", "socket_read",
      "socket_write", "worker_stall"};
  return *sites;
}

Status FaultInjector::Configure(const std::string& spec, uint64_t seed) {
  std::map<std::string, Site> sites;
  if (!StripAsciiWhitespace(spec).empty()) {
    for (const std::string& entry : Split(spec, ',')) {
      std::string_view trimmed = StripAsciiWhitespace(entry);
      if (trimmed.empty()) continue;
      std::vector<std::string> fields = Split(trimmed, ':');
      if (fields.size() < 2 || fields.size() > 3) {
        return Status::InvalidArgument(
            "fault spec entry must be site:prob[:max_fires]: " +
            std::string(trimmed));
      }
      if (fields[0].empty()) {
        return Status::InvalidArgument("empty fault site in spec: " +
                                       std::string(trimmed));
      }
      const std::vector<std::string>& known = KnownSites();
      if (std::find(known.begin(), known.end(), fields[0]) == known.end()) {
        std::string known_list;
        for (const std::string& site : known) {
          if (!known_list.empty()) known_list += ", ";
          known_list += site;
        }
        return Status::InvalidArgument("unknown fault site \"" + fields[0] +
                                       "\" (known sites: " + known_list + ")");
      }
      char* end = nullptr;
      double probability = std::strtod(fields[1].c_str(), &end);
      if (end == fields[1].c_str() || *end != '\0' ||
          !(probability >= 0.0 && probability <= 1.0)) {
        return Status::InvalidArgument("fault probability must be in [0,1]: " +
                                       std::string(trimmed));
      }
      Site site;
      site.probability = probability;
      if (fields.size() == 3) {
        long long max_fires = std::strtoll(fields[2].c_str(), &end, 10);
        if (end == fields[2].c_str() || *end != '\0' || max_fires < 0) {
          return Status::InvalidArgument("bad max_fires in fault spec: " +
                                         std::string(trimmed));
        }
        site.max_fires = static_cast<uint64_t>(max_fires);
      }
      site.rng = Rng(seed ^ Fnv1a(fields[0]));
      sites[fields[0]] = std::move(site);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  sites_ = std::move(sites);
  return Status::OK();
}

Status FaultInjector::ConfigureFromEnv() {
  std::string spec = GetEnvString("FAIRCLEAN_FAULTS", "");
  uint64_t seed =
      static_cast<uint64_t>(GetEnvInt64("FAIRCLEAN_FAULT_SEED", 42));
  return Configure(spec, seed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
}

bool FaultInjector::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !sites_.empty();
}

bool FaultInjector::ShouldFire(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  Site& armed = it->second;
  if (armed.fires >= armed.max_fires) return false;
  // Branch on the edge probabilities so 0 and 1 are exact, not "almost
  // surely": robustness tests rely on never/always semantics.
  bool fire;
  if (armed.probability <= 0.0) {
    fire = false;
  } else if (armed.probability >= 1.0) {
    fire = true;
  } else {
    fire = armed.rng.Bernoulli(armed.probability);
  }
  if (fire) {
    ++armed.fires;
    // Fires show up in the trace timeline as instant events (file sink and
    // per-trace store both), so injected failures line up visually with
    // the retries they cause and the `trace` op shows them per request.
    if (obs::SpanCaptureEnabled()) {
      obs::Tracer::Global().RecordInstant("fault", "fault:" + site);
    }
    if (obs::FlightEnabled()) {
      obs::FlightRecorder::Record(obs::FlightEventType::kFault,
                                  obs::FlightRecorder::Site(site));
    }
    obs::MetricsRegistry::Global().GetCounter("fault.fires." + site)
        ->Increment();
  }
  return fire;
}

Status FaultInjector::Inject(const std::string& site) {
  if (ShouldFire(site)) {
    return Status::IoError("injected fault at " + site);
  }
  return Status::OK();
}

double FaultInjector::CorruptScore(const std::string& site, double value) {
  if (ShouldFire(site)) return std::numeric_limits<double>::quiet_NaN();
  return value;
}

uint64_t FaultInjector::fires(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

}  // namespace fairclean
