// Failure evidence for the forked suite children of the shard tests: each
// child writes its stderr and its flight-recorder dump under one path
// prefix, and the parent prints both when the child fails, instead of a
// bare "process failed".
#ifndef FAIRCLEAN_TESTS_SCHED_CHILD_EVIDENCE_H_
#define FAIRCLEAN_TESTS_SCHED_CHILD_EVIDENCE_H_

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/safe_io.h"
#include "common/strings.h"
#include "obs/flight.h"

namespace fairclean {
namespace test {

/// Child side, first thing after fork: stderr goes to "<prefix>.stderr"
/// and crash dumps of the flight recorder to "<prefix>.flight".
inline void CaptureChildEvidence(const std::string& prefix) {
  int fd = ::open((prefix + ".stderr").c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  ::setenv("FAIRCLEAN_FLIGHT", (prefix + ".flight").c_str(), 1);
}

/// Child side, on a failed run: dumps the flight rings to the prefix.
inline void DumpChildFlight(const std::string& prefix) {
  std::string error;
  obs::FlightRecorder::Dump(prefix + ".flight", obs::kFlightReasonExplicit,
                            &error);
}

/// Parent side: how the child ended, its stderr, and the last events of
/// every thread in its flight dump.
inline std::string ChildEvidence(int wstatus, const std::string& prefix) {
  std::string out;
  if (WIFEXITED(wstatus)) {
    out = StrFormat("exit status %d", WEXITSTATUS(wstatus));
  } else if (WIFSIGNALED(wstatus)) {
    out = StrFormat("killed by signal %d", WTERMSIG(wstatus));
  } else {
    out = StrFormat("wait status %d", wstatus);
  }
  Result<std::string> stderr_text = ReadFileToString(prefix + ".stderr");
  out += "\n--- stderr (" + prefix + ".stderr) ---\n";
  out += stderr_text.ok() ? *stderr_text : stderr_text.status().ToString();
  out += "\n--- flight (" + prefix + ".flight) ---\n";
  obs::FlightDump dump;
  std::string error;
  if (!obs::DecodeFlightFile(prefix + ".flight", &dump, &error)) {
    return out + "no dump: " + error + "\n";
  }
  constexpr size_t kTail = 20;
  for (const obs::FlightDump::Thread& thread : dump.threads) {
    out += StrFormat("thread %u (%llu events recorded):\n", thread.tid,
                     static_cast<unsigned long long>(thread.recorded));
    size_t first = thread.events.size() - std::min(kTail, thread.events.size());
    for (size_t i = first; i < thread.events.size(); ++i) {
      const obs::FlightEntry& event = thread.events[i];
      const char* site = event.site < dump.sites.size()
                             ? dump.sites[event.site].c_str()
                             : "?";
      out += StrFormat("  +%lluus %s %s %u\n",
                       static_cast<unsigned long long>(event.ts_us),
                       obs::FlightEventTypeName(event.type), site, event.arg);
    }
  }
  return out;
}

}  // namespace test
}  // namespace fairclean

#endif  // FAIRCLEAN_TESTS_SCHED_CHILD_EVIDENCE_H_
