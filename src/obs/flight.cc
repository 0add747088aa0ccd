#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <vector>

#include "obs/trace.h"

namespace fairclean {
namespace obs {

namespace internal {
std::atomic<bool> g_flight_enabled{false};
}  // namespace internal

namespace {

constexpr uint32_t kMagic = 0x464C4954;  // "FLIT"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kMaxRings = 1024;
constexpr uint32_t kMaxSites = 512;
constexpr uint32_t kMaxSiteLen = 48;
constexpr size_t kMinRingEvents = 64;
constexpr size_t kMaxRingEvents = 1u << 20;
constexpr size_t kDefaultRingEvents = 4096;

// ---------------------------------------------------------------------------
// Site table: fixed global storage so the crash handler can walk it without
// touching the allocator or any lock. Site 0 is always "?" (overflow).

char g_sites[kMaxSites][kMaxSiteLen];
std::atomic<uint32_t> g_site_count{0};
std::mutex g_site_mutex;

void EnsureSiteZero() {
  std::lock_guard<std::mutex> lock(g_site_mutex);
  if (g_site_count.load(std::memory_order_relaxed) == 0) {
    std::snprintf(g_sites[0], kMaxSiteLen, "?");
    g_site_count.store(1, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Rings. One per recording thread, registered in a fixed global array the
// dumper walks. Rings are recycled through a free list when their thread
// exits, so a server that churns short-lived driver threads does not grow
// memory without bound — a recycled ring keeps its history (the dead
// thread's last events stay in the next dump) and its original tid.

struct Ring {
  uint32_t tid = 0;
  uint32_t capacity = 0;  // power of two
  std::atomic<uint64_t> head{0};
  FlightEntry* entries = nullptr;
};

std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<uint32_t> g_ring_count{0};
std::atomic<uint32_t> g_ring_capacity{kDefaultRingEvents};

std::mutex g_free_mutex;
std::vector<Ring*>& FreeRings() {
  static std::vector<Ring*>* list = new std::vector<Ring*>();
  return *list;
}

// A thread's claim on a ring; the destructor returns the ring for reuse.
struct RingLease {
  Ring* ring = nullptr;
  bool failed = false;
  ~RingLease() {
    if (ring != nullptr) {
      std::lock_guard<std::mutex> lock(g_free_mutex);
      FreeRings().push_back(ring);
      ring = nullptr;
    }
  }
};
thread_local RingLease t_lease;

uint32_t RoundUpPow2(size_t value) {
  uint32_t result = 1;
  while (result < value) result <<= 1;
  return result;
}

Ring* RingForThisThread() {
  if (t_lease.ring != nullptr) return t_lease.ring;
  if (t_lease.failed) return nullptr;
  {
    std::lock_guard<std::mutex> lock(g_free_mutex);
    if (!FreeRings().empty()) {
      t_lease.ring = FreeRings().back();
      FreeRings().pop_back();
      return t_lease.ring;
    }
  }
  const uint32_t slot = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRings) {
    t_lease.failed = true;
    return nullptr;
  }
  const uint32_t capacity =
      g_ring_capacity.load(std::memory_order_relaxed);
  Ring* ring = new Ring();
  ring->tid = Tracer::CurrentThreadTid();
  ring->capacity = capacity;
  ring->entries = new FlightEntry[capacity]();
  g_rings[slot].store(ring, std::memory_order_release);
  t_lease.ring = ring;
  return ring;
}

// ---------------------------------------------------------------------------
// Dump paths are baked into fixed buffers at Init so the signal handler
// never builds a string.

char g_default_path[512] = "fairclean.flight";
char g_default_tmp[520] = "fairclean.flight.tmp";
std::atomic<bool> g_explicit_toggle{false};  // Enable()/Disable() beat env
std::atomic<bool> g_crash_dumped{false};

bool WriteFull(int fd, const void* data, size_t size) {
  const char* cursor = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t written = ::write(fd, cursor, size);
    if (written <= 0) {
      if (written < 0 && errno == EINTR) continue;
      return false;
    }
    cursor += written;
    size -= static_cast<size_t>(written);
  }
  return true;
}

// Async-signal-safe dump: open/write/fsync/close/rename only, no locks, no
// allocation. Reading a ring that another thread is appending to can tear
// the slot being written; the decoder validates entries and drops torn
// ones, so a dump is at worst missing the newest event per thread.
bool DumpRaw(const char* tmp_path, const char* final_path,
             uint32_t reason) {
  const int fd = ::open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = true;

  const uint32_t site_count = g_site_count.load(std::memory_order_acquire);
  uint32_t ring_count = g_ring_count.load(std::memory_order_acquire);
  if (ring_count > kMaxRings) ring_count = kMaxRings;
  uint32_t present = 0;
  for (uint32_t i = 0; i < ring_count; ++i) {
    if (g_rings[i].load(std::memory_order_acquire) != nullptr) ++present;
  }

  const uint32_t header[6] = {kMagic, kVersion, reason,
                              site_count, present, 0};
  ok = ok && WriteFull(fd, header, sizeof(header));

  for (uint32_t i = 0; ok && i < site_count; ++i) {
    const uint16_t length =
        static_cast<uint16_t>(std::strlen(g_sites[i]));
    ok = ok && WriteFull(fd, &length, sizeof(length));
    ok = ok && WriteFull(fd, g_sites[i], length);
  }

  for (uint32_t i = 0; ok && i < ring_count; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t recorded = ring->head.load(std::memory_order_acquire);
    const uint32_t stored =
        recorded < ring->capacity ? static_cast<uint32_t>(recorded)
                                  : ring->capacity;
    const uint32_t ring_header[4] = {ring->tid, ring->capacity, stored, 0};
    ok = ok && WriteFull(fd, ring_header, sizeof(ring_header));
    ok = ok && WriteFull(fd, &recorded, sizeof(recorded));
    ok = ok && WriteFull(fd, ring->entries,
                         static_cast<size_t>(stored) * sizeof(FlightEntry));
  }

  if (ok) ::fsync(fd);
  ::close(fd);
  if (!ok) {
    ::unlink(tmp_path);
    return false;
  }
  return ::rename(tmp_path, final_path) == 0;
}

void CrashHandler(int sig) {
  // One dump per process: a cascading fault inside the handler must not
  // recurse. SA_RESETHAND restored the default disposition before entry,
  // so the re-raise below terminates (and cores) as if we were never here.
  if (!g_crash_dumped.exchange(true)) {
    DumpRaw(g_default_tmp, g_default_path, static_cast<uint32_t>(sig));
  }
  ::raise(sig);
}

void BakePaths(const char* path) {
  std::snprintf(g_default_path, sizeof(g_default_path), "%s", path);
  std::snprintf(g_default_tmp, sizeof(g_default_tmp), "%s.tmp",
                g_default_path);
}

void SetEnabled(bool on) {
  internal::g_flight_enabled.store(on, std::memory_order_relaxed);
  internal::SetCaptureBit(internal::kCaptureFlight, on);
}

}  // namespace

void FlightRecorder::Init() {
  static std::once_flag once;
  std::call_once(once, [] {
    EnsureSiteZero();
    // obs sits below src/common in the link order, so env parsing here is
    // std::getenv + lenient hand-parsing rather than common/env.h.
    const char* events = std::getenv("FAIRCLEAN_FLIGHT_EVENTS");
    if (events != nullptr && events[0] != '\0') {
      char* end = nullptr;
      const long parsed = std::strtol(events, &end, 10);
      if (end != events && parsed > 0) {
        size_t clamped = static_cast<size_t>(parsed);
        if (clamped < kMinRingEvents) clamped = kMinRingEvents;
        if (clamped > kMaxRingEvents) clamped = kMaxRingEvents;
        g_ring_capacity.store(RoundUpPow2(clamped),
                              std::memory_order_relaxed);
      }
    }
    const char* path = std::getenv("FAIRCLEAN_FLIGHT");
    bool enable = true;
    if (path != nullptr && path[0] != '\0') {
      if (std::strcmp(path, "off") == 0 || std::strcmp(path, "0") == 0 ||
          std::strcmp(path, "none") == 0) {
        enable = false;
      } else {
        BakePaths(path);
      }
    }
    if (!g_explicit_toggle.load(std::memory_order_relaxed)) {
      SetEnabled(enable);
    }
    // A recorder that only dumps when a server asks for it is half a black
    // box: every binary that records must also dump on a fatal signal, so
    // the handler is installed here rather than per entry point. Disarmed
    // (FAIRCLEAN_FLIGHT=off) processes keep their default dispositions.
    if (enable) InstallCrashHandler();
  });
}

void FlightRecorder::Enable(size_t capacity) {
  EnsureSiteZero();
  g_ring_capacity.store(
      RoundUpPow2(capacity < kMinRingEvents
                      ? kMinRingEvents
                      : (capacity > kMaxRingEvents ? kMaxRingEvents
                                                   : capacity)),
      std::memory_order_relaxed);
  g_explicit_toggle.store(true, std::memory_order_relaxed);
  SetEnabled(true);
}

void FlightRecorder::Disable() {
  g_explicit_toggle.store(true, std::memory_order_relaxed);
  SetEnabled(false);
}

uint16_t FlightRecorder::Site(const std::string& name) {
  uint32_t count = g_site_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count; ++i) {
    if (name == g_sites[i]) return static_cast<uint16_t>(i);
  }
  std::lock_guard<std::mutex> lock(g_site_mutex);
  count = g_site_count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    if (name == g_sites[i]) return static_cast<uint16_t>(i);
  }
  if (count >= kMaxSites) return 0;
  std::snprintf(g_sites[count], kMaxSiteLen, "%s", name.c_str());
  g_site_count.store(count + 1, std::memory_order_release);
  return static_cast<uint16_t>(count);
}

uint16_t FlightRecorder::SiteForCategory(const char* category) {
  // Span categories are string literals, so a tiny pointer-identity cache
  // turns the common case into a linear scan over a handful of entries
  // with no string comparison at all.
  struct CacheSlot {
    std::atomic<const char*> pointer{nullptr};
    std::atomic<uint16_t> site{0};
  };
  static CacheSlot cache[64];
  static std::atomic<uint32_t> cache_count{0};
  const uint32_t count = cache_count.load(std::memory_order_acquire);
  const uint32_t scan = count < 64 ? count : 64;
  for (uint32_t i = 0; i < scan; ++i) {
    if (cache[i].pointer.load(std::memory_order_acquire) == category) {
      return cache[i].site.load(std::memory_order_relaxed);
    }
  }
  const uint16_t site = Site(std::string(category));
  const uint32_t slot = cache_count.fetch_add(1, std::memory_order_relaxed);
  if (slot < 64) {
    cache[slot].site.store(site, std::memory_order_relaxed);
    cache[slot].pointer.store(category, std::memory_order_release);
  }
  return site;
}

void FlightRecorder::Record(FlightEventType type, uint16_t site,
                            uint32_t arg) {
  if (!FlightEnabled()) return;
  Ring* ring = RingForThisThread();
  if (ring == nullptr) return;
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  FlightEntry& entry = ring->entries[head & (ring->capacity - 1)];
  entry.ts_us = static_cast<uint64_t>(Tracer::Global().NowMicros());
  entry.site = site;
  entry.type = static_cast<uint8_t>(type);
  entry.reserved = 0;
  entry.arg = arg;
  ring->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::InstallCrashHandler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashHandler;
  action.sa_flags = SA_RESETHAND | SA_NODEFER;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    ::sigaction(sig, &action, nullptr);
  }
}

bool FlightRecorder::Dump(const std::string& path, uint32_t reason,
                          std::string* error) {
  static std::mutex dump_mutex;  // serializes explicit (non-signal) dumps
  std::lock_guard<std::mutex> lock(dump_mutex);
  const std::string tmp = path + ".tmp";
  if (!DumpRaw(tmp.c_str(), path.c_str(), reason)) {
    if (error != nullptr) *error = "cannot write flight dump to " + path;
    return false;
  }
  return true;
}

bool FlightRecorder::DumpDefault(uint32_t reason, std::string* error) {
  return Dump(DefaultPath(), reason, error);
}

std::string FlightRecorder::DefaultPath() {
  return std::string(g_default_path);
}

uint64_t FlightRecorder::EventsRecordedOnThisThread() {
  return t_lease.ring == nullptr
             ? 0
             : t_lease.ring->head.load(std::memory_order_relaxed);
}

const char* FlightEventTypeName(uint8_t type) {
  switch (static_cast<FlightEventType>(type)) {
    case FlightEventType::kSpanBegin:
      return "span_begin";
    case FlightEventType::kSpanEnd:
      return "span_end";
    case FlightEventType::kFault:
      return "fault";
    case FlightEventType::kShed:
      return "shed";
    case FlightEventType::kCheckpoint:
      return "checkpoint";
    case FlightEventType::kDeadline:
      return "deadline";
    case FlightEventType::kMark:
      return "mark";
  }
  return "?";
}

size_t FlightDump::TotalEvents() const {
  size_t total = 0;
  for (const Thread& thread : threads) total += thread.events.size();
  return total;
}

bool DecodeFlightFile(const std::string& path, FlightDump* dump,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  size_t offset = 0;
  const auto read_bytes = [&](void* destination, size_t size) {
    if (offset + size > bytes.size()) return false;
    std::memcpy(destination, bytes.data() + offset, size);
    offset += size;
    return true;
  };

  uint32_t header[6];
  if (!read_bytes(header, sizeof(header)) || header[0] != kMagic) {
    if (error != nullptr) *error = path + " is not a flight dump";
    return false;
  }
  dump->version = header[1];
  dump->reason = header[2];
  const uint32_t site_count = header[3];
  const uint32_t ring_count = header[4];

  dump->sites.clear();
  for (uint32_t i = 0; i < site_count; ++i) {
    uint16_t length = 0;
    if (!read_bytes(&length, sizeof(length)) ||
        offset + length > bytes.size()) {
      if (error != nullptr) *error = path + ": truncated site table";
      return false;
    }
    dump->sites.emplace_back(bytes.data() + offset, length);
    offset += length;
  }

  dump->threads.clear();
  for (uint32_t i = 0; i < ring_count; ++i) {
    uint32_t ring_header[4];
    uint64_t recorded = 0;
    if (!read_bytes(ring_header, sizeof(ring_header)) ||
        !read_bytes(&recorded, sizeof(recorded))) {
      if (error != nullptr) *error = path + ": truncated ring header";
      return false;
    }
    const uint32_t capacity = ring_header[1];
    const uint32_t stored = ring_header[2];
    if (capacity == 0 || stored > capacity ||
        offset + static_cast<size_t>(stored) * sizeof(FlightEntry) >
            bytes.size()) {
      if (error != nullptr) *error = path + ": corrupt ring header";
      return false;
    }
    std::vector<FlightEntry> slots(stored);
    std::memcpy(slots.data(), bytes.data() + offset,
                static_cast<size_t>(stored) * sizeof(FlightEntry));
    offset += static_cast<size_t>(stored) * sizeof(FlightEntry);

    FlightDump::Thread thread;
    thread.tid = ring_header[0];
    thread.recorded = recorded;
    // Unwind ring order into chronological order: when the ring wrapped,
    // the oldest surviving entry sits just past the write cursor.
    const uint32_t start =
        recorded > capacity
            ? static_cast<uint32_t>(recorded & (capacity - 1))
            : 0;
    thread.events.reserve(stored);
    for (uint32_t j = 0; j < stored; ++j) {
      const FlightEntry& entry = slots[(start + j) % stored];
      // A crashing dumper can catch one slot mid-write; drop entries that
      // fail validation instead of surfacing garbage.
      if (entry.type < 1 || entry.type > 9) continue;
      if (entry.site >= site_count) continue;
      thread.events.push_back(entry);
    }
    dump->threads.push_back(std::move(thread));
  }
  return true;
}

}  // namespace obs
}  // namespace fairclean
