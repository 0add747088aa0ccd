// Shard execution layer of the suite scheduler (DESIGN.md Section 16):
// RunSuiteShard produces this process's slice of the cell grid — static
// per-wave partition or lease-based work stealing — and RunSuiteMerge
// assembles the merged report without stitching: it validates the
// per-shard partials against the shared cache, then executes the full
// graph over the warm cache, which by the fresh==warm identity contract
// yields bytes identical to a single-process run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "obs/json_lite.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "sched/suite_runner.h"

namespace fairclean {
namespace sched {

namespace {

std::string JsonString(const std::string& text) {
  return "\"" + obs::JsonEscape(text) + "\"";
}

constexpr char kMergeClaimKey[] = "__merge__";

/// Lease key a claim shard holds from start until its partial report is
/// written. A merger waiting on a sibling's partial reads it to tell a
/// sibling that is still finishing from one that died.
std::string PresenceKey(const ShardSpec& shard) {
  return StrFormat("shard:%zuof%zu", shard.index + 1, shard.count);
}

/// Backoff between claim scans when every remaining cell of a wave is held
/// by a live sibling: short enough to notice a freed or expired lease
/// quickly, long enough not to hammer the claims directory.
constexpr std::chrono::milliseconds kClaimScanBackoff(25);

}  // namespace

std::string SuiteScheduler::PartialReportPath(const std::string& report_path,
                                              const ShardSpec& shard) {
  return StrFormat("%s.shard%zuof%zu", report_path.c_str(), shard.index + 1,
                   shard.count);
}

std::string SuiteScheduler::CellCacheKey(const CellKey& cell) const {
  exec::StudyDriverOptions driver_options;
  driver_options.study = options_.study;
  return exec::StudyDriver::CacheKey(driver_options, cell.dataset,
                                     cell.error_type, cell.model);
}

bool SuiteScheduler::IsStolenCell(const CellKey& cell) const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return stolen_cells_.count(cell.Id()) != 0;
}

void SuiteScheduler::RefreshCellLease(const CellKey& cell) {
  if (lease_store_ == nullptr) return;
  store::LeaseToken token;
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    auto it = claim_tokens_.find(cell.Id());
    if (it == claim_tokens_.end()) return;
    token = it->second;
  }
  Status refreshed = lease_store_->Refresh(token, options_.shard_lease_s);
  std::lock_guard<std::mutex> lock(shard_mutex_);
  if (refreshed.ok()) {
    ++shard_counters_.lease_refreshes;
    metrics_.GetCounter("sched.shard.lease_refreshes")->Increment();
  } else {
    // The claim was stolen (our lease lapsed) or the file vanished. The
    // computation stays byte-valid either way — finish it; worst case the
    // thief duplicates work it would have cache-hit a moment later.
    ++shard_counters_.lease_lost;
    metrics_.GetCounter("sched.shard.lease_lost")->Increment();
    FC_LOG_WARN("sched", "lease refresh lost for %s: %s",
                cell.Id().c_str(), refreshed.ToString().c_str());
  }
}

Status SuiteScheduler::ProduceWaveCells(const SuiteSpec& spec,
                                        const ExperimentGraph& graph,
                                        size_t wave_index,
                                        const std::vector<size_t>& ids) {
  if (ids.empty()) return Status::OK();
  std::vector<CellKey> wave_cells;
  wave_cells.reserve(ids.size());
  for (size_t id : ids) wave_cells.push_back(graph.nodes()[id].cell);
  current_wave_ = wave_index;
  planner_.PlanWave(wave_index, wave_cells);
  // Same LPT submission discipline as ExecuteGraph: longest-first with
  // ascending node id as the deterministic tiebreak.
  std::vector<size_t> order = ids;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ra = CellCostRank(graph.nodes()[a].cell);
    int rb = CellCostRank(graph.nodes()[b].cell);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  std::vector<Status> statuses =
      RunIndexed(pool_.get(), order.size(), [&](size_t i) {
        return InvokeWithStatusCapture(
            [&, i] { return RunNode(spec, graph, order[i]); });
      });
  planner_.EndWave();
  current_wave_ = kNoWave;
  size_t failed_pos = order.size();
  for (size_t i = 0; i < order.size(); ++i) {
    if (statuses[i].ok()) continue;
    if (failed_pos == order.size() || order[i] < order[failed_pos]) {
      failed_pos = i;
    }
  }
  if (failed_pos != order.size()) return statuses[failed_pos];
  return Status::OK();
}

Status SuiteScheduler::RunClaimWave(const SuiteSpec& spec,
                                    const ExperimentGraph& graph,
                                    size_t wave_index,
                                    const std::vector<size_t>& cell_ids,
                                    std::vector<size_t>* produced_ids) {
  store::FlatFileStore blob(options_.cache_dir);
  const std::string owner = options_.shard.Label();
  std::vector<size_t> pending = cell_ids;
  while (!pending.empty()) {
    // Claim exactly one pool-width of cells per scan, then produce and
    // rescan. Greedy one-batch-at-a-time claiming is what makes skewed
    // grids scale: cell costs vary by an order of magnitude (xgboost vs
    // log-reg), so any coarser chunk risks one process batching several
    // expensive cells back to back while its siblings drain the cheap
    // remainder and idle. Claims are one flock'd file each — microseconds
    // against cells that take seconds — so the extra scans are free.
    const size_t chunk = width_;
    std::vector<size_t> batch;
    std::vector<size_t> next_pending;
    bool saw_conflict = false;
    for (size_t id : pending) {
      const CellKey& cell = graph.nodes()[id].cell;
      if (batch.size() >= chunk) {
        next_pending.push_back(id);
        continue;
      }
      // Done marker = the cell's cache record exists. A sibling (or a
      // previous incarnation of this shard) finished it; the merge pass
      // will cache-hit it, so it belongs in nobody's new partial.
      FC_ASSIGN_OR_RETURN(bool cached, blob.Contains(CellCacheKey(cell)));
      if (cached) {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        ++shard_counters_.cache_skips;
        metrics_.GetCounter("sched.shard.cache_skips")->Increment();
        continue;
      }
      Result<store::LeaseToken> token = lease_store_->Acquire(
          ClaimKeyFor(cell), owner, options_.shard_lease_s);
      if (!token.ok()) {
        if (token.status().code() == StatusCode::kUnavailable) {
          // A live sibling inside its lease holds this cell.
          {
            std::lock_guard<std::mutex> lock(shard_mutex_);
            ++shard_counters_.claim_conflicts;
            metrics_.GetCounter("sched.shard.claim_conflicts")->Increment();
          }
          saw_conflict = true;
          next_pending.push_back(id);
          continue;
        }
        return token.status();
      }
      // Re-check the done marker now that the claim is held: a sibling
      // may have produced the cell and released its claim in the window
      // between the Contains probe above and this Acquire. Producers
      // write the cache record strictly before releasing, so under the
      // claim this check is authoritative and closes the race.
      FC_ASSIGN_OR_RETURN(bool now_cached,
                          blob.Contains(CellCacheKey(cell)));
      if (now_cached) {
        Status released = lease_store_->Release(*token);
        if (!released.ok()) {
          FC_LOG_WARN("sched", "claim release failed for %s: %s",
                      cell.Id().c_str(), released.ToString().c_str());
        }
        std::lock_guard<std::mutex> lock(shard_mutex_);
        ++shard_counters_.cache_skips;
        metrics_.GetCounter("sched.shard.cache_skips")->Increment();
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        claim_tokens_[cell.Id()] = *token;
        if (token->stolen) {
          // Dead or expired owner: we take over. Its journal (if any)
          // lives in the shared cache dir, so ProduceCell resumes the
          // partial repeats instead of recomputing them.
          stolen_cells_.insert(cell.Id());
          ++shard_counters_.steals;
          metrics_.GetCounter("sched.shard.steals")->Increment();
          FC_LOG_INFO("sched", "%s stole claim for %s", owner.c_str(),
                      cell.Id().c_str());
        }
      }
      batch.push_back(id);
    }
    if (!batch.empty()) {
      Status produced = ProduceWaveCells(spec, graph, wave_index, batch);
      for (size_t id : batch) {
        const CellKey& cell = graph.nodes()[id].cell;
        store::LeaseToken token;
        bool have_token = false;
        {
          std::lock_guard<std::mutex> lock(shard_mutex_);
          auto it = claim_tokens_.find(cell.Id());
          if (it != claim_tokens_.end()) {
            token = it->second;
            claim_tokens_.erase(it);
            have_token = true;
          }
        }
        if (have_token) {
          Status released = lease_store_->Release(token);
          if (!released.ok()) {
            FC_LOG_WARN("sched", "claim release failed for %s: %s",
                        cell.Id().c_str(), released.ToString().c_str());
          }
        }
      }
      FC_RETURN_IF_ERROR(produced);
      {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        shard_counters_.produced += batch.size();
        metrics_.GetCounter("sched.shard.cells_produced")
            ->Increment(batch.size());
      }
      produced_ids->insert(produced_ids->end(), batch.begin(), batch.end());
    } else if (saw_conflict) {
      // Every remaining cell is held by a live sibling: wait for it to
      // finish (its cache record appears) or for its lease to expire
      // (then we steal).
      std::this_thread::sleep_for(kClaimScanBackoff);
    }
    pending = std::move(next_pending);
  }
  return Status::OK();
}

Status SuiteScheduler::WritePartialReport(
    const SuiteSpec& spec, const ExperimentGraph& graph,
    const SuiteFilter& filter, const std::vector<size_t>& produced_ids)
    const {
  std::vector<size_t> ids = produced_ids;
  std::sort(ids.begin(), ids.end());
  ShardCounters counters;
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    counters = shard_counters_;
  }
  ClassifierCounts classifier;
  std::string cells = "[";
  bool first = true;
  for (size_t id : ids) {
    auto artifact =
        std::static_pointer_cast<const CellArtifact>(node_values_[id]);
    if (artifact == nullptr) continue;
    classifier.Add(artifact->cell_class);
    cells += StrFormat(
        "%s{\"id\":%s,\"cache_file\":%s,\"sha256\":%s,\"class\":%s,"
        "\"repeats\":%zu}",
        first ? "" : ",", JsonString(graph.nodes()[id].label).c_str(),
        JsonString(artifact->cache_file).c_str(),
        JsonString(artifact->sha256).c_str(),
        JsonString(CellClassName(artifact->cell_class)).c_str(),
        artifact->result.dirty.accuracy.size());
    first = false;
  }
  cells += "]";

  std::string filter_text;
  for (size_t i = 0; i < filter.tokens.size(); ++i) {
    if (i) filter_text += ",";
    filter_text += filter.tokens[i];
  }

  std::string out = "{";
  out += StrFormat(
      "\"shard\":{\"mode\":%s,\"index\":%zu,\"count\":%zu,\"label\":%s}",
      JsonString(ShardModeName(options_.shard.mode)).c_str(),
      options_.shard.index + 1, options_.shard.count,
      JsonString(options_.shard.Label()).c_str());
  out += ",\"suite\":" + JsonString(spec.name);
  out += ",\"filter\":" + JsonString(filter_text);
  out += StrFormat(
      ",\"counters\":{\"produced\":%llu,\"steals\":%llu,"
      "\"claim_conflicts\":%llu,\"cache_skips\":%llu,"
      "\"lease_refreshes\":%llu,\"lease_lost\":%llu}",
      static_cast<unsigned long long>(counters.produced),
      static_cast<unsigned long long>(counters.steals),
      static_cast<unsigned long long>(counters.claim_conflicts),
      static_cast<unsigned long long>(counters.cache_skips),
      static_cast<unsigned long long>(counters.lease_refreshes),
      static_cast<unsigned long long>(counters.lease_lost));
  out += ",\"classifier\":" + classifier.ToJson();
  out += ",\"cells\":" + cells;
  out += "}\n";

  const std::string path =
      PartialReportPath(options_.report_path, options_.shard);
  FC_RETURN_IF_ERROR(WriteFileAtomic(path, out));
  FC_LOG_INFO("sched", "%s: partial report written to %s (%llu cells)",
              options_.shard.Label().c_str(), path.c_str(),
              static_cast<unsigned long long>(counters.produced));
  return Status::OK();
}

Status SuiteScheduler::RunSuiteShard(const SuiteSpec& spec,
                                     const SuiteFilter& filter) {
  const ShardSpec& shard = options_.shard;
  if (!shard.active()) {
    return Status::InvalidArgument(
        "RunSuiteShard requires an active shard spec (--shard or "
        "--shard-claim)");
  }
  if (options_.cache_dir.empty()) {
    return Status::InvalidArgument(
        "sharded runs need a cache dir: the shared cache is the "
        "coordination plane");
  }
  if (options_.report_path.empty()) {
    return Status::InvalidArgument(
        "sharded runs need a report path for the per-shard partial report");
  }
  obs::Tracer::SetProcessLabel(shard.Label());
  obs::TraceSpan span("sched", [&] {
    return "suite-shard " + spec.name + " " + shard.Label();
  });
  store::LeaseToken presence;
  if (shard.mode == ShardMode::kClaim) {
    if (lease_store_ == nullptr) {
      lease_store_ =
          std::make_unique<store::LeaseStore>(options_.cache_dir + "/claims");
    }
    FC_ASSIGN_OR_RETURN(presence,
                        lease_store_->Acquire(PresenceKey(shard), shard.Label(),
                                              options_.shard_lease_s));
  }

  ExperimentGraph graph = ExperimentGraph::Build(spec, filter);
  FC_LOG_INFO("sched", "%s %s: %zu cells across the graph, width %zu",
              shard.Label().c_str(), ShardModeName(shard.mode),
              graph.CountKind(NodeKind::kCell), width_);
  node_values_.assign(graph.nodes().size(), nullptr);

  std::vector<size_t> produced_ids;
  const std::vector<std::vector<size_t>> waves = graph.Waves();
  for (size_t w = 0; w < waves.size(); ++w) {
    std::vector<size_t> cell_ids;
    for (size_t id : waves[w]) {
      if (graph.nodes()[id].kind == NodeKind::kCell) cell_ids.push_back(id);
    }
    if (cell_ids.empty()) continue;
    if (shard.mode == ShardMode::kStatic) {
      std::vector<size_t> mine;
      for (size_t pos :
           StaticShardIndices(cell_ids.size(), shard.index, shard.count)) {
        mine.push_back(cell_ids[pos]);
      }
      FC_RETURN_IF_ERROR(ProduceWaveCells(spec, graph, w, mine));
      {
        std::lock_guard<std::mutex> lock(shard_mutex_);
        shard_counters_.produced += mine.size();
        metrics_.GetCounter("sched.shard.cells_produced")
            ->Increment(mine.size());
      }
      produced_ids.insert(produced_ids.end(), mine.begin(), mine.end());
    } else {
      FC_RETURN_IF_ERROR(
          RunClaimWave(spec, graph, w, cell_ids, &produced_ids));
    }
  }

  FC_RETURN_IF_ERROR(WritePartialReport(spec, graph, filter, produced_ids));

  if (shard.mode == ShardMode::kClaim) {
    Status released = lease_store_->Release(presence);
    if (!released.ok()) {
      FC_LOG_WARN("sched", "presence release failed: %s",
                  released.ToString().c_str());
    }
    // Merge election: a claim shard only reaches this point once every
    // cell of every wave has a cache record (its scan loop cannot finish
    // otherwise), so any finisher could merge — the __merge__ lease picks
    // one. Re-merging after a release would be harmless (the merged
    // report is byte-identical by construction), just wasted work.
    Result<store::LeaseToken> merge = lease_store_->Acquire(
        kMergeClaimKey, shard.Label(), options_.shard_lease_s);
    if (merge.ok()) {
      Status merged = RunSuiteMerge(spec, filter);
      Status released = lease_store_->Release(*merge);
      if (!released.ok()) {
        FC_LOG_WARN("sched", "merge claim release failed: %s",
                    released.ToString().c_str());
      }
      FC_RETURN_IF_ERROR(merged);
    } else if (merge.status().code() == StatusCode::kUnavailable) {
      FC_LOG_INFO("sched", "%s: merge already claimed by a sibling shard",
                  shard.Label().c_str());
    } else {
      return merge.status();
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> SuiteScheduler::PartialReportsToValidate()
    const {
  namespace fs = std::filesystem;
  size_t count = options_.shard.count;
  if (!options_.shard.active()) {
    // Explicit merge pass: learn N from the partials on disk. Only names
    // that parse exactly as "<report>.shard<i>of<N>" count, so a sibling's
    // in-flight "<partial>.tmp" can never be mistaken for a partial.
    fs::path report(options_.report_path);
    fs::path dir = report.parent_path();
    if (dir.empty()) dir = ".";
    const std::string prefix = report.filename().string() + ".shard";
    count = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind(prefix, 0) != 0) continue;
      std::string spec_text = name.substr(prefix.size());
      size_t of = spec_text.find("of");
      if (of == std::string::npos) continue;
      spec_text.replace(of, 2, "/");
      Result<ShardSpec> parsed = ParseShardSpec(ShardMode::kStatic, spec_text);
      if (!parsed.ok()) continue;
      if (count != 0 && parsed->count != count) {
        return Status::InvalidArgument(StrFormat(
            "partial reports of %zu and %zu shards next to %s: remove the "
            "stale set",
            count, parsed->count, options_.report_path.c_str()));
      }
      count = parsed->count;
    }
    if (ec) {
      return Status::IoError("scanning " + dir.string() + ": " +
                             ec.message());
    }
    if (count == 0) return std::vector<std::string>{};
  }

  std::vector<std::string> expected;
  for (size_t i = 0; i < count; ++i) {
    ShardSpec shard = options_.shard;
    shard.index = i;
    shard.count = count;
    expected.push_back(PartialReportPath(options_.report_path, shard));
  }
  auto present = [](const std::string& path) {
    std::error_code ec;
    return fs::exists(path, ec);
  };
  if (options_.shard.mode == ShardMode::kClaim) {
    // Every cell has a cache record by now, but a sibling may still be
    // writing its partial. Wait, under the lease deadline, until each
    // partial exists or its shard is known to be gone (presence released
    // or its process dead), so the validated set is every partial that
    // will ever exist.
    auto settled = [&](size_t i) {
      if (present(expected[i])) return true;
      ShardSpec shard = options_.shard;
      shard.index = i;
      Result<store::LeaseRecord> record =
          lease_store_->Read(PresenceKey(shard));
      return record.ok() &&
             (record->released() || !store::PidAlive(record->pid));
    };
    const double deadline =
        store::MonotonicSeconds() + options_.shard_lease_s;
    for (size_t i = 0; i < count; ++i) {
      while (!settled(i) && store::MonotonicSeconds() <= deadline) {
        std::this_thread::sleep_for(kClaimScanBackoff);
      }
    }
  }
  std::vector<std::string> partials;
  for (const std::string& path : expected) {
    if (present(path)) {
      partials.push_back(path);
    } else {
      FC_LOG_WARN("sched", "merge: partial report %s is missing",
                  path.c_str());
    }
  }
  return partials;
}

Status SuiteScheduler::RunSuiteMerge(const SuiteSpec& spec,
                                     const SuiteFilter& filter) {
  obs::TraceSpan span("sched", "suite-merge");
  if (!options_.cache_dir.empty() && !options_.report_path.empty()) {
    // Cross-check every partial report against the shared cache before
    // trusting it: a cell whose recorded sha256 no longer matches the
    // cache bytes means two shards ran inconsistent configurations (or
    // the cache was tampered with) — merging would silently bless it.
    FC_ASSIGN_OR_RETURN(std::vector<std::string> partials,
                        PartialReportsToValidate());
    store::FlatFileStore blob(options_.cache_dir);
    size_t validated = 0;
    for (const std::string& path : partials) {
      FC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
      obs::JsonValue parsed;
      std::string error;
      if (!obs::JsonValue::Parse(text, &parsed, &error)) {
        return Status::InvalidArgument("malformed partial report " + path +
                                       ": " + error);
      }
      const obs::JsonValue* cells = parsed.Find("cells");
      if (cells == nullptr || cells->type != obs::JsonValue::Type::kArray) {
        return Status::InvalidArgument("partial report " + path +
                                       " has no cells array");
      }
      for (const obs::JsonValue& cell : cells->array_items) {
        const std::string cache_file = cell.StringOr("cache_file", "");
        const std::string claimed = cell.StringOr("sha256", "");
        if (cache_file.empty() || claimed.empty()) {
          return Status::InvalidArgument("partial report " + path +
                                         " lists a cell without "
                                         "cache_file/sha256");
        }
        FC_ASSIGN_OR_RETURN(std::string bytes, blob.Read(cache_file));
        const std::string actual = Sha256Hex(bytes);
        if (actual != claimed) {
          return Status::Internal(
              StrFormat("merge validation failed: %s claims sha256 %s for "
                        "%s but the shared cache holds %s",
                        path.c_str(), claimed.c_str(), cache_file.c_str(),
                        actual.c_str()));
        }
        ++validated;
      }
    }
    FC_LOG_INFO("sched",
                "merge: %zu partial reports validated (%zu cell records)",
                partials.size(), validated);
  }
  // The merge itself is a full-graph run over the warm cache: every cell
  // is a cache hit, and fresh==warm byte identity makes the merged report
  // identical to a single-process run. No stitching, no partial-order
  // reasoning — the cache is the merge.
  return RunSuite(spec, filter);
}

}  // namespace sched
}  // namespace fairclean
