#include "sgm/parallel/parallel_enumerate.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sgm/core/enumerate/enumeration_engine.h"
#include "sgm/obs/trace.h"
#include "sgm/parallel/task_pool.h"
#include "sgm/util/timer.h"

namespace sgm::parallel {

void EnumerateWorkStealing(const Graph& query, const Graph& data,
                           const MatchPlan& plan,
                           const EnumerateOptions& options,
                           uint32_t root_count, uint32_t threads,
                           obs::TraceBuffer* trace,
                           const MatchCallback& callback, MatchResult* result) {
  const uint32_t workers = std::min(threads, root_count);
  const uint64_t budget = options.max_matches;
  const std::atomic<bool>* external_cancel = options.cancel_flag;
  result->workers_used = workers;
  result->worker_stats.assign(workers, {});

  std::atomic<uint64_t> global_matches{0};
  std::atomic<bool> stop{false};
  std::mutex callback_mutex;
  std::vector<EnumerateStats> worker_enumerate(workers);
  std::vector<obs::DepthProfile> worker_profiles(
      options.depth_profile != nullptr ? workers : 0);

  EnumerateOptions worker_base = options;
  // The global budget is enforced through the shared counter below; the
  // run's own stop flag halts workers that are deep in matchless subtrees.
  worker_base.max_matches = 0;
  worker_base.cancel_flag = &stop;

  // Shared per-match accounting. With a user callback, counting and
  // delivery are serialized under one mutex, so the final count equals the
  // number of callback invocations exactly (delivered-match semantics, the
  // same rule as EnumerationEngine::RecordMatch). Without a callback the
  // hot path never takes a mutex: counting is a relaxed fetch_add, clamped
  // to the budget at the end.
  const MatchCallback worker_callback =
      [&](std::span<const Vertex> mapping) -> bool {
    if (stop.load(std::memory_order_relaxed)) return false;
    if (external_cancel != nullptr &&
        external_cancel->load(std::memory_order_relaxed)) {
      // External cancellation folds into the run's own stop flag so every
      // worker drains promptly.
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    if (callback) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      // Re-check under the lock: a run stopped while we waited must never
      // deliver a late match.
      if (stop.load(std::memory_order_relaxed)) return false;
      const uint64_t count =
          global_matches.fetch_add(1, std::memory_order_relaxed) + 1;
      if (!callback(mapping) || (budget > 0 && count >= budget)) {
        stop.store(true, std::memory_order_relaxed);
        return false;
      }
      return true;
    }
    const uint64_t count =
        global_matches.fetch_add(1, std::memory_order_relaxed) + 1;
    if (budget > 0 && count >= budget) {
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  };

  TaskPool pool(workers, root_count, /*chunk_size=*/0);
  const AuxStructure* aux = plan.has_aux ? &plan.aux : nullptr;
  const DpisoWeights* weights =
      plan.options.adaptive_order ? &plan.weights : nullptr;
  const auto worker_fn = [&](uint32_t worker) {
    // One long-lived engine per worker: scratch buffers are allocated once
    // and Reset() between work items.
    EnumerateOptions worker_options = worker_base;
    worker_options.depth_profile =
        worker_profiles.empty() ? nullptr : &worker_profiles[worker];
    EnumerationEngine engine(query, data, plan.candidates, aux,
                             plan.matching_order, worker_options, weights,
                             worker_callback);
    engine.set_split_hook(
        [&pool](Vertex root, uint32_t next, uint32_t end) -> uint32_t {
          return pool.OfferSplit(root, next, end);
        });
    if (trace != nullptr) {
      trace->SetThreadName(worker + 1, "worker-" + std::to_string(worker));
    }
    WorkerStats& ws = result->worker_stats[worker];
    WorkItem item;
    ThreadCpuTimer cpu_timer;
    while (!stop.load(std::memory_order_relaxed) && pool.NextWork(&item)) {
      if (external_cancel != nullptr &&
          external_cancel->load(std::memory_order_relaxed)) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      const bool is_chunk = item.kind == WorkItem::Kind::kRootChunk;
      std::string span_name;
      if (trace != nullptr) {
        span_name = is_chunk
                        ? "chunk[" + std::to_string(item.begin) + "," +
                              std::to_string(item.end) + ")"
                        : "steal root=" +
                              std::to_string(item.subtask.root_image);
      }
      obs::TraceSpan span(trace, std::move(span_name), "work-item",
                          worker + 1);
      cpu_timer.Reset();
      engine.Reset();
      if (is_chunk) {
        engine.RunSlice(item.begin, item.end);
        ++ws.root_chunks;
      } else {
        engine.RunSubtree(item.subtask.root_image, item.subtask.d1_begin,
                          item.subtask.d1_end);
        ++ws.stolen_subtasks;
      }
      const double item_ms = cpu_timer.ElapsedMillis();
      ws.busy_ms += item_ms;
      ws.item_costs_ms.push_back(item_ms);
      if (engine.aborted()) break;
    }
    // Whether this worker ran out of work, aborted, or saw the stop flag:
    // wake everyone so the pool drains (Stop is idempotent).
    pool.Stop();
    worker_enumerate[worker] = engine.stats();
    ws.recursion_calls = engine.stats().recursion_calls;
    ws.matches_found = engine.stats().match_count;
  };

  Timer enumeration_timer;
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    pool_threads.emplace_back(worker_fn, w);
  }
  for (auto& thread : pool_threads) thread.join();
  result->chunk_size = pool.chunk_size();
  result->subtasks_published = pool.subtasks_published();
  if (options.depth_profile != nullptr) {
    for (const obs::DepthProfile& profile : worker_profiles) {
      options.depth_profile->Merge(profile);
    }
  }

  // Aggregate worker statistics.
  EnumerateStats& stats = result->enumerate;
  for (const EnumerateStats& worker : worker_enumerate) {
    stats.recursion_calls += worker.recursion_calls;
    stats.local_candidates_scanned += worker.local_candidates_scanned;
    stats.failing_set_prunes += worker.failing_set_prunes;
    stats.bitmap_intersections += worker.bitmap_intersections;
    stats.lc_cache_hits += worker.lc_cache_hits;
    stats.lc_cache_misses += worker.lc_cache_misses;
    stats.timed_out = stats.timed_out || worker.timed_out;
  }
  const uint64_t found = global_matches.load();
  stats.match_count = std::min<uint64_t>(
      found, budget > 0 ? budget : std::numeric_limits<uint64_t>::max());
  stats.reached_match_limit = budget > 0 && found >= budget;
  stats.enumeration_ms = enumeration_timer.ElapsedMillis();
}

}  // namespace sgm::parallel
