// Work-stealing task pool for parallel enumeration.
//
// Two kinds of work flow through the pool:
//   1. Root chunks — contiguous ranges of root candidates, dispensed from a
//      lock-free ChunkQueue. This is the common case and never touches the
//      mutex.
//   2. Stolen depth-1 subtasks — when every root chunk has been claimed and
//      at least one worker is idle, the worker that owns the remaining work
//      publishes the untried depth-1 local candidates of its current root as
//      (root image, d1 range) subtasks. A thief re-binds the root and
//      explores only its share of the depth-1 range; subtasks can be split
//      again, so a single hub root spreads across all workers.
//
// The pool also decides *when* splitting pays off (OfferSplit): only in the
// endgame (no unclaimed root chunks) and only when someone is actually idle,
// so the hook costs two relaxed atomic loads on the hot path.
#ifndef SGM_PARALLEL_TASK_POOL_H_
#define SGM_PARALLEL_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sgm/core/types.h"
#include "sgm/parallel/work_queue.h"

namespace sgm::parallel {

/// A stolen depth-1 subtree: explore depth-1 local candidates
/// [d1_begin, d1_end) under the root candidate mapped to `root_image`.
struct StolenSubtask {
  Vertex root_image = kInvalidVertex;
  uint32_t d1_begin = 0;
  uint32_t d1_end = 0;
};

/// One unit of work handed to a worker.
struct WorkItem {
  enum class Kind : uint8_t { kRootChunk, kSubtask };
  Kind kind = Kind::kRootChunk;
  uint32_t begin = 0;  // root chunk [begin, end)
  uint32_t end = 0;
  StolenSubtask subtask;
};

/// Shared scheduler state of one parallel enumeration run.
/// Thread-safe; one instance per parallel ExecutePlan call.
class TaskPool {
 public:
  /// `root_count` root candidates shared by `workers` threads;
  /// `chunk_size` 0 = AutoChunkSize.
  TaskPool(uint32_t workers, uint32_t root_count, uint32_t chunk_size);

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Claims the next unit of work, blocking while work may still appear.
  /// Returns false when the run is over: every root chunk and subtask is
  /// done and no active worker could publish more, or Stop() was called.
  bool NextWork(WorkItem* item);

  /// Split offer from a worker iterating the depth-1 candidates of a root:
  /// [next, end) are the absolute indices it has not started yet. When the
  /// endgame condition holds (no unclaimed root chunks, idle workers), the
  /// pool queues a suffix as stolen subtasks and returns the new end of the
  /// caller's local range; otherwise returns `end` unchanged.
  uint32_t OfferSplit(Vertex root_image, uint32_t next, uint32_t end);

  /// Wakes every waiting worker and makes NextWork return false. Called on
  /// global stop (match budget, callback veto, timeout). Idempotent.
  void Stop();

  uint32_t chunk_size() const { return roots_.chunk_size(); }
  uint32_t IdleWorkers() const {
    return workers_ - active_.load(std::memory_order_relaxed);
  }
  uint64_t subtasks_published() const {
    return subtasks_published_.load(std::memory_order_relaxed);
  }

 private:
  const uint32_t workers_;
  ChunkQueue roots_;
  std::atomic<bool> stop_{false};
  /// Workers currently executing a work item (all start active). Mutated
  /// only under mu_; read without it by OfferSplit/IdleWorkers.
  std::atomic<uint32_t> active_;
  std::atomic<uint64_t> subtasks_published_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<StolenSubtask> subtasks_;  // LIFO
};

}  // namespace sgm::parallel

#endif  // SGM_PARALLEL_TASK_POOL_H_
