// Shared-memory parallel enumeration — the single-machine parallel
// execution style of PSM/CECI/pRI that Table 1 of the paper lists for most
// algorithm families. Internal to ExecutePlan (plan.cc), which takes this
// path when MatchOptions::threads > 1; preprocessing has already run once.
//
// Root candidates are dispensed as fine-grained chunks from a shared atomic
// counter; each worker owns one long-lived EnumerationEngine whose scratch
// is reset (not reallocated) per chunk. In the endgame, the worker holding
// the last remaining work publishes the untried depth-1 subtrees of its
// current root as stealable subtasks, so even a single dominant root
// spreads across all workers.
#ifndef SGM_PARALLEL_PARALLEL_ENUMERATE_H_
#define SGM_PARALLEL_PARALLEL_ENUMERATE_H_

#include <cstdint>

#include "sgm/plan.h"

namespace sgm::obs {
class TraceBuffer;
}  // namespace sgm::obs

namespace sgm::parallel {

/// Enumerates root candidates [0, root_count) of `plan` over
/// min(threads, root_count) work-stealing workers, which must be at least
/// two (ExecutePlan runs the serial engine otherwise). `options` are the
/// run's engine options as ExecutePlan builds them: max_matches is one global
/// budget, cancel_flag an external cancellation checked between work items
/// and on every delivered match, and depth_profile (when set) receives the
/// merged per-worker profiles. The callback is serialized under a mutex;
/// with one, the count equals the matches delivered. Fills
/// result->enumerate and the worker accounting of `result`.
void EnumerateWorkStealing(const Graph& query, const Graph& data,
                           const MatchPlan& plan,
                           const EnumerateOptions& options,
                           uint32_t root_count, uint32_t threads,
                           obs::TraceBuffer* trace,
                           const MatchCallback& callback, MatchResult* result);

}  // namespace sgm::parallel

#endif  // SGM_PARALLEL_PARALLEL_ENUMERATE_H_
