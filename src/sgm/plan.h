// Reusable query plans: the preprocessing product of one (query, data,
// options) triple, split off from the per-run enumeration so it can be
// built once and executed many times.
//
// MatchQuery = BuildMatchPlan + ExecutePlan. The split exists for the
// serving workload (service/service.h): on a data graph that answers many
// queries, the filtering, auxiliary-structure and ordering phases — the
// dominant cost on small-to-medium queries — repeat verbatim whenever the
// same query text comes back, so the service's plan cache retains MatchPlan
// objects and replays only the enumeration. ExecutePlan is the one way to
// enumerate a plan, serially or (MatchOptions::threads > 1) on a
// work-stealing pool.
//
// A built plan is immutable and thread-compatible: concurrent ExecutePlan
// calls on one plan are safe because enumeration only reads it.
#ifndef SGM_PLAN_H_
#define SGM_PLAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "sgm/core/order/dpiso_order.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/matcher.h"

namespace sgm {

/// Everything the enumeration phase needs, prebuilt: candidate sets, the
/// auxiliary candidate-edge index (with bitmap sidecars when the options
/// request them), the matching order, and DP-iso's adaptive weights.
/// Produced by BuildMatchPlan; executed (any number of times, concurrently)
/// by ExecutePlan.
struct MatchPlan {
  MatchPlan() = default;
  /// Not copyable or movable: `aux` holds a pointer to `candidates`, so the
  /// object must stay at one address for its whole life. BuildMatchPlan
  /// returns plans behind unique_ptr for this reason.
  MatchPlan(const MatchPlan&) = delete;
  MatchPlan& operator=(const MatchPlan&) = delete;

  /// The options the plan was built for. Structural fields (filter, order,
  /// lc_method, aux_scope, intersection, adaptive_order, ...) are baked
  /// into the plan; execution knobs (max_matches, time_limit_ms, collector,
  /// cancel_flag) may differ per ExecutePlan call.
  MatchOptions options;

  CandidateSets candidates;
  std::optional<BfsTree> bfs_tree;
  AuxStructure aux;
  /// True when aux was built (options.aux_scope != kNone).
  bool has_aux = false;
  std::vector<Vertex> matching_order;
  /// Valid iff options.adaptive_order.
  DpisoWeights weights;
  /// Some query vertex has an empty candidate set: zero matches, and
  /// aux/order/weights were never built.
  bool empty_candidates = false;

  // ---- Build metrics (the "preprocessing" phases of the paper). ----
  double filter_ms = 0.0;
  double aux_build_ms = 0.0;
  double order_ms = 0.0;
  double average_candidates = 0.0;
  size_t candidate_memory_bytes = 0;
  size_t aux_memory_bytes = 0;
  std::vector<FilterRound> filter_rounds;

  /// Build time of the whole plan (what a plan-cache hit saves).
  double build_ms() const { return filter_ms + aux_build_ms + order_ms; }

  /// Approximate heap footprint of the retained structures — what a plan
  /// cache accounts against its memory budget.
  size_t MemoryBytes() const;
};

/// Runs the preprocessing phases (filtering, auxiliary structure, ordering,
/// adaptive weights) and returns the reusable plan. The query must be
/// connected, with 1 <= |V(q)| <= 64. Honors options.collector for phase
/// trace spans, exactly like MatchQuery.
std::unique_ptr<MatchPlan> BuildMatchPlan(const Graph& query,
                                          const Graph& data,
                                          const MatchOptions& options);

/// Runs the enumeration phase of a prebuilt plan. `query` and `data` must
/// be the graphs the plan was built from; `run_options` must agree with
/// plan.options on the structural fields and supplies the per-run knobs
/// (max_matches, time_limit_ms, threads, collector, cancel_flag,
/// use_lc_cache).
///
/// With `include_build_metrics` (the default) the returned MatchResult
/// carries the plan's preprocessing times, so MatchQuery semantics are
/// preserved; a plan-cache hit passes false and reports zero preprocessing
/// time — the run did none.
MatchResult ExecutePlan(const Graph& query, const Graph& data,
                        const MatchPlan& plan, const MatchOptions& run_options,
                        const MatchCallback& callback = {},
                        bool include_build_metrics = true);

}  // namespace sgm

#endif  // SGM_PLAN_H_
