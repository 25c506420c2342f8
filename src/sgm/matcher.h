// Public facade of the library: one call that composes a filtering method,
// an ordering method, an auxiliary structure, a local-candidate computation
// method and the optional optimizations into a full subgraph matching run —
// exactly the decomposition of Algorithm 1 in the paper.
//
// Presets reconstruct the eight algorithms under study:
//   MatchOptions::Classic(Algorithm::kCFL)     — the original algorithm
//   MatchOptions::Optimized(Algorithm::kRI)    — the §5.2/§5.3 optimized
//       variant (all-edges auxiliary structure + set-intersection local
//       candidates, GraphQL candidates for the direct-enumeration methods)
//   MatchOptions::Recommended(query_size)      — the paper's final
//       recommendation (§6): GraphQL filter and ordering, set-intersection
//       enumeration, failing sets on large queries.
// The Glasgow constraint-programming solver has its own entry point in
// sgm/glasgow/glasgow.h (it does not fit the common framework, §3.5).
#ifndef SGM_MATCHER_H_
#define SGM_MATCHER_H_

#include <atomic>
#include <vector>

#include "sgm/core/enumerate/enumerator.h"
#include "sgm/core/filter/filter.h"
#include "sgm/core/order/order.h"

namespace sgm {

namespace obs {
class Collector;
}  // namespace obs

/// The seven framework algorithms of the paper (Glasgow is separate).
enum class Algorithm : uint8_t {
  kQuickSI = 0,
  kGraphQL = 1,
  kCFL = 2,
  kCECI = 3,
  kDPiso = 4,
  kRI = 5,
  kVF2pp = 6,
};

/// Returns the paper's abbreviation ("QSI", "GQL", ...).
const char* AlgorithmName(Algorithm algorithm);

/// Upper bound of MatchOptions::threads, and of every thread-count flag the
/// tools accept: a worker is one std::thread, so an unbounded count would
/// let a typo ask the OS for a hundred thousand threads.
inline constexpr uint32_t kMaxThreads = 256;

/// All seven framework algorithms, for iteration in benches and tests.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kQuickSI, Algorithm::kGraphQL, Algorithm::kCFL,
    Algorithm::kCECI,    Algorithm::kDPiso,   Algorithm::kRI,
    Algorithm::kVF2pp,
};

/// Full configuration of a matching run: which component fills each slot
/// of Algorithm 1 (filter × order × local candidates × aux scope), the
/// optional optimizations, and the per-run limits. Prefer the Classic /
/// Optimized / Recommended factories below; field-level tweaking is for
/// ablations.
struct MatchOptions {
  /// Candidate filtering method (stage 1).
  FilterMethod filter = FilterMethod::kGraphQL;
  /// Matching-order selection method (stage 3).
  OrderMethod order = OrderMethod::kGraphQL;
  /// How local candidates are computed during enumeration (Algorithms 2-5).
  LocalCandidateMethod lc_method = LocalCandidateMethod::kIntersect;
  /// Which query edges the auxiliary structure materializes (tree edges
  /// only, as the classic algorithms build it, or all edges — the §5.2
  /// optimization).
  AuxEdgeScope aux_scope = AuxEdgeScope::kAllEdges;
  /// Failing-set pruning (DP-iso's optimization, applicable everywhere).
  bool use_failing_sets = false;
  /// DP-iso's run-time adaptive ordering (weight-array selection).
  bool adaptive_order = false;
  /// VF2++'s extra look-ahead feasibility rules.
  bool vf2pp_lookahead = false;
  /// Move degree-one query vertices to the end of the matching order —
  /// DP-iso's leaf decomposition (its ordering "prioritizes the remaining
  /// vertices", Section 3.2 of the paper).
  bool postpone_degree_one = false;
  uint64_t max_matches = 100000;
  double time_limit_ms = 300000.0;
  /// Enumeration workers, 1..kMaxThreads. 1 runs the serial engine; more
  /// fan the root candidates out over a work-stealing pool (DESIGN.md §7),
  /// with max_matches as one global budget. A run-time knob like
  /// max_matches: it does not shape the plan.
  uint32_t threads = 1;
  /// kBitmap/kAuto additionally build the bitmap sidecar of the auxiliary
  /// structure (all-edges scope with intersect local candidates only) and
  /// intersect it word-wise in the enumerator; see DESIGN.md §10.
  IntersectionMethod intersection = IntersectionMethod::kHybrid;
  /// Density threshold forwarded to AuxBuildOptions::bitmap_max_candidates
  /// when the intersection method requests sidecars.
  uint32_t bitmap_max_candidates = 4096;
  /// Per-depth local-candidate reuse cache (EnumerateOptions::use_lc_cache).
  bool use_lc_cache = true;
  FilterOptions filter_options;
  /// Optional observability collector (sgm/obs/collector.h). Null — the
  /// default — keeps the run on the uninstrumented path: no spans, no depth
  /// profile, only the cheap aggregate counters MatchResult always carries.
  /// The collector must outlive the call; it is not owned.
  obs::Collector* collector = nullptr;
  /// Optional cooperative cancellation: a set flag aborts the search like a
  /// timeout without marking the run timed out. The serial engine checks it
  /// every 1024 recursion calls; the parallel engine checks it between work
  /// items and on every delivered match. Must outlive the call; may be null.
  /// This is how MatchService (service/service.h) cancels in-flight
  /// requests.
  const std::atomic<bool>* cancel_flag = nullptr;
  /// Testing hook: silently drop the last root candidate before
  /// enumeration — an emulated off-by-one loop bound in the enumerator.
  /// Exists so the differential fuzzer's detection and minimization paths
  /// can be exercised end to end (`sgm_fuzz --inject-fault` and the
  /// FuzzInjectedFault test); never set it in production code.
  bool debug_skip_last_root_candidate = false;

  /// The original algorithm, as published.
  static MatchOptions Classic(Algorithm algorithm);

  /// The optimized variant of Sections 5.2/5.3: edges between candidates
  /// maintained for all query edges, set-intersection local candidates,
  /// GraphQL candidates for the direct-enumeration algorithms, VF2++ extra
  /// rules removed.
  static MatchOptions Optimized(Algorithm algorithm);

  /// The paper's recommended combination (§6), with failing sets enabled
  /// for queries of more than 8 vertices.
  static MatchOptions Recommended(uint32_t query_vertex_count);
};

/// Per-worker accounting of a parallel run (MatchOptions::threads > 1), for
/// load-balance analysis.
struct WorkerStats {
  /// Root-candidate chunks this worker claimed.
  uint32_t root_chunks = 0;
  /// Stolen depth-1 subtasks this worker executed.
  uint32_t stolen_subtasks = 0;
  uint64_t recursion_calls = 0;
  uint64_t matches_found = 0;
  /// CPU time spent executing work items (thread CPU clock, so comparable
  /// even when workers outnumber cores).
  double busy_ms = 0.0;
  /// CPU time of each work item, in execution order; sums to busy_ms.
  /// Benches replay these costs to score the schedule independently of how
  /// the OS interleaved the threads — essential on hosts with fewer cores
  /// than workers.
  std::vector<double> item_costs_ms;
};

/// Result of one matching run, with the per-phase breakdown the paper's
/// metrics need (preprocessing vs enumeration time, candidate counts,
/// memory of the candidate sets and the auxiliary structure).
struct MatchResult {
  uint64_t match_count = 0;
  /// Filtering + aux-structure + ordering time (the paper's "preprocessing
  /// time").
  double preprocessing_ms = 0.0;
  double filter_ms = 0.0;
  double aux_build_ms = 0.0;
  double order_ms = 0.0;
  double enumeration_ms = 0.0;
  double total_ms = 0.0;
  /// (1/|V(q)|) * sum |C(u)|.
  double average_candidates = 0.0;
  size_t candidate_memory_bytes = 0;
  size_t aux_memory_bytes = 0;
  std::vector<Vertex> matching_order;
  EnumerateStats enumerate;
  /// Per-round pruning trajectory of the filtering phase (always recorded;
  /// a round is a handful of bytes and filters run once per query).
  std::vector<FilterRound> filter_rounds;
  /// Per-depth search profile; empty unless options.collector had depth
  /// profiling enabled (see obs/depth_profile.h).
  obs::DepthProfile depth_profile;

  // ---- Worker accounting (degenerate for serial runs). Times above are
  // wall clock and search counters are summed over workers. ----
  /// Workers that enumerated: min(threads, root candidates); 1 for a
  /// serial run, which is every run with one thread or one root candidate.
  uint32_t workers_used = 1;
  /// Root candidates per dispatched chunk; 0 for serial runs.
  uint32_t chunk_size = 0;
  /// Depth-1 subtasks published for stealing across the run.
  uint64_t subtasks_published = 0;
  /// One entry per worker of a parallel run; empty for serial runs.
  std::vector<WorkerStats> worker_stats;

  /// Max worker busy time over mean worker busy time: 1.0 is perfect
  /// balance. Returns 1.0 for serial runs and runs with no measurable work.
  double LoadImbalance() const;

  /// True when the query was killed by the per-query time limit — an
  /// "unsolved query" in the paper's terminology.
  bool unsolved() const { return enumerate.timed_out; }
};

/// Runs one subgraph matching query. The query must be connected, with
/// 1 <= |V(q)| <= 64. `callback`, when provided, receives every match; with
/// options.threads > 1 it may run on any worker, but calls are serialized
/// and the count equals the matches delivered.
MatchResult MatchQuery(const Graph& query, const Graph& data,
                       const MatchOptions& options,
                       const MatchCallback& callback = {});

/// Subgraph containment: true iff the data graph contains at least one
/// embedding of the query. Implemented by stopping the matching engine at
/// the first match — the index-free approach of Sun and Luo (ICDE 2019)
/// that the paper's related-work section describes.
bool ContainsSubgraph(const Graph& query, const Graph& data,
                      const MatchOptions& options = MatchOptions{});

/// Convenience wrapper materializing the embeddings: element i of a match
/// is the data vertex mapped to query vertex i. Respects
/// options.max_matches; be mindful of memory when raising the cap.
std::vector<std::vector<Vertex>> CollectMatches(
    const Graph& query, const Graph& data,
    const MatchOptions& options = MatchOptions{});

}  // namespace sgm

#endif  // SGM_MATCHER_H_
