// The enumeration engine: the recursive backtracking procedure of
// Algorithm 1 with pluggable local-candidate computation (Algorithms 2-5 of
// Section 3.3), optional failing-set pruning (Section 3.4), optional
// VF2++-style look-ahead filtering, and optional DP-iso adaptive vertex
// selection.
#ifndef SGM_CORE_ENUMERATE_ENUMERATOR_H_
#define SGM_CORE_ENUMERATE_ENUMERATOR_H_

#include <atomic>
#include <functional>
#include <span>
#include <vector>

#include "sgm/core/aux_structure.h"
#include "sgm/core/candidate_sets.h"
#include "sgm/core/enumerate/failing_set.h"
#include "sgm/core/order/dpiso_order.h"
#include "sgm/graph/graph.h"
#include "sgm/obs/depth_profile.h"
#include "sgm/util/set_intersection.h"

namespace sgm {

/// How local candidates LC(u, M) are computed (Section 3.3.1).
enum class LocalCandidateMethod : uint8_t {
  /// Algorithm 2 (QuickSI, RI): scan the data neighbors of the pivot's
  /// image and verify label/degree plus the remaining backward edges.
  kNeighborScan = 0,
  /// Algorithm 3 (GraphQL): scan the whole candidate set C(u) and verify
  /// every backward edge against the data graph.
  kCandidateScan = 1,
  /// Algorithm 4 (CFL): retrieve the pivot's candidate-adjacency list from
  /// the auxiliary structure; verify the other backward edges in the data
  /// graph. Requires the pivot edge to be indexed (tree edges suffice).
  kPivotIndex = 2,
  /// Algorithm 5 (CECI, DP-iso, optimized engines): intersect the
  /// candidate-adjacency lists of all backward neighbors. Requires every
  /// query edge to be indexed.
  kIntersect = 3,
};

/// Returns a short name ("neighbor-scan", "intersect", ...).
const char* LocalCandidateMethodName(LocalCandidateMethod method);

/// Knobs of a single enumeration run.
struct EnumerateOptions {
  LocalCandidateMethod lc_method = LocalCandidateMethod::kIntersect;
  /// Failing-set pruning (w/fs vs wo/fs in the paper's tables).
  bool use_failing_sets = false;
  /// DP-iso's adaptive vertex selection; requires weights and an all-edges
  /// auxiliary structure. The static order then serves as the BFS order δ.
  bool adaptive_order = false;
  /// VF2++'s extra look-ahead filtering rules (classic 2PP only).
  bool vf2pp_lookahead = false;
  /// Restrict kNeighborScan to the candidate sets (binary search) instead
  /// of the plain LDF predicate of Algorithm 2. Enable when candidate sets
  /// are stronger than LDF.
  bool restrict_neighbor_scan_to_candidates = false;
  /// Stop after this many matches (the paper uses 10^5). 0 = unlimited.
  uint64_t max_matches = 100000;
  /// Wall-clock budget in milliseconds (the paper uses five minutes).
  /// 0 = unlimited.
  double time_limit_ms = 300000.0;
  /// Set intersection kernel for kIntersect. kBitmap intersects the aux
  /// structure's bitmap sidecars (word-wise AND over candidate indexes)
  /// whenever every backward edge of the extended vertex carries one,
  /// falling back to hybrid otherwise; kAuto additionally weighs the fixed
  /// word cost against the smallest CSR list before choosing.
  IntersectionMethod intersection = IntersectionMethod::kHybrid;
  /// Per-depth local-candidate reuse cache: sibling subtrees whose backward
  /// images coincide skip the LC(u, M) recomputation entirely (kIntersect
  /// with >= 2 backward neighbors, static order only). The cache survives
  /// EnumerationEngine::Reset(), so a per-worker engine reuses entries
  /// across work-stealing chunks.
  bool use_lc_cache = true;
  /// Restricts the first extension to candidates [0, root_slice_end) of
  /// the start vertex (the fault hook of
  /// MatchOptions::debug_skip_last_root_candidate). The default covers the
  /// whole candidate set.
  uint32_t root_slice_end = 0xffffffffu;
  /// Optional cooperative cancellation: checked (relaxed) every 1024
  /// recursion calls; a set flag aborts the search like a timeout, without
  /// marking it timed out. Used by the parallel path so a global stop
  /// (budget reached, callback veto) halts workers stuck in matchless
  /// subtrees. Must outlive the run; may be null.
  const std::atomic<bool>* cancel_flag = nullptr;
  /// Optional search-depth profile sink (see obs/depth_profile.h). Null (the
  /// default) keeps the recursion free of profiling work; non-null adds a
  /// few counter increments per recursion call plus one clock read per 1024
  /// calls. Not thread-safe: one profile per engine; the parallel path
  /// merges per-worker profiles after the run. Must outlive the run.
  obs::DepthProfile* depth_profile = nullptr;
};

/// Outcome and search statistics of one enumeration run.
struct EnumerateStats {
  /// Matches delivered. Counting uses delivered-match semantics: a match
  /// whose callback returns false is still counted — the veto stops the
  /// search after the delivery, it does not un-deliver the match. The
  /// serial and parallel paths agree on this rule.
  uint64_t match_count = 0;
  /// Recursive Enumerate invocations (search-tree nodes).
  uint64_t recursion_calls = 0;
  /// Total size of all computed local candidate sets.
  uint64_t local_candidates_scanned = 0;
  /// Candidate extensions skipped by failing-set pruning.
  uint64_t failing_set_prunes = 0;
  /// Local-candidate computations served by the bitmap sidecar (word-wise
  /// multi-AND over candidate-index bitsets instead of sorted-array merges).
  uint64_t bitmap_intersections = 0;
  /// Local-candidate reuse cache (EnumerateOptions::use_lc_cache) outcomes:
  /// hits reuse a sibling's LC(u, M) verbatim; misses recompute and refill.
  uint64_t lc_cache_hits = 0;
  uint64_t lc_cache_misses = 0;
  bool timed_out = false;
  bool reached_match_limit = false;
  double enumeration_ms = 0.0;
};

/// Called for every match; mapping[i] is the data vertex assigned to the
/// query vertex i (not order position). Return false to stop enumeration.
using MatchCallback = std::function<bool(std::span<const Vertex>)>;

/// Runs the backtracking enumeration (single-shot; schedulers that reuse
/// one engine per worker use EnumerationEngine in enumeration_engine.h).
///
/// `order` is the matching order (or the BFS order δ when adaptive ordering
/// is on). `aux` may be null only for kNeighborScan / kCandidateScan.
/// `weights` is required when options.adaptive_order is set.
/// `callback` may be empty when only counting.
EnumerateStats Enumerate(const Graph& query, const Graph& data,
                         const CandidateSets& candidates,
                         const AuxStructure* aux,
                         std::span<const Vertex> order,
                         const EnumerateOptions& options,
                         const DpisoWeights* weights = nullptr,
                         const MatchCallback& callback = {});

}  // namespace sgm

#endif  // SGM_CORE_ENUMERATE_ENUMERATOR_H_
